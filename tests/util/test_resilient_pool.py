"""ResilientPool: failure isolation under hangs, crashes, and flakes.

Worker functions live at module level so process pools can pickle
them; fault schedules that must survive worker restarts communicate
through marker files in a temp directory carried inside the item.
"""

import os
import signal
import threading
import time

import pytest

from repro.util.parallel import (
    STATUS_CRASHED,
    STATUS_ERRORED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    ResilientPool,
    TaskOutcome,
    clamp_workers,
    inline_timeout_supported,
)


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60)
    return x


def _exit_on_two(x):
    if x == 2:
        os._exit(17)
    return x


def _sleep_on_zero_exit_on_one(x):
    """Task 1 kills its worker while task 0 is still running."""
    if x == 0:
        time.sleep(0.5)
    if x == 1:
        os._exit(17)
    return x


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _fail_until_marked(item):
    """Fails until its marker file exists (written on first failure)."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"seen_{value}")
    if value == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure")
    return value


def _exit_until_marked(item):
    """Kills its worker once, then succeeds (pool-degradation probe)."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"seen_{value}")
    if value == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value


class TestClampWorkers:
    def test_negative_behaves_like_one(self):
        assert clamp_workers(-4) == 1
        assert clamp_workers(0) == 1

    def test_none_behaves_like_one(self):
        assert clamp_workers(None) == 1

    def test_capped_by_cpu_count(self):
        assert clamp_workers(10_000) <= (os.cpu_count() or 1)

    def test_capped_by_item_count(self):
        assert clamp_workers(8, items=3) <= 3

    def test_empty_items_still_one(self):
        assert clamp_workers(8, items=0) == 1


class TestHappyPath:
    def test_order_and_values(self):
        outcomes = ResilientPool(workers=2).map(_square, list(range(8)))
        assert [o.value for o in outcomes] == [i * i for i in range(8)]
        assert all(o.ok for o in outcomes)
        assert all(o.status == STATUS_OK for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)

    def test_empty(self):
        assert ResilientPool(workers=4).map(_square, []) == []

    def test_inline_when_no_parallelism_requested(self):
        pool = ResilientPool(workers=1)
        outcomes = pool.map(_square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.where == "inline" for o in outcomes)


class TestErrorIsolation:
    def test_one_bad_task_costs_one_task(self):
        outcomes = ResilientPool(workers=2).map(
            _raise_on_three, [1, 2, 3, 4]
        )
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_OK, STATUS_ERRORED, STATUS_OK,
        ]
        bad = outcomes[2]
        assert bad.error_type == "ValueError"
        assert "three" in bad.error

    def test_inline_path_isolates_errors_too(self):
        outcomes = ResilientPool(workers=1).map(
            _raise_on_three, [3, 5]
        )
        assert outcomes[0].status == STATUS_ERRORED
        assert outcomes[1].ok


class TestTimeout:
    def test_hung_task_is_killed_and_marked(self):
        pool = ResilientPool(workers=2, timeout=1.0)
        started = time.monotonic()
        outcomes = pool.map(_hang_on_one, [0, 1, 2, 3])
        elapsed = time.monotonic() - started
        assert outcomes[1].status == STATUS_TIMED_OUT
        assert [o.status for i, o in enumerate(outcomes) if i != 1] == \
            [STATUS_OK] * 3
        assert pool.respawns >= 1
        # The 60s sleeper must not have been waited out.
        assert elapsed < 30


class TestWorkerCrash:
    def test_dead_worker_is_contained_and_pool_respawned(self):
        pool = ResilientPool(workers=2)
        outcomes = pool.map(_exit_on_two, [0, 1, 2, 3])
        assert outcomes[2].status == STATUS_CRASHED
        assert [o.ok for i, o in enumerate(outcomes) if i != 2] == \
            [True] * 3
        assert pool.respawns >= 1

    def test_crash_charged_only_to_the_crasher(self):
        """Both futures fail when task 1 kills its worker while task 0
        sleeps; the innocent task 0 must not be charged (with
        ``max_retries=0`` a charge would be final)."""
        pool = ResilientPool(workers=2, max_retries=0)
        try:
            outcomes = pool.map(_sleep_on_zero_exit_on_one, [0, 1])
            assert outcomes[1].status == STATUS_CRASHED
            assert outcomes[0].ok
            assert outcomes[0].value == 0
            assert outcomes[0].attempts == 1
        finally:
            pool.close()


class TestRetry:
    def test_transient_failure_retried_to_success(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(3)]
        outcomes = ResilientPool(workers=2, max_retries=2).map(
            _fail_until_marked, items
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts == 2
        assert outcomes[0].attempts == 1

    def test_retry_budget_exhausted(self):
        outcomes = ResilientPool(workers=2, max_retries=2).map(
            _raise_on_three, [3]
        )
        assert outcomes[0].status == STATUS_ERRORED
        assert outcomes[0].attempts == 3


class TestGracefulDegradation:
    def test_falls_back_inline_when_pool_irrecoverable(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(4)]
        pool = ResilientPool(workers=2, max_respawns=0, max_retries=1)
        outcomes = pool.map(_exit_until_marked, items)
        assert all(o.ok for o in outcomes)
        assert pool.degraded
        assert any(o.where == "inline" for o in outcomes)


def _crash_then_hang(item):
    """Kills the (sole) pool worker once, then hangs on value 1 —
    drives a timeout-enforcing pool into its degraded inline path
    with a wedged task still pending."""
    value, marker_dir = item
    if value == 0:
        marker = os.path.join(marker_dir, "crashed")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    if value == 1:
        time.sleep(30)
    return value


def _swallowing_sleep(x):
    """Candidate code with a broad except must not defeat the guard."""
    try:
        time.sleep(30)
    except Exception:
        return "swallowed"
    return x


def _inline(pool, fn, item):
    """Run one task through the degraded in-process path directly."""
    from repro.util.parallel import _Task

    return pool._run_inline(fn, _Task(index=0, item=item))


needs_sigalrm = pytest.mark.skipif(
    not inline_timeout_supported(),
    reason="inline timeout needs SIGALRM on the main thread",
)


class TestInlineTimeout:
    """The degraded in-process fallback enforces wall-clock budgets
    via SIGALRM (POSIX main thread only; documented no-op
    elsewhere)."""

    @needs_sigalrm
    def test_degraded_pool_still_enforces_timeout(self, tmp_path):
        """End to end: the worker dies, respawn budget is exhausted,
        and the wedged task that then runs *in-process* is still
        interrupted and marked timed out."""
        pool = ResilientPool(workers=1, timeout=0.3, max_respawns=0)
        items = [(i, str(tmp_path)) for i in range(3)]
        started = time.monotonic()
        outcomes = pool.map(_crash_then_hang, items)
        elapsed = time.monotonic() - started
        assert pool.degraded
        assert outcomes[0].status == STATUS_CRASHED
        assert outcomes[1].status == STATUS_TIMED_OUT
        assert outcomes[1].where == "inline"
        assert outcomes[1].error_type == "TimeoutError"
        assert "SIGALRM" in outcomes[1].error
        assert outcomes[2].ok
        assert outcomes[2].where == "inline"
        assert elapsed < 10  # the 30s sleeper was not waited out

    @needs_sigalrm
    def test_inline_guard_interrupts_sleep(self):
        pool = ResilientPool(workers=1, timeout=0.2)
        started = time.monotonic()
        outcome = _inline(pool, _swallowing_sleep, 1)
        assert time.monotonic() - started < 5
        assert outcome.status == STATUS_TIMED_OUT
        assert outcome.value != "swallowed"

    @needs_sigalrm
    def test_inline_timeout_consumes_retry_budget(self):
        pool = ResilientPool(
            workers=1, timeout=0.1, max_retries=2,
            backoff_base=0.01,
        )
        outcome = _inline(pool, _swallowing_sleep, 1)
        assert outcome.status == STATUS_TIMED_OUT
        assert outcome.attempts == 3

    @needs_sigalrm
    def test_signal_state_restored_after_enforcement(self):
        previous = signal.getsignal(signal.SIGALRM)
        pool = ResilientPool(workers=1, timeout=0.1)
        _inline(pool, _swallowing_sleep, 1)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    @needs_sigalrm
    def test_fast_tasks_unaffected_by_enforcement(self):
        pool = ResilientPool(workers=1, timeout=5.0)
        outcome = _inline(pool, _square, 3)
        assert outcome.ok
        assert outcome.value == 9
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_unsupported_off_main_thread(self):
        """Signals only reach the main thread, so enforcement must
        report itself unavailable from a worker thread."""
        seen = {}

        def probe():
            seen["supported"] = inline_timeout_supported()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["supported"] is False


class TestPersistentExecutor:
    """One process-pool spawn per campaign, not per generation: the
    executor leased for a map() call stays warm for the next one."""

    def test_executor_reused_across_maps(self):
        pool = ResilientPool(workers=2)
        try:
            first = pool.map(_square, [1, 2, 3, 4])
            executor = pool._executor
            assert executor is not None
            second = pool.map(_square, [5, 6, 7, 8])
            assert pool._executor is executor
            assert [o.value for o in first] == [1, 4, 9, 16]
            assert [o.value for o in second] == [25, 36, 49, 64]
        finally:
            pool.close()

    def test_close_releases_and_pool_stays_usable(self):
        pool = ResilientPool(workers=2)
        pool.map(_square, [1, 2])
        pool.close()
        assert pool._executor is None
        # close() is a release, not a poison pill: the next map()
        # simply spawns fresh workers.
        outcomes = pool.map(_square, [3, 4])
        assert [o.value for o in outcomes] == [9, 16]
        assert pool._executor is not None
        pool.close()

    def test_close_is_idempotent(self):
        pool = ResilientPool(workers=2)
        pool.map(_square, [1])
        pool.close()
        pool.close()
        assert pool._executor is None

    def test_undersized_executor_replaced_wider_kept(self):
        # Exercised through _lease_executor directly: map() clamps its
        # width by the host CPU count, which CI can't rely on.
        pool = ResilientPool(workers=4)
        try:
            small = pool._lease_executor(1)
            assert pool._executor_workers == 1
            # A wider lease must replace the undersized executor...
            wide = pool._lease_executor(2)
            assert wide is not small
            assert pool._executor_workers == 2
            # ...but a narrower one keeps the oversized executor warm.
            assert pool._lease_executor(1) is wide
            assert pool._executor_workers == 2
        finally:
            pool.close()

    def test_crash_retires_executor_then_recovers(self):
        pool = ResilientPool(workers=2)
        try:
            outcomes = pool.map(_exit_on_two, [0, 1, 2, 3])
            assert outcomes[2].status == STATUS_CRASHED
            assert pool.respawns >= 1
            # The replacement executor (post-respawn) stays leased.
            survivor = pool._executor
            assert survivor is not None
            clean = pool.map(_square, [1, 2, 3])
            assert all(o.ok for o in clean)
            assert pool._executor is survivor
        finally:
            pool.close()

    def test_worker_killed_while_idle_then_map_recovers(self):
        """A warm executor whose worker died between map() calls makes
        the next submit raise; map() must respawn, not raise."""
        pool = ResilientPool(workers=2)
        try:
            pool.map(_square, [1, 2, 3, 4])
            executor = pool._executor
            victim = next(iter(executor._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken
            respawns = pool.respawns
            outcomes = pool.map(_square, [5, 6, 7])
            assert all(o.ok for o in outcomes)
            assert [o.value for o in outcomes] == [25, 36, 49]
            assert pool.respawns == respawns + 1
            assert pool._executor is not executor
        finally:
            pool.close()

    def test_respawn_budget_is_per_map(self, tmp_path):
        """Degradation is scoped to the map() that hit it: the next
        generation gets a fresh respawn budget (while ``respawns``
        keeps the cumulative campaign count)."""
        pool = ResilientPool(workers=2, max_respawns=0, max_retries=1)
        try:
            items = [(i, str(tmp_path)) for i in range(4)]
            first = pool.map(_exit_until_marked, items)
            assert all(o.ok for o in first)
            assert pool.degraded
            respawns_after_first = pool.respawns
            assert respawns_after_first >= 1
            # Markers now exist, so the second map is clean — and it
            # must run pooled again, not inherit the exhausted budget
            # (``degraded`` itself stays latched for telemetry).
            second = pool.map(_exit_until_marked, items)
            assert all(o.ok for o in second)
            assert all(o.where == "pool" for o in second)
            assert pool.respawns == respawns_after_first
        finally:
            pool.close()


class TestTaskOutcome:
    def test_ok_property(self):
        assert TaskOutcome(index=0, status=STATUS_OK).ok
        assert not TaskOutcome(index=0, status=STATUS_TIMED_OUT).ok

    def test_duration_ends_when_the_task_finishes(self):
        """A fast task harvested behind a slow head reports its own
        run time, not the head's."""
        pool = ResilientPool(workers=2)
        try:
            slow, fast = pool.map(_sleep_for, [1.0, 0.0])
        finally:
            pool.close()
        assert slow.ok and fast.ok
        assert slow.duration >= 1.0
        assert fast.duration < 0.5 * slow.duration


needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="collection order needs two pool workers",
)


class TestCompletionOrder:
    """Results are collected as tasks finish, not in submission order,
    so a worker that finishes early is refilled instead of idling
    behind a slow head."""

    @needs_two_cpus
    def test_short_tasks_collected_before_a_slow_head(self):
        pool = ResilientPool(workers=2)
        collected = []
        record_ok = pool._record_ok

        def recording(task, value, outcomes, finished=None):
            collected.append(task.index)
            record_ok(task, value, outcomes, finished)

        pool._record_ok = recording
        try:
            outcomes = pool.map(_sleep_for, [0.5, 0.0, 0.0, 0.0, 0.0])
        finally:
            pool.close()
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [0.5, 0.0, 0.0, 0.0, 0.0]
        assert collected == [1, 2, 3, 4, 0]
        head = outcomes[0]
        assert head.duration >= 0.5
        assert all(o.duration < 0.5 * head.duration for o in outcomes[1:])

    @needs_two_cpus
    def test_timeout_runs_from_the_tasks_own_submission(self):
        """Task 1 hangs while the head runs 0.8 s of its 1 s budget;
        it times out 1 s after its own submission, not 1 s after it
        became the head."""
        pool = ResilientPool(workers=2, timeout=1.0)
        try:
            outcomes = pool.map(_sleep_for, [0.8, 60.0, 0.0, 0.0])
        finally:
            pool.close()
        assert outcomes[1].status == STATUS_TIMED_OUT
        assert [outcomes[i].status for i in (0, 2, 3)] == [STATUS_OK] * 3
        assert 1.0 <= outcomes[1].duration < 1.6
        assert pool.respawns == 1

