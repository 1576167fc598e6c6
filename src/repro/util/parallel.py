"""Fault-tolerant parallel execution for population evaluation.

The paper's setup evaluates each generation's programs in parallel
across 96 hardware threads (§VI-B1: "Harpocrates exploits the full
parallelism of any CPU configuration").  A long campaign at that scale
cannot afford to die because one candidate wedges a worker or a process
segfaults, so :class:`ResilientPool` is built around failure isolation:
per-task wall-clock timeouts that kill wedged workers, bounded retry
with exponential backoff, automatic respawn after a
``BrokenProcessPool``, and a graceful fallback to in-process execution
when the pool is irrecoverable.  Every task resolves to a
:class:`TaskOutcome` rather than raising, so one misbehaving candidate
costs one task, never the campaign.  Results are collected in the order
tasks finish, so no worker idles behind a slower one.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro import obs

#: Terminal task states (:attr:`TaskOutcome.status` values).
STATUS_OK = "ok"
STATUS_ERRORED = "errored"
STATUS_TIMED_OUT = "timed_out"
STATUS_CRASHED = "crashed"


def clamp_workers(workers: Optional[int], items: Optional[int] = None) -> int:
    """Sanitize a worker count.

    Negative or zero requests behave like ``workers=1``; requests larger
    than the machine (``os.cpu_count()``) or the amount of work are
    clamped down so the pool never over-spawns processes.
    """
    count = 1 if workers is None else int(workers)
    if count < 1:
        count = 1
    count = min(count, os.cpu_count() or 1)
    if items is not None:
        count = min(count, max(int(items), 1))
    return count


@dataclass
class TaskOutcome:
    """The structured result of one task run under :class:`ResilientPool`.

    ``status`` is one of ``ok`` / ``errored`` (the function raised) /
    ``timed_out`` (exceeded the wall-clock budget; the worker was
    killed) / ``crashed`` (the worker process died).  ``attempts``
    counts every try including the successful or final one, and
    ``where`` records whether the final attempt ran in the pool or
    in-process after the pool degraded.  ``duration`` runs from the
    final attempt's submission to its completion in the worker, not
    to the moment the pool collected it.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0
    where: str = "pool"

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Task:
    """Book-keeping for one in-flight item."""

    index: int
    item: Any
    attempts: int = 0
    #: ``time.monotonic()`` before which a retry stays queued (backoff).
    ready_at: float = 0.0
    submitted: float = 0.0
    #: Set when a worker crash could not be pinned on one task: the
    #: task then runs alone, so a repeat crash is charged to it exactly.
    suspect: bool = False


def _stamp_done(future: Future) -> None:
    """Done callback: stamp when the task finished in its worker.  A
    task that finishes behind a slower head is collected late, but its
    duration ends here.  (Stored on the future itself: a callback that
    closed over pool state would tie every result into a cycle.)"""
    future.done_at = time.monotonic()


def _done_at(future: Future) -> Optional[float]:
    """The completion stamp, or None when the callback has not run yet
    (it runs just after waiters on ``result()`` are woken)."""
    return getattr(future, "done_at", None)


def _elapsed(task: _Task, finished: Optional[float]) -> float:
    """Seconds from the task's submission to its completion stamp (or
    to now, when it has none yet)."""
    end = time.monotonic() if finished is None else finished
    return end - task.submitted


class ResilientPool:
    """A process pool that survives hangs, crashes, and flaky tasks.

    Worker processes are **persistent**: the first :meth:`map` call
    spawns them and later calls reuse them, so a campaign pays process
    startup once rather than once per generation.  Breakage (timeout
    kills, worker crashes, a worker that died while idle) tears the
    executor down and leases its replacement at once, so a warm
    executor survives a crash of the last task; the respawn budget is
    applied per :meth:`map` call.  A crash is charged only to the task
    that caused it: when a worker dies with several tasks unfinished,
    all of them are re-queued uncharged as *suspects* and run one at a
    time, which costs one extra respawn.  Call :meth:`close` when done.

    Parameters
    ----------
    workers:
        Requested process count; clamped by :func:`clamp_workers`.
        ``workers <= 1`` runs everything in-process (still isolating
        exceptions, but without timeout enforcement).
    timeout:
        Per-task wall-clock budget in seconds.  A task that exceeds it
        is recorded as ``timed_out`` and the (presumed wedged) worker
        processes are killed and respawned.  ``None`` disables.
    max_retries:
        Additional attempts granted to a failed task (0 = single shot).
        Timed-out, crashed, and errored tasks are all eligible unless
        ``retryable`` says otherwise.
    retryable:
        Optional predicate over the raised exception deciding whether an
        ``errored`` task is worth retrying (default: retry everything
        within budget).  Timeouts and worker crashes are always
        considered transient.
    max_respawns:
        Pool reconstruction budget per :meth:`map` call.  Every
        teardown spends one respawn; an ambiguous crash spends one more
        when its suspects, run alone, pin the crash on the culprit.
        Once exhausted, the pool degrades
        gracefully: remaining tasks run in-process (exceptions stay
        contained; timeouts are still enforced via ``SIGALRM`` on a
        POSIX main thread — see :func:`inline_timeout_supported` — and
        are a documented no-op elsewhere).
    backoff_base / backoff_cap:
        Exponential-backoff schedule between retries, in seconds
        (``base * 2**(attempt-1)``, capped).
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retryable: Optional[Callable[[BaseException], bool]] = None,
        max_respawns: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.retryable = retryable
        self.max_respawns = max(0, int(max_respawns))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Executor teardowns over this pool's lifetime (observability).
        #: Each is followed by a respawn unless the map() call's budget
        #: is spent, in which case that call degrades to in-process.
        self.respawns = 0
        #: True once the pool fell back to in-process execution.
        self.degraded = False
        # The persistent executor: worker processes survive across
        # map() calls, so a campaign pays process spawn once, not once
        # per generation.  Torn down by breakage (then respawned) or
        # by close().
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0

    def close(self) -> None:
        """Shut the persistent worker processes down (idempotent).

        A pool remains usable after close(): the next :meth:`map` call
        simply spawns fresh workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._executor_workers = 0

    # -- public API --------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[TaskOutcome]:
        """Run ``fn`` over ``items``; one :class:`TaskOutcome` each,
        in input order.  Never raises for a task failure."""
        items = list(items)
        if not items:
            return []
        workers = clamp_workers(self.workers, len(items))
        tasks = [_Task(index=i, item=item) for i, item in enumerate(items)]
        outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
        # A process pool is used whenever parallelism was requested OR a
        # timeout must be enforceable (killing a wedged task requires a
        # separate process, even on a single-CPU machine where the
        # clamped pool holds just one worker).
        use_pool = int(self.workers or 1) > 1 or self.timeout is not None
        if not use_pool:
            for task in tasks:
                outcomes[task.index] = self._run_inline(fn, task)
            return [outcome for outcome in outcomes if outcome is not None]
        self._run_pool(fn, tasks, outcomes, workers)
        return [outcome for outcome in outcomes if outcome is not None]

    # -- pool path ---------------------------------------------------------

    def _run_pool(
        self,
        fn: Callable[[Any], Any],
        tasks: List[_Task],
        outcomes: List[Optional[TaskOutcome]],
        workers: int,
    ) -> None:
        pending: Deque[_Task] = deque(tasks)
        executor: Optional[ProcessPoolExecutor] = self._lease_executor(
            workers
        )
        inflight: Dict[Any, _Task] = {}
        order: Deque[Any] = deque()
        # The respawn budget is per map() call: one sick generation may
        # burn through max_respawns and degrade, but the next call gets
        # a fresh budget (self.respawns stays cumulative for telemetry).
        respawns_at_start = self.respawns
        try:
            while pending or order:
                if executor is None:
                    # Respawn budget spent, pool irrecoverable: degrade
                    # to in-process.
                    self.degraded = True
                    obs.inc(
                        "repro_pool_degraded_total",
                        help_text="Pools that fell back to "
                                  "in-process execution",
                    )
                    while pending:
                        task = pending.popleft()
                        outcomes[task.index] = self._run_inline(fn, task)
                    return
                # Keep at most ``workers`` tasks in flight so a freshly
                # submitted task starts (approximately) immediately and
                # its wall-clock budget measures execution, not queueing.
                # A suspect runs alone: it waits for the tasks in flight
                # to drain, and nothing joins it.  A retry in backoff
                # waits for its ready time; meanwhile the tasks in
                # flight are still collected.
                backoff_until: Optional[float] = None
                while pending and len(order) < workers:
                    if order and (
                        pending[0].suspect or inflight[order[0]].suspect
                    ):
                        break
                    if pending[0].ready_at > time.monotonic():
                        backoff_until = pending[0].ready_at
                        break
                    task = pending.popleft()
                    task.submitted = time.monotonic()
                    try:
                        future = executor.submit(fn, task.item)
                    except BrokenExecutor:
                        # Broken by an earlier task, or by a worker that
                        # died while idle: this task never ran.
                        pending.appendleft(task)
                        break
                    future.add_done_callback(_stamp_done)
                    inflight[future] = task
                    order.append(future)
                if not order:
                    if backoff_until is not None:
                        # Nothing to collect until the retry is due.
                        time.sleep(
                            max(0.0, backoff_until - time.monotonic())
                        )
                        continue
                    # Otherwise only a broken submit leaves nothing in
                    # flight, and then there is no task to charge.
                    executor = self._respawn(
                        executor, workers, respawns_at_start
                    )
                    continue
                # Collect by completion: a worker that finishes early
                # is refilled at once instead of idling behind the
                # head.  The head is the oldest submission, so its
                # budget runs out first.  A pending backoff caps the
                # wait, so its retry is submitted once due.
                budget = None
                overran = True
                if self.timeout is not None:
                    budget = max(
                        0.0,
                        inflight[order[0]].submitted + self.timeout
                        - time.monotonic(),
                    )
                if backoff_until is not None:
                    due = max(0.0, backoff_until - time.monotonic())
                    if budget is None or due < budget:
                        budget, overran = due, False
                done, _ = wait(order, budget, FIRST_COMPLETED)
                if not done:
                    if not overran:
                        continue
                    # The head overran its own budget, so the charge is
                    # exact; unfinished siblings are innocent bystanders.
                    future = order[0]
                    task = inflight[future]
                    self._drop(future, inflight, order)
                    bystanders = self._harvest(inflight, order, outcomes,
                                               pending)
                    pending.extendleft(reversed(bystanders))
                    executor = self._respawn(
                        executor, workers, respawns_at_start
                    )
                    self._finish_or_retry(
                        task, STATUS_TIMED_OUT, pending, outcomes,
                        error=f"exceeded {self.timeout:.3f}s wall-clock budget",
                        error_type="TimeoutError",
                    )
                    continue
                for future in [f for f in order if f in done]:
                    task = inflight[future]
                    self._drop(future, inflight, order)
                    exc = future.exception()
                    if isinstance(exc, BrokenExecutor):
                        executor = self._crashed(
                            task, exc, executor, workers, inflight, order,
                            outcomes, pending, respawns_at_start,
                        )
                        # The crash harvested every other future.
                        break
                    if exc is not None:  # fn raised inside the worker
                        self._finish_or_retry(
                            task, STATUS_ERRORED, pending, outcomes,
                            error=str(exc), error_type=type(exc).__name__,
                            exception=exc, finished=_done_at(future),
                        )
                    else:
                        self._record_ok(
                            task, future.result(), outcomes,
                            _done_at(future),
                        )
        except BaseException:
            # Abnormal exit (e.g. KeyboardInterrupt): don't leave live
            # worker processes behind an abandoned generation.
            if executor is not None:
                self._retire(executor)
            raise
        # Normal exit: the executor stays warm for the next map() call.

    def _crashed(
        self,
        task: _Task,
        exc: BaseException,
        executor: ProcessPoolExecutor,
        workers: int,
        inflight: Dict[Any, _Task],
        order: Deque[Any],
        outcomes: List[Optional[TaskOutcome]],
        pending: Deque[_Task],
        respawns_at_start: int,
    ) -> Optional[ProcessPoolExecutor]:
        """A worker died while ``task`` (already dropped from the
        in-flight set) was unfinished.  Every unfinished future fails
        when a worker dies, so ``task`` is not necessarily the culprit.
        Returns the respawned executor (``None``: degrade)."""
        bystanders = self._harvest(inflight, order, outcomes, pending)
        executor = self._respawn(executor, workers, respawns_at_start)
        if bystanders and executor is not None:
            # Ambiguous: re-run every unfinished task alone, uncharged,
            # until the crash repeats on one.
            suspects = [task] + bystanders
            for suspect in suspects:
                suspect.suspect = True
            pending.extendleft(reversed(suspects))
            return executor
        # One task unfinished: the crash is its own.  (With the budget
        # spent the suspects cannot be isolated, and ``task`` stays the
        # best guess.)
        pending.extendleft(reversed(bystanders))
        self._finish_or_retry(
            task, STATUS_CRASHED, pending, outcomes,
            error=str(exc) or "worker process died",
            error_type=type(exc).__name__,
        )
        return executor

    def _lease_executor(self, workers: int) -> ProcessPoolExecutor:
        """The persistent executor, (re)created on demand.

        An executor sized below this call's parallelism is replaced —
        extra capacity from a wider earlier generation is kept (idle
        workers are cheap; respawning is not)."""
        if self._executor is not None and self._executor_workers < workers:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._executor_workers = workers
        return self._executor

    def _retire(self, executor: ProcessPoolExecutor) -> None:
        """Tear an executor down hard and forget it if persistent."""
        self._kill(executor)
        if self._executor is executor:
            self._executor = None
            self._executor_workers = 0

    def _respawn(
        self,
        executor: ProcessPoolExecutor,
        workers: int,
        respawns_at_start: int,
    ) -> Optional[ProcessPoolExecutor]:
        """Retire a broken executor and lease its replacement at once.

        Constructing an executor starts no process before its first
        submit, so the eager lease is free.  ``None`` means this map()
        call's respawn budget is spent and the caller must degrade."""
        self._retire(executor)
        self.respawns += 1
        obs.inc(
            "repro_pool_respawns_total",
            help_text="Process-pool reconstructions",
        )
        if self.respawns - respawns_at_start > self.max_respawns:
            return None
        return self._lease_executor(workers)

    @staticmethod
    def _drop(future, inflight, order) -> None:
        order.remove(future)
        del inflight[future]

    @staticmethod
    def _record_ok(
        task: _Task,
        value: Any,
        outcomes: List[Optional[TaskOutcome]],
        finished: Optional[float] = None,
    ) -> None:
        task.attempts += 1
        outcomes[task.index] = TaskOutcome(
            index=task.index,
            status=STATUS_OK,
            value=value,
            attempts=task.attempts,
            duration=_elapsed(task, finished),
        )

    def _harvest(
        self,
        inflight: Dict[Any, _Task],
        order: Deque[Any],
        outcomes: List[Optional[TaskOutcome]],
        pending: Deque[_Task],
    ) -> List[_Task]:
        """Salvage the other in-flight tasks before a pool teardown.

        Completed siblings keep their results: ``ok``, or ``errored``
        under the usual retry discipline.  The unfinished ones (still
        running, or failed only by the teardown) are returned in
        submission order with no attempt charged; the caller re-queues
        them as innocent bystanders of a timeout, or as suspects of an
        ambiguous crash."""
        unfinished: List[_Task] = []
        while order:
            future = order.popleft()
            task = inflight.pop(future)
            if not future.done() or future.cancelled():
                unfinished.append(task)
                continue
            exc = future.exception()
            if exc is None:
                self._record_ok(
                    task, future.result(), outcomes, _done_at(future)
                )
            elif isinstance(exc, BrokenExecutor):
                unfinished.append(task)
            else:
                self._finish_or_retry(
                    task, STATUS_ERRORED, pending, outcomes,
                    error=str(exc), error_type=type(exc).__name__,
                    exception=exc, finished=_done_at(future),
                )
        return unfinished

    def _finish_or_retry(
        self,
        task: _Task,
        status: str,
        pending: Deque[_Task],
        outcomes: List[Optional[TaskOutcome]],
        error: Optional[str] = None,
        error_type: Optional[str] = None,
        exception: Optional[BaseException] = None,
        finished: Optional[float] = None,
    ) -> None:
        task.attempts += 1
        duration = _elapsed(task, finished)
        retry_allowed = task.attempts <= self.max_retries
        if status == STATUS_ERRORED and retry_allowed \
                and self.retryable is not None and exception is not None:
            retry_allowed = bool(self.retryable(exception))
        if retry_allowed:
            task.ready_at = time.monotonic() + min(
                self.backoff_cap,
                self.backoff_base * (2 ** (task.attempts - 1)),
            )
            pending.append(task)
            obs.inc(
                "repro_pool_retries_total",
                help_text="Task attempts re-queued after a failure",
            )
            return
        obs.inc(
            "repro_pool_failures_total",
            help_text="Tasks that exhausted their attempts, by status",
            status=status,
        )
        outcomes[task.index] = TaskOutcome(
            index=task.index,
            status=status,
            error=error,
            error_type=error_type,
            attempts=task.attempts,
            duration=duration,
        )

    @staticmethod
    def _kill(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down hard, killing wedged worker processes."""
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # -- in-process path ---------------------------------------------------

    def _run_inline(self, fn: Callable[[Any], Any], task: _Task) -> TaskOutcome:
        """Execute one task in-process with the same retry discipline.

        Wall-clock enforcement here rides on ``SIGALRM`` (see
        :func:`inline_timeout_supported`): on a POSIX main thread a
        wedged candidate is interrupted and recorded as ``timed_out``
        just like in the pool path.  Elsewhere (Windows, or a pool
        degraded inside a worker thread) enforcement is a documented
        no-op — a hang would hang the caller — which is why this path
        is the *fallback*, not the default."""
        enforce = self.timeout is not None and inline_timeout_supported()
        while True:
            task.attempts += 1
            started = time.monotonic()
            try:
                if enforce:
                    with _alarm(self.timeout):
                        value = fn(task.item)
                else:
                    value = fn(task.item)
            except _InlineTimeout:
                if task.attempts <= self.max_retries:
                    # Timeouts are always considered transient, as in
                    # the pool path.
                    time.sleep(min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (task.attempts - 1)),
                    ))
                    continue
                return TaskOutcome(
                    index=task.index,
                    status=STATUS_TIMED_OUT,
                    error=(
                        f"exceeded {self.timeout:.3f}s wall-clock "
                        f"budget (inline SIGALRM guard)"
                    ),
                    error_type="TimeoutError",
                    attempts=task.attempts,
                    duration=time.monotonic() - started,
                    where="inline",
                )
            except Exception as exc:
                retry_allowed = task.attempts <= self.max_retries
                if retry_allowed and self.retryable is not None:
                    retry_allowed = bool(self.retryable(exc))
                if retry_allowed:
                    time.sleep(min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (task.attempts - 1)),
                    ))
                    continue
                return TaskOutcome(
                    index=task.index,
                    status=STATUS_ERRORED,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    attempts=task.attempts,
                    duration=time.monotonic() - started,
                    where="inline",
                )
            return TaskOutcome(
                index=task.index,
                status=STATUS_OK,
                value=value,
                attempts=task.attempts,
                duration=time.monotonic() - started,
                where="inline",
            )


# -- inline (SIGALRM) timeout enforcement ------------------------------------


class _InlineTimeout(BaseException):
    """Raised by the SIGALRM handler to interrupt a wedged task.

    Derives from ``BaseException`` so candidate code using a broad
    ``except Exception`` cannot swallow the enforcement signal.
    """


def inline_timeout_supported() -> bool:
    """True when the degraded in-process path can enforce timeouts.

    Requires ``SIGALRM`` (POSIX) and the main thread — Python only
    delivers signals there.  Everywhere else the inline path runs
    without wall-clock enforcement (documented no-op).
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


class _alarm:
    """Context manager arming a one-shot ``ITIMER_REAL`` interval.

    Saves and restores both the previous handler and any previously
    armed timer, so nesting (or a caller's own alarm) survives."""

    def __init__(self, seconds: float):
        self.seconds = max(1e-3, float(seconds))
        self._previous_handler = None
        self._previous_timer = (0.0, 0.0)

    def __enter__(self) -> "_alarm":
        def _on_alarm(signum, frame):
            raise _InlineTimeout()

        self._previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
        self._previous_timer = signal.setitimer(
            signal.ITIMER_REAL, self.seconds
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        signal.setitimer(signal.ITIMER_REAL, *self._previous_timer)
        signal.signal(signal.SIGALRM, self._previous_handler)
