"""Deterministic fault-injecting evaluator doubles.

Used by the resilience and fleet tests to assert retry, timeout,
quarantine, straggler and resume behavior end to end.  The doubles
subclass the real :class:`~repro.core.evaluator.Evaluator` — they
reuse its pool, quarantine, and health machinery and only swap the
per-candidate worker for one that misbehaves on schedule.

Fault schedules are pure functions of the candidate's *name* (via
CRC32), so a given population always produces the same failures — in
any process, in any order, across resumes.
"""

from __future__ import annotations

import os
import time
import zlib

from repro.core.evaluator import Evaluator, _evaluate_one


def fault_bucket(name: str) -> int:
    """Stable per-program bucket in [0, 100)."""
    return zlib.crc32(name.encode("utf-8")) % 100


def _flaky_evaluate_one(args):
    """Worker that hangs or raises for scheduled buckets.

    Bucket layout: ``[0, hang_pct)`` hangs, ``[hang_pct,
    hang_pct + fail_pct)`` raises, the rest evaluate normally.
    """
    program, metric, machine, fail_pct, hang_pct, hang_seconds = args
    bucket = fault_bucket(program.name)
    if bucket < hang_pct:
        time.sleep(hang_seconds)
    elif bucket < hang_pct + fail_pct:
        raise RuntimeError(
            f"injected evaluation failure for {program.name!r} "
            f"(bucket {bucket})"
        )
    return _evaluate_one((program, metric, machine))


class FlakyEvaluator(Evaluator):
    """Evaluator whose workers fail/hang on a deterministic schedule.

    ``fail_pct`` percent of candidates raise; ``hang_pct`` percent
    sleep for ``hang_seconds`` (long enough to trip ``eval_timeout``).
    """

    worker_fn = staticmethod(_flaky_evaluate_one)

    def __init__(
        self,
        *args,
        fail_pct: int = 10,
        hang_pct: int = 2,
        hang_seconds: float = 30.0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.fail_pct = fail_pct
        self.hang_pct = hang_pct
        self.hang_seconds = hang_seconds

    def _jobs(self, programs):
        return [
            (
                program,
                self.metric,
                self.machine,
                self.fail_pct,
                self.hang_pct,
                self.hang_seconds,
            )
            for program in programs
        ]

    def expected_faulty(self, programs):
        """Names this schedule will fail or hang, for assertions."""
        return [
            p.name
            for p in programs
            if fault_bucket(p.name) < self.hang_pct + self.fail_pct
        ]


def _transient_evaluate_one(args):
    """Worker that fails the first ``fail_attempts`` tries per
    candidate, using marker files to count attempts across processes."""
    program, metric, machine, marker_dir, fail_attempts = args
    marker = os.path.join(
        marker_dir, program.name.replace(os.sep, "_") + ".attempts"
    )
    try:
        with open(marker) as stream:
            seen = int(stream.read() or 0)
    except OSError:
        seen = 0
    if seen < fail_attempts:
        with open(marker, "w") as stream:
            stream.write(str(seen + 1))
        raise RuntimeError(
            f"injected transient failure #{seen + 1} for {program.name!r}"
        )
    return _evaluate_one((program, metric, machine))


class TransientEvaluator(Evaluator):
    """Evaluator whose every candidate fails its first
    ``fail_attempts`` evaluations, then succeeds — exercises the
    retry-with-backoff path."""

    worker_fn = staticmethod(_transient_evaluate_one)

    def __init__(self, *args, marker_dir: str, fail_attempts: int = 1,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.marker_dir = marker_dir
        self.fail_attempts = fail_attempts

    def _jobs(self, programs):
        return [
            (
                program,
                self.metric,
                self.machine,
                self.marker_dir,
                self.fail_attempts,
            )
            for program in programs
        ]


def _slow_evaluate_one(args):
    program, metric, machine, delay = args
    time.sleep(delay)
    return _evaluate_one((program, metric, machine))


class SlowEvaluator(Evaluator):
    """Evaluator double that sleeps before every evaluation —
    turns the host it runs on into a straggler."""

    worker_fn = staticmethod(_slow_evaluate_one)

    def __init__(self, *args, delay: float = 5.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def _jobs(self, programs):
        return [
            (program, self.metric, self.machine, self.delay)
            for program in programs
        ]


def slow_factory(delay):
    """A ``WorkerServer`` evaluator factory making that host slow."""
    def factory(spec, slots, eval_timeout, max_retries):
        return SlowEvaluator(
            spec.metric, spec.machine, workers=slots,
            eval_timeout=eval_timeout, max_retries=max_retries,
            delay=delay,
        )
    return factory
