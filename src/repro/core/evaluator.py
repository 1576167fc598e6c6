"""The Evaluator component: hardware-in-the-loop grading (paper §IV-A).

"Acting as the driving force of the system, the Evaluator assesses all
generated programs against a predefined metric ... programs that
perform best under this metric (fittest) are retained for subsequent
mutation iterations."

Each program is co-simulated once on the detailed machine model
(:func:`repro.sim.cosim.golden_run` — the gem5 stand-in) and scored by
the target structure's coverage metric.  Evaluation of a generation is
an embarrassingly parallel map, mirroring the paper's 96-thread setup.

The campaign-scale requirement (§VI-B1 runs thousands of generations)
is failure isolation: a candidate whose evaluation raises, hangs, or
kills its worker is *quarantined* — it receives the sentinel fitness
:data:`QUARANTINE_FITNESS` and an ``error_kind`` tag instead of taking
the whole run down.  Every failure is tallied in an :class:`EvalHealth`
record so degradation stays observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.analysis.screen import bound_can_be_zero, static_bound
from repro.core.errors import StaticOracleError
from repro.core.evalcache import (
    EvaluationCache,
    evaluation_context,
    program_digest,
)
from repro.coverage.metrics import CoverageMetric
from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.sim.cosim import golden_run
from repro.util.parallel import (
    STATUS_CRASHED,
    STATUS_TIMED_OUT,
    ResilientPool,
    TaskOutcome,
)

#: Fitness assigned to quarantined candidates.  Finite (so population
#: statistics stay meaningful) but below any legitimate coverage value
#: (metrics are non-negative), guaranteeing quarantined programs rank
#: last and are only ever selected from an otherwise-empty pool.
QUARANTINE_FITNESS = -1.0


@dataclass
class EvaluatedProgram:
    """A program with its fitness under the target metric."""

    program: Program
    fitness: float
    total_cycles: int
    crashed: bool
    #: ``None`` for healthy evaluations; otherwise the stable error
    #: kind ("timeout", "worker_crash", "candidate_error", ...) that
    #: sent this candidate to quarantine.
    error_kind: Optional[str] = None
    #: Evaluation attempts spent on this candidate (1 = first try).
    attempts: int = 1

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def quarantined(self) -> bool:
        return self.error_kind is not None


@dataclass
class EvalHealth:
    """Aggregate failure/degradation telemetry for a run.

    Attached to :class:`repro.core.loop.LoopResult` as ``health`` and
    serialized into checkpoints, so an operator can always answer "how
    sick was this campaign?".
    """

    evaluations: int = 0
    #: Of those, candidates served from the evaluation cache (no
    #: simulation ran).  In-memory telemetry only: deliberately absent
    #: from :meth:`as_dict` and :meth:`summary`, so checkpoints and the
    #: stdout digest stay byte-identical whether the cache is on or
    #: off — operators read the saved work off the
    #: ``repro_eval_cache_*`` obs series instead.
    cache_hits: int = 0
    #: Candidates scored without simulating because the static
    #: analyzer proved their coverage bound is zero.  Like
    #: ``cache_hits``, deliberately absent from :meth:`as_dict` and
    #: :meth:`summary` so checkpoints and stdout stay byte-identical
    #: with screening on or off — operators read the saved work off
    #: the ``repro_static_screen_skips_total`` obs series.
    static_skips: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    #: Error counts keyed by stable kind string.
    errors: Dict[str, int] = field(default_factory=dict)
    #: Names of quarantined programs, in quarantine order.
    quarantined: List[str] = field(default_factory=list)
    #: Tasks that ran in-process after the pool degraded.
    fallback_inline: int = 0
    #: Process-pool reconstructions performed.
    pool_respawns: int = 0
    #: Distributed-fleet telemetry (all zero for single-host runs):
    #: worker hosts declared dead during the run, ...
    workers_lost: int = 0
    #: ... their in-flight tasks re-dispatched to survivors, and ...
    redispatched: int = 0
    #: ... straggler tasks speculatively duplicated by idle workers.
    stolen: int = 0

    def record_error(self, kind: str) -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def merge(self, other: "EvalHealth") -> "EvalHealth":
        """Fold ``other`` into this record and return ``self``.

        Counters add, error-kind tallies union additively, and the
        quarantine list concatenates preserving ``other``'s order — so
        merging a sequence of deltas in a fixed order yields a stable
        quarantine order (the distributed coordinator relies on this).
        """
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.static_skips += other.static_skips
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.worker_crashes += other.worker_crashes
        for kind, count in other.errors.items():
            self.errors[kind] = self.errors.get(kind, 0) + count
        self.quarantined.extend(other.quarantined)
        self.fallback_inline += other.fallback_inline
        self.pool_respawns += other.pool_respawns
        self.workers_lost += other.workers_lost
        self.redispatched += other.redispatched
        self.stolen += other.stolen
        return self

    @property
    def total_errors(self) -> int:
        return sum(self.errors.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "evaluations": self.evaluations,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "errors": dict(self.errors),
            "quarantined": list(self.quarantined),
            "fallback_inline": self.fallback_inline,
            "pool_respawns": self.pool_respawns,
            "workers_lost": self.workers_lost,
            "redispatched": self.redispatched,
            "stolen": self.stolen,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EvalHealth":
        health = cls()
        health.evaluations = int(data.get("evaluations", 0))
        health.retries = int(data.get("retries", 0))
        health.timeouts = int(data.get("timeouts", 0))
        health.worker_crashes = int(data.get("worker_crashes", 0))
        health.errors = {
            str(k): int(v) for k, v in dict(data.get("errors", {})).items()
        }
        health.quarantined = [str(n) for n in data.get("quarantined", [])]
        health.fallback_inline = int(data.get("fallback_inline", 0))
        health.pool_respawns = int(data.get("pool_respawns", 0))
        health.workers_lost = int(data.get("workers_lost", 0))
        health.redispatched = int(data.get("redispatched", 0))
        health.stolen = int(data.get("stolen", 0))
        return health

    def summary(self) -> str:
        """One-line operator-facing digest."""
        text = (
            f"evaluations={self.evaluations} errors={self.total_errors} "
            f"timeouts={self.timeouts} worker_crashes={self.worker_crashes} "
            f"retries={self.retries} quarantined={len(self.quarantined)} "
            f"respawns={self.pool_respawns}"
        )
        if self.fallback_inline:
            text += f" fallback_inline={self.fallback_inline}"
        if self.workers_lost or self.redispatched or self.stolen:
            text += (
                f" workers_lost={self.workers_lost} "
                f"redispatched={self.redispatched} stolen={self.stolen}"
            )
        return text


#: Phases a grade's layer seconds are charged to, in tuple order.
LAYER_PHASES = ("sim_functional", "sim_timing", "coverage_metric")


def _evaluate_one(args) -> tuple:
    """Module-level worker (picklable for process pools).

    Returns the lean grade ``(fitness, total_cycles, crashed, seconds)``
    where ``seconds`` times the functional pass, the timing pass and
    the metric (see :data:`LAYER_PHASES`).  The program does not travel
    back: the caller reattaches its own.

    Architectural crashes are legitimate program outcomes: the
    functional simulator records them on the golden run, which grades
    ``crashed=True`` (metrics score a crashed run 0).  Any exception
    propagates to the pool layer, which quarantines the candidate.
    """
    program, metric, machine = args
    golden = golden_run(program, machine)
    started = time.perf_counter()
    fitness = metric(golden)
    seconds = (
        golden.functional_s, golden.timing_s,
        time.perf_counter() - started,
    )
    return fitness, golden.total_cycles, golden.crashed, seconds


class Evaluator:
    """Grades populations with a structure-specific coverage metric.

    ``eval_timeout`` (seconds) bounds each candidate's wall-clock
    co-simulation; ``max_retries`` grants extra attempts to transiently
    failing evaluations.  Both are inert in the fast in-process path
    used by small runs (``workers <= 1`` and no timeout).

    ``cache`` (an :class:`~repro.core.evalcache.EvaluationCache`)
    enables content-addressed result reuse: every :meth:`evaluate`
    consults it first and only misses reach a simulator.  Cache hits
    still count into ``health.evaluations`` (the "candidates graded"
    meaning is unchanged) and additionally into ``health.cache_hits``,
    so cached and uncached runs report identical health digests.
    """

    #: The picklable per-candidate worker, returning
    #: :func:`_evaluate_one`'s lean grade.  Subclasses (e.g. fault-
    #: injecting test doubles) may override it together with ``_jobs``;
    #: it must stay a module-level function so process pools can ship
    #: it to workers.
    worker_fn = staticmethod(_evaluate_one)

    def __init__(
        self,
        metric: CoverageMetric,
        machine: MachineConfig = DEFAULT_MACHINE,
        workers: int = 1,
        eval_timeout: Optional[float] = None,
        max_retries: int = 0,
        cache: Optional[EvaluationCache] = None,
        static_screen: bool = True,
        paranoid: bool = False,
    ):
        self.metric = metric
        self.machine = machine
        self.workers = workers
        self.eval_timeout = eval_timeout
        self.max_retries = max_retries
        self.cache = cache
        self.static_screen = static_screen
        self.paranoid = paranoid
        # Decided once per metric: a screen whose bound is never zero
        # (IRF, unbounded metrics) can never skip, so only the paranoid
        # oracle still needs the bound.
        self._needs_bound = paranoid or (
            static_screen and bound_can_be_zero(metric)
        )
        self._cache_context: Optional[bytes] = None
        self._health = EvalHealth()
        # One ResilientPool per evaluator lifetime: worker processes
        # spawn once per campaign, not once per generation (respawn-on-
        # breakage still applies inside the pool).
        self._pool: Optional[ResilientPool] = None
        self._pool_respawns_seen = 0

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_respawns_seen = 0

    # -- health ------------------------------------------------------------

    @property
    def health(self) -> EvalHealth:
        """Telemetry accumulated since construction (or last take)."""
        return self._health

    def take_health(self) -> EvalHealth:
        """Return the accumulated telemetry and reset the counter.

        The loop calls this once per iteration to fold evaluator
        telemetry into the run-level health record."""
        taken, self._health = self._health, EvalHealth()
        return taken

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, programs: Sequence[Program]
    ) -> List[EvaluatedProgram]:
        """Grade every program; result order matches input order.

        Never raises for a candidate failure: misbehaving programs come
        back quarantined with :data:`QUARANTINE_FITNESS`.

        With ``static_screen`` enabled (the default) and a metric
        whose bound can be zero, every candidate is first run through
        the simulation-free static analyzer
        (:mod:`repro.analysis.screen`): candidates whose static
        coverage upper bound is exactly zero are scored ``0.0``
        without simulating or consulting the cache.  A screened
        candidate is indistinguishable in campaign output from a
        simulated zero — same fitness, same (stable-sort) ranking
        position, same health digest — and is tallied in
        ``health.static_skips`` + ``repro_static_screen_skips_total``.

        With ``paranoid`` enabled, every graded (non-quarantined)
        result is differentially checked against its static bound and
        a violation raises :class:`StaticOracleError` loudly — a
        standing sanitizer for both the analyzer and the simulator.
        """
        programs = list(programs)
        if not programs or not self._needs_bound:
            return self._evaluate_cached(programs)
        bounds = [
            static_bound(program, self.metric, self.machine)
            for program in programs
        ]
        results: List[Optional[EvaluatedProgram]] = [None] * len(programs)
        simulate_indices: List[int] = []
        for index, bound in enumerate(bounds):
            if self.static_screen and bound == 0.0:
                results[index] = EvaluatedProgram(
                    program=programs[index],
                    fitness=0.0,
                    total_cycles=0,
                    crashed=False,
                )
            else:
                simulate_indices.append(index)
        skipped = len(programs) - len(simulate_indices)
        if skipped:
            self._health.evaluations += skipped
            self._health.static_skips += skipped
            obs.inc(
                "repro_evaluations_total",
                skipped,
                "Candidate evaluations requested",
            )
            obs.inc(
                "repro_static_screen_skips_total",
                skipped,
                "Simulations skipped by the zero-bound static screen",
            )
        if simulate_indices:
            graded = self._evaluate_cached(
                [programs[index] for index in simulate_indices]
            )
            for spot, evaluated in zip(simulate_indices, graded):
                if self.paranoid:
                    self._oracle_check(evaluated, bounds[spot])
                results[spot] = evaluated
        return [entry for entry in results if entry is not None]

    def _oracle_check(
        self, evaluated: EvaluatedProgram, bound: Optional[float]
    ) -> None:
        """Paranoid differential oracle: dynamic score <= static bound.

        Runs in the parent process on the returned record so it covers
        every execution substrate uniformly — inline, local pool,
        distributed fleet, and cache hits.  Quarantined candidates are
        exempt (their sentinel fitness is not a coverage value)."""
        if bound is None or evaluated.error_kind is not None:
            return
        if evaluated.fitness > bound + 1e-9:
            raise StaticOracleError(
                program_name=evaluated.program.name,
                metric_name=self.metric.name,
                fitness=evaluated.fitness,
                bound=bound,
            )

    def _evaluate_cached(
        self, programs: List[Program]
    ) -> List[EvaluatedProgram]:
        """The cache layer below screening.

        With a cache attached, known programs are served without
        simulating and only the misses are dispatched (inline, to the
        local pool, or across the fleet — whichever backend
        :meth:`_evaluate_uncached` provides); results scatter back into
        input order.  A hit reproduces the fresh record exactly, except
        that ``attempts`` is normalized to 1."""
        if self.cache is None or not programs:
            return self._evaluate_uncached(programs)
        context = self._context()
        digests = [
            program_digest(program, context) for program in programs
        ]
        results: List[Optional[EvaluatedProgram]] = [None] * len(programs)
        miss_indices: List[int] = []
        for index, digest in enumerate(digests):
            hit = self.cache.get(digest)
            if hit is None:
                miss_indices.append(index)
                continue
            fitness, total_cycles, crashed = hit
            results[index] = EvaluatedProgram(
                program=programs[index],
                fitness=fitness,
                total_cycles=total_cycles,
                crashed=crashed,
            )
        hits = len(programs) - len(miss_indices)
        if hits:
            self._health.evaluations += hits
            self._health.cache_hits += hits
            obs.inc(
                "repro_evaluations_total",
                hits,
                "Candidate evaluations requested",
            )
            obs.inc(
                "repro_eval_cache_hits_total",
                hits,
                "Evaluations served from the result cache",
            )
        if miss_indices:
            obs.inc(
                "repro_eval_cache_misses_total",
                len(miss_indices),
                "Evaluations that required a simulation",
            )
            missed = self._evaluate_uncached(
                [programs[index] for index in miss_indices]
            )
            for spot, evaluated in zip(miss_indices, missed):
                results[spot] = evaluated
                # Only deterministic outcomes are worth remembering:
                # quarantines (timeouts, crashes of the *worker*, ...)
                # may be transient and must re-evaluate next time.
                if evaluated.error_kind is None:
                    self.cache.put(
                        digests[spot],
                        evaluated.fitness,
                        evaluated.total_cycles,
                        evaluated.crashed,
                    )
        if obs.enabled():
            obs.set_gauge(
                "repro_eval_cache_size",
                float(len(self.cache)),
                "Entries currently held by the evaluation cache",
            )
        return [entry for entry in results if entry is not None]

    def _evaluate_uncached(
        self, programs: Sequence[Program]
    ) -> List[EvaluatedProgram]:
        """The simulation backend: grade every program, no cache.

        Subclasses that replace the execution substrate (e.g. the
        distributed evaluator) override this, keeping the cache lookup
        in :meth:`evaluate` common to every backend."""
        jobs = self._jobs(programs)
        self._health.evaluations += len(jobs)
        obs.inc(
            "repro_evaluations_total",
            len(jobs),
            "Candidate evaluations requested",
        )
        if self.workers <= 1 and self.eval_timeout is None:
            return [self._evaluate_inline(job) for job in jobs]
        pool = self._ensure_pool()
        outcomes = pool.map(self.worker_fn, jobs)
        self._health.pool_respawns += pool.respawns - \
            self._pool_respawns_seen
        self._pool_respawns_seen = pool.respawns
        return [
            self._from_outcome(outcome, programs[outcome.index])
            for outcome in outcomes
        ]

    def rank(
        self, programs: Sequence[Program]
    ) -> List[EvaluatedProgram]:
        """Grade and sort best-first (loop step 1's ranking)."""
        evaluated = self.evaluate(programs)
        evaluated.sort(key=lambda entry: entry.fitness, reverse=True)
        return evaluated

    # -- internals ---------------------------------------------------------

    def _context(self) -> bytes:
        """The digest prefix for this (metric, machine), computed once."""
        if self._cache_context is None:
            self._cache_context = evaluation_context(
                self.metric, self.machine
            )
        return self._cache_context

    def _ensure_pool(self) -> ResilientPool:
        """The campaign-lifetime pool, spawned on first parallel use."""
        if self._pool is None:
            self._pool = ResilientPool(
                workers=self.workers,
                timeout=self.eval_timeout,
                max_retries=self.max_retries,
            )
            self._pool_respawns_seen = 0
        return self._pool

    def _jobs(self, programs: Sequence[Program]) -> List[tuple]:
        """One picklable argument tuple per candidate; the first
        element must be the program (reattached to its grade, and named
        in quarantine records)."""
        return [
            (program, self.metric, self.machine) for program in programs
        ]

    def _evaluate_inline(self, job) -> EvaluatedProgram:
        program = job[0]
        started = time.perf_counter()
        try:
            grade = self.worker_fn(job)
        except Exception as exc:
            return self._quarantine(
                program,
                kind="candidate_error",
                attempts=1,
                detail=f"{type(exc).__name__}: {exc}",
            )
        finally:
            if obs.enabled():
                obs.observe(
                    "repro_eval_seconds",
                    time.perf_counter() - started,
                    "Per-candidate evaluation wall-clock",
                )
        return self._graded(program, grade, attempts=1)

    @staticmethod
    def _graded(program: Program, grade, attempts: int) -> EvaluatedProgram:
        """Reattach the caller's own program to a worker's lean grade,
        charging the grade's layer seconds to their phases."""
        fitness, total_cycles, crashed, seconds = grade
        if obs.enabled():
            for phase, phase_seconds in zip(LAYER_PHASES, seconds):
                obs.add_phase_time(phase, phase_seconds)
        return EvaluatedProgram(
            program=program,
            fitness=fitness,
            total_cycles=total_cycles,
            crashed=crashed,
            attempts=attempts,
        )

    def _from_outcome(
        self, outcome: TaskOutcome, program: Program
    ) -> EvaluatedProgram:
        self._health.retries += max(0, outcome.attempts - 1)
        if obs.enabled():
            obs.observe(
                "repro_eval_seconds",
                outcome.duration,
                "Per-candidate evaluation wall-clock",
            )
        if outcome.where == "inline":
            self._health.fallback_inline += 1
        if outcome.ok:
            return self._graded(program, outcome.value, outcome.attempts)
        if outcome.status == STATUS_TIMED_OUT:
            self._health.timeouts += 1
            kind = "timeout"
        elif outcome.status == STATUS_CRASHED:
            self._health.worker_crashes += 1
            kind = "worker_crash"
        else:
            kind = "candidate_error"
        detail = outcome.error or ""
        if outcome.error_type:
            detail = f"{outcome.error_type}: {detail}"
        return self._quarantine(
            program, kind=kind, attempts=outcome.attempts, detail=detail
        )

    def _quarantine(
        self, program: Program, kind: str, attempts: int, detail: str
    ) -> EvaluatedProgram:
        self._health.record_error(kind)
        self._health.quarantined.append(program.name)
        obs.inc(
            "repro_quarantined_total",
            help_text="Candidates quarantined, by error kind",
            kind=kind,
        )
        return EvaluatedProgram(
            program=program,
            fitness=QUARANTINE_FITNESS,
            total_cycles=0,
            crashed=False,
            error_kind=kind,
            attempts=attempts,
        )
