""":class:`DistributedEvaluator` — the drop-in fleet-backed Evaluator.

Subclasses the local :class:`~repro.core.evaluator.Evaluator`, so the
loop, the manager, and the experiment harness need no changes: select
it by config and every generation is sharded across the fleet by the
:class:`~repro.dist.coordinator.Coordinator`.  Degradation is layered —

1. tasks a dead worker leaves behind are re-dispatched to survivors,
2. tasks unfinished when the whole fleet is gone run on the local
   :class:`~repro.util.parallel.ResilientPool` (the inherited path),
3. when no worker is reachable at all, the entire generation runs
   locally — a campaign started with an empty fleet behaves exactly
   like a single-host run.

Every path preserves submission order, so distributed and local runs
rank identically for the same seed.  When an
:class:`~repro.core.evalcache.EvaluationCache` is attached, lookups
happen *coordinator-side* (in the inherited ``evaluate``) before any
sharding — cached candidates never cross the wire.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import EvaluatedProgram, Evaluator
from repro.coverage.metrics import CoverageMetric
from repro.dist.coordinator import Coordinator
from repro.isa.encoding import program_record
from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig

logger = logging.getLogger("repro.dist")


class DistributedEvaluator(Evaluator):
    """Grades populations across a fleet of ``repro-worker`` hosts.

    ``metric``/``machine`` plus the local ``workers``/``eval_timeout``/
    ``max_retries`` configure the *fallback* path (inherited); the
    fleet is described by ``endpoints`` plus the target registry
    coordinates (``target_key``, ``program_scale``, ``loop_scale``,
    ``paper``) each worker uses to rebuild the identical
    metric/machine locally — only JSON crosses the wire.
    """

    def __init__(
        self,
        metric: CoverageMetric,
        machine: MachineConfig = DEFAULT_MACHINE,
        workers: int = 1,
        eval_timeout: Optional[float] = None,
        max_retries: int = 0,
        cache: Optional[EvaluationCache] = None,
        *,
        endpoints: Sequence[Tuple[str, int]],
        target_key: str,
        program_scale: float,
        loop_scale: float,
        paper: bool = False,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
        connect_timeout: float = 5.0,
        steal: bool = True,
        steal_delay: float = 1.0,
        fleet_listen: Optional[Tuple[str, int]] = None,
        breaker_threshold: int = 5,
        static_screen: bool = True,
        paranoid: bool = False,
    ):
        super().__init__(
            metric,
            machine,
            workers=workers,
            eval_timeout=eval_timeout,
            max_retries=max_retries,
            cache=cache,
            static_screen=static_screen,
            paranoid=paranoid,
        )
        self.coordinator = Coordinator(
            endpoints,
            target_key=target_key,
            program_scale=program_scale,
            loop_scale=loop_scale,
            paper=paper,
            eval_timeout=eval_timeout,
            max_retries=max_retries,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
            connect_timeout=connect_timeout,
            steal=steal,
            steal_delay=steal_delay,
        )
        if fleet_listen is not None:
            host, port = fleet_listen
            self.fleet_listen_port: Optional[int] = \
                self.coordinator.start_registry(host=host, port=port)
        else:
            self.fleet_listen_port = None
        #: Consecutive fleet-wide failures before the breaker trips to
        #: permanent local evaluation (<= 0 disables the breaker).
        self.breaker_threshold = int(breaker_threshold)
        self._breaker_failures = 0
        self._breaker_open = False
        self._warned_local = False
        self._gauge_breaker()

    # -- circuit breaker ---------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        """True once the breaker tripped to permanent local fallback."""
        return self._breaker_open

    def _gauge_breaker(self) -> None:
        if obs.enabled():
            obs.set_gauge(
                "repro_dist_breaker_state",
                1.0 if self._breaker_open else 0.0,
                "Distributed-dispatch circuit breaker "
                "(0=closed, 1=open: permanent local fallback)",
            )

    def _breaker_record(self, fleet_worked: bool) -> None:
        if fleet_worked:
            self._breaker_failures = 0
            return
        self._breaker_failures += 1
        if (
            self.breaker_threshold > 0
            and not self._breaker_open
            and self._breaker_failures >= self.breaker_threshold
        ):
            self._breaker_open = True
            logger.warning(
                "distributed dispatch failed fleet-wide %d "
                "consecutive times; circuit breaker open — evaluating "
                "locally for the rest of the campaign",
                self._breaker_failures,
            )
            self._gauge_breaker()

    def _evaluate_uncached(
        self, programs: Sequence[Program]
    ) -> List[EvaluatedProgram]:
        """Shard across the fleet; fall back locally as needed.

        This is the *backend* under the inherited cache-aware
        :meth:`~repro.core.evaluator.Evaluator.evaluate`: with a cache
        attached, the coordinator-side lookup has already filtered out
        known programs, so cached candidates never cross the wire."""
        programs = list(programs)
        if not programs:
            return []
        if self._breaker_open:
            return super()._evaluate_uncached(programs)
        records = [program_record(program) for program in programs]
        with obs.phase("dist_dispatch"):
            outcome = self.coordinator.evaluate(records)
        if outcome is None:
            self._breaker_record(fleet_worked=False)
            if not self._warned_local:
                logger.warning(
                    "no distributed workers reachable; evaluating "
                    "locally (will keep retrying the fleet)"
                )
                self._warned_local = True
            return super()._evaluate_uncached(programs)
        self._warned_local = False
        results, delta = outcome
        # A "successful" dispatch where the fleet finished nothing is
        # still a fleet-wide failure for breaker purposes.
        self._breaker_record(
            fleet_worked=any(record is not None for record in results)
        )
        self._health.merge(delta)
        leftover_indices = [
            index for index, record in enumerate(results)
            if record is None
        ]
        leftovers: List[EvaluatedProgram] = []
        if leftover_indices:
            obs.inc(
                "repro_dist_local_fallback_total",
                len(leftover_indices),
                "Tasks the fleet left behind, evaluated locally",
            )
            # Whatever the fleet could not finish runs on the local
            # resilient pool with full timeout/retry/quarantine
            # semantics (this also updates local health counters).
            # These are already cache misses, so bypass the lookup.
            leftovers = super()._evaluate_uncached(
                [programs[index] for index in leftover_indices]
            )
        by_index = dict(zip(leftover_indices, leftovers))
        evaluated: List[EvaluatedProgram] = []
        for index, record in enumerate(results):
            if record is None:
                evaluated.append(by_index[index])
                continue
            evaluated.append(EvaluatedProgram(
                program=programs[index],
                fitness=float(record["fitness"]),
                total_cycles=int(record["total_cycles"]),
                crashed=bool(record["crashed"]),
                error_kind=record.get("error_kind"),
                attempts=int(record.get("attempts", 1)),
            ))
        return evaluated

    def close(self) -> None:
        """Release the fleet connections (sends orderly shutdowns)."""
        self.coordinator.close()
        super().close()
