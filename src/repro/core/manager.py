"""The Generation and Mutation Manager (paper §V-B2).

The Manager "orchestrates the most common flows in the framework":
configurable constrained-random generation, bulk mutate-and-generate
flows, and the fully wired Harpocrates loop for a target structure.
The loop's stage timing (Table I) is read off its observability phases
(see :mod:`repro.experiments.table1`).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.evalcache import DEFAULT_EVAL_CACHE_SIZE, EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig, LoopResult
from repro.core.mutator import InstructionReplacementMutator, Mutator
from repro.core.targets import TargetSpec
from repro.isa.program import Program


class Manager:
    """Orchestrates generation/mutation/evaluation flows for a target.

    ``worker_endpoints`` (``[(host, port), ...]``) selects the
    distributed evaluation backend: generations are sharded across
    that ``repro-worker`` fleet, falling back to the local pool when
    no worker is reachable.  The fleet rebuilds the target from the
    registry, so ``dist_scales`` must carry the ``(program_scale,
    loop_scale)`` pair the target was built with.

    ``eval_cache_size`` bounds the content-addressed evaluation cache
    consulted before any simulation (elitism survivors hit it every
    generation); ``None`` disables caching entirely.  ``eval_cache``
    (an :class:`~repro.core.evalcache.EvaluationCache` instance) takes
    precedence over ``eval_cache_size`` — the campaign service passes
    one :class:`~repro.core.evalcache.SharedEvaluationCache` to every
    concurrent campaign so tenants share warm entries.

    ``fleet_listen`` (``(host, port)``, distributed only) opens the
    fleet-registration listener so workers started *after* the
    campaign can announce themselves and be admitted into dispatch.
    """

    def __init__(
        self,
        target: TargetSpec,
        workers: int = 1,
        eval_timeout: Optional[float] = None,
        max_retries: int = 0,
        worker_endpoints: Optional[Sequence[Tuple[str, int]]] = None,
        dist_scales: Optional[Tuple[float, float]] = None,
        eval_cache_size: Optional[int] = DEFAULT_EVAL_CACHE_SIZE,
        fleet_listen: Optional[Tuple[str, int]] = None,
        eval_cache: Optional[EvaluationCache] = None,
        static_screen: bool = True,
        paranoid: bool = False,
    ):
        self.target = target
        self.generator = Generator(target.generation)
        if eval_cache is not None:
            cache: Optional[EvaluationCache] = eval_cache
        else:
            cache = (
                EvaluationCache(eval_cache_size)
                if eval_cache_size is not None else None
            )
        if worker_endpoints:
            # Imported lazily: repro.dist imports this package.
            from repro.dist.evaluator import DistributedEvaluator

            if dist_scales is None:
                raise ValueError(
                    "worker_endpoints requires dist_scales — the "
                    "(program_scale, loop_scale) the target was "
                    "scaled with, so the fleet rebuilds it identically"
                )
            self.evaluator: Evaluator = DistributedEvaluator(
                target.metric,
                target.machine,
                workers=workers,
                eval_timeout=eval_timeout,
                max_retries=max_retries,
                cache=cache,
                endpoints=worker_endpoints,
                target_key=target.key,
                program_scale=dist_scales[0],
                loop_scale=dist_scales[1],
                fleet_listen=fleet_listen,
                static_screen=static_screen,
                paranoid=paranoid,
            )
        else:
            self.evaluator = Evaluator(
                target.metric,
                target.machine,
                workers=workers,
                eval_timeout=eval_timeout,
                max_retries=max_retries,
                cache=cache,
                static_screen=static_screen,
                paranoid=paranoid,
            )
        self.mutator: Mutator = InstructionReplacementMutator(
            self.generator.arch, pool_names=target.pool_names
        )

    def close(self) -> None:
        """Release evaluator resources (fleet connections, if any)."""
        close = getattr(self.evaluator, "close", None)
        if close is not None:
            close()

    # -- §V-B2 flows -------------------------------------------------------

    def generate(self, count: int, base_seed: int = 0) -> List[Program]:
        """Flow: configurable constrained-random generation."""
        return self.generator.initial_population(count, base_seed)

    def mutate_and_generate(
        self,
        programs: Sequence[Program],
        mutations_each: int,
        seed: int = 0,
    ) -> List[Program]:
        """Flow: "generate N random programs, randomly mutate each
        sequence M times, generate programs from the mutated
        sequences" (§V-B2)."""
        rng = random.Random(seed)
        offspring: List[Program] = []
        for index, program in enumerate(programs):
            genome = self.generator.genome_of(program)
            for mutation in range(mutations_each):
                mutated = self.mutator.mutate(genome, rng)
                offspring.append(
                    self.generator.realize(
                        mutated,
                        rng.getrandbits(32),
                        name=f"{program.name}_m{mutation}",
                    )
                )
        return offspring

    # -- the full loop -----------------------------------------------------

    def build_loop(
        self, config: Optional[LoopConfig] = None
    ) -> HarpocratesLoop:
        return HarpocratesLoop(
            self.generator,
            self.evaluator,
            self.mutator,
            config if config is not None else self.target.loop,
        )

    def run_loop(
        self,
        iterations: Optional[int] = None,
        on_iteration: Optional[Callable] = None,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str] = None,
        checkpoint_keep: Optional[int] = None,
        checkpoint_milestone_every: int = 0,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> LoopResult:
        return self.build_loop().run(
            iterations,
            on_iteration,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            checkpoint_keep=checkpoint_keep,
            checkpoint_milestone_every=checkpoint_milestone_every,
            stop_check=stop_check,
        )

    # -- explanation ---------------------------------------------------------

    def explain_program(
        self,
        program: Program,
        injections: int,
        seed: int = 0,
        top: int = 1,
        workers: int = 1,
        out_dir: Optional[str] = None,
    ) -> List:
        """Campaign ``program`` and explain its top detections.

        Runs the target's fault campaign against the program's golden
        run, then minimizes + localizes the first ``top`` distinct
        detections into :class:`~repro.explain.report.Witness`
        artifacts (written under ``out_dir`` when given).  Returns an
        empty list when the program crashes fault-free or the campaign
        detects nothing.
        """
        # Imported lazily: repro.explain sits above the core layer.
        from repro.explain import explain_detections
        from repro.sim.cosim import golden_run

        golden = golden_run(program, self.target.machine)
        if golden.crashed:
            return []
        report = self.target.campaign(golden, injections, seed)
        return explain_detections(
            golden,
            report,
            top=top,
            target_key=self.target.key,
            workers=workers,
            out_dir=out_dir,
        )
