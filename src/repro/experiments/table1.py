"""Table I — single loop-step duration breakdown.

One Harpocrates loop iteration runs through ``Manager.run_loop`` and
its stages are read off the loop's own observability phases: Mutation
(``mutate``), Generation (``generate``) and Evaluation (``evaluate``).
The paper reports 13.35 s for 96 programs of 5K instructions on 96
threads; at the scaled preset the absolute numbers shrink but the
*structure* — mutation nearly free next to generation and evaluation —
is the reproduced shape, and the derived instructions/second feeds the
§VI-A throughput comparison.  The paper's Compilation column has no
counterpart: its programs pass through a C compiler, while this loop
hands instructions straight to the simulator, so no stage compiles.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace

from repro import obs
from repro.core.checkpoint import LoopCheckpoint, decode_member
from repro.core.manager import Manager
from repro.core.targets import scaled_targets
from repro.experiments.presets import DEFAULT, ExperimentScale
from repro.util.tables import format_table


@dataclass(frozen=True)
class LoopStep:
    """Stage seconds of one loop iteration (Table I)."""

    mutation_seconds: float
    generation_seconds: float
    evaluation_seconds: float
    #: The offspring the step generated and their static instructions.
    programs: int
    instructions: int

    @property
    def total_seconds(self) -> float:
        return (
            self.mutation_seconds
            + self.generation_seconds
            + self.evaluation_seconds
        )

    @property
    def instructions_per_second(self) -> float:
        """Generated-and-evaluated instruction throughput (§VI-A)."""
        if self.total_seconds == 0:
            return 0.0
        return self.instructions / self.total_seconds


def time_loop_step(manager: Manager) -> LoopStep:
    """Run one loop iteration and read its stage seconds off the loop's
    ``mutate`` / ``generate`` / ``evaluate`` phases.

    The iteration is checkpointed into a throwaway directory: a
    checkpointed loop builds the next generation even on its last
    iteration, so the one iteration covers a whole step (evaluate the
    population, mutate the survivors, generate their offspring).  The
    instructions counted are the offspring's — the checkpointed
    population after its carried survivors — as only they were
    generated in the step.  Observability is switched on only if it is
    off, and off again after; the registry is never reset, since the
    stage seconds are differences.
    """
    was_enabled = obs.enabled()
    obs.enable()
    try:
        before = obs.phase_times()
        with tempfile.TemporaryDirectory() as directory:
            result = manager.run_loop(iterations=1, checkpoint_dir=directory)
            checkpoint = LoopCheckpoint.load(directory)
        after = obs.phase_times()
    finally:
        if not was_enabled:
            obs.disable()

    def spent(phase: str) -> float:
        return after.get(phase, 0.0) - before.get(phase, 0.0)

    offspring = [
        decode_member(dict(record))
        for record in checkpoint.population[len(result.best):]
    ]
    return LoopStep(
        mutation_seconds=spent("mutate"),
        generation_seconds=spent("generate"),
        evaluation_seconds=spent("evaluate"),
        programs=len(offspring),
        instructions=sum(len(program) for program in offspring),
    )


@dataclass
class Table1Result:
    step: LoopStep

    def render(self) -> str:
        step = self.step
        rows = [
            [
                f"{step.mutation_seconds:.3f}s",
                f"{step.generation_seconds:.3f}s",
                f"{step.evaluation_seconds:.3f}s",
                f"{step.total_seconds:.3f}s",
            ]
        ]
        table = format_table(
            ["Mutation", "Generation", "Evaluation", "Total"],
            rows,
            title=(
                "Table I — Harpocrates single loop step duration "
                f"({step.programs} programs, "
                f"{step.instructions} instructions generated)"
            ),
        )
        return table + (
            f"\nThroughput: {step.instructions_per_second:,.0f} "
            "generated-and-evaluated instructions/second"
        )


def run(scale: ExperimentScale = DEFAULT, target_key: str = "int_adder",
        workers: int = 1) -> Table1Result:
    """Time one loop step of the given target at the given scale; the
    scale's seed picks the initial population and the step's draws."""
    target = scaled_targets(
        program_scale=scale.program_scale, loop_scale=scale.loop_scale
    )[target_key]
    target = replace(target, loop=replace(target.loop, seed=scale.seed))
    manager = Manager(target, workers=workers)
    try:
        return Table1Result(step=time_loop_step(manager))
    finally:
        manager.close()
