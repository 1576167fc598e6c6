"""Output checks: every round must pass them before its figures count.

Each check compares the campaign's outputs against an independent
computation or a property the method must have, never against a
stored copy.  The ``check_*`` functions take plain values so a test
can plant a wrong one; :func:`verify_round` computes the independent
values and applies them all.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.analysis.screen import static_bound
from repro.core import EvaluatedProgram, TargetSpec
from repro.explain import decode_fault, decode_program, render_witness_json
from repro.faults.injector import FaultInjector
from repro.faults.outcomes import InjectionResult
from repro.isa.program import Program
from repro.sim.config import MachineConfig
from repro.sim.cosim import golden_run

from campaignbench.campaign import RoundResult

#: Faults of each campaign re-injected by the injector-state check.
REINJECT_SAMPLE = 4


class CheckFailure(Exception):
    """A campaign output failed an output check."""


def check_graded(graded: int, evaluations: int, expected: int) -> None:
    """Every candidate handed to the evaluator is counted once by the
    evaluator's own health record, and the loop graded one full
    population per generation."""
    if not graded == evaluations == expected:
        raise CheckFailure(
            f"graded {graded} candidates, evaluator counted "
            f"{evaluations}, expected {expected}"
        )


def check_regrade(
    entry: EvaluatedProgram, fitness: float, total_cycles: int
) -> None:
    """The loop's grade equals a direct ``golden_run`` + metric grade
    exactly; ``total_cycles`` too wherever the candidate was simulated
    (a screened candidate records 0 cycles)."""
    if fitness != entry.fitness:
        raise CheckFailure(
            f"{entry.name}: loop fitness {entry.fitness!r} != "
            f"re-graded {fitness!r}"
        )
    if entry.total_cycles and entry.total_cycles != total_cycles:
        raise CheckFailure(
            f"{entry.name}: loop cycles {entry.total_cycles} != "
            f"re-simulated {total_cycles}"
        )


def check_elitism(best_per_generation: Sequence[float]) -> None:
    """Elitism: the best fitness never falls between generations."""
    for generation in range(1, len(best_per_generation)):
        before = best_per_generation[generation - 1]
        after = best_per_generation[generation]
        if after < before:
            raise CheckFailure(
                f"best fitness fell from {before!r} to {after!r} at "
                f"generation {generation}"
            )


def check_static_bound(
    name: str, fitness: float, bound: Optional[float]
) -> None:
    """``0 <= fitness <= static_bound`` (with the evaluator's own
    oracle tolerance of 1e-9 above the bound)."""
    if bound is None:
        raise CheckFailure(f"{name}: the metric has no static bound")
    if not 0.0 <= fitness <= bound + 1e-9:
        raise CheckFailure(
            f"{name}: fitness {fitness!r} outside [0, {bound!r}]"
        )


def check_cycle_bound(
    name: str, total_cycles: int, dynamic: int, commit_width: int
) -> None:
    """A core that commits at most ``commit_width`` instructions per
    cycle needs at least ``dynamic / commit_width`` cycles."""
    if total_cycles * commit_width < dynamic:
        raise CheckFailure(
            f"{name}: {total_cycles} cycles cannot commit {dynamic} "
            f"instructions at width {commit_width}"
        )


def check_reinjection(
    campaign: InjectionResult, fresh: InjectionResult
) -> None:
    """A fault re-injected alone into a fresh injector gets the verdict
    it got inside the campaign."""
    if (campaign.outcome, campaign.crash_kind) != (
        fresh.outcome, fresh.crash_kind
    ):
        raise CheckFailure(
            f"{campaign.fault}: campaign verdict "
            f"{campaign.outcome.value}/{campaign.crash_kind} but alone "
            f"{fresh.outcome.value}/{fresh.crash_kind}"
        )


def check_witness(
    payload: dict, original: Program, machine: MachineConfig
) -> None:
    """A witness rebuilt through the public JSON codec re-detects its
    fault with the same outcome in a fresh golden run and injector,
    and is no longer than the program it came from."""
    program = decode_program(payload["minimized"])
    fault = decode_fault(payload["fault"])
    if payload["original"]["name"] != original.name:
        raise CheckFailure(
            f"witness of {payload['original']['name']} filed under "
            f"{original.name}"
        )
    if len(program) > len(original):
        raise CheckFailure(
            f"witness has {len(program)} instructions, its program "
            f"{len(original)}"
        )
    golden = golden_run(program, machine)
    if golden.crashed:
        raise CheckFailure("witness crashes fault-free")
    fresh = FaultInjector(golden).inject(fault)
    if (fresh.outcome.value, fresh.crash_kind) != (
        payload["outcome"], payload["crash_kind"]
    ):
        raise CheckFailure(
            f"witness for {fault} expects {payload['outcome']}/"
            f"{payload['crash_kind']} but re-detects "
            f"{fresh.outcome.value}/{fresh.crash_kind}"
        )


def check_same_outputs(reference, other, what: str) -> None:
    """Two rounds of one seed report identical elite fitnesses and
    campaign verdict counts (tracing, or a repeat, changes nothing)."""
    if reference != other:
        raise CheckFailure(f"{what}: {other!r} != {reference!r}")


def _sample(injections: Sequence[InjectionResult]):
    step = max(1, len(injections) // REINJECT_SAMPLE)
    return injections[::step][:REINJECT_SAMPLE]


def verify_round(
    target: TargetSpec, rnd: RoundResult, generations: int
) -> None:
    """Apply every output check to one round; raises CheckFailure."""
    machine = target.machine
    check_graded(
        rnd.graded,
        rnd.loop.health.evaluations,
        target.loop.population * generations,
    )
    check_elitism(rnd.loop.fitness_curve())
    for entry in rnd.loop.best:
        golden = golden_run(entry.program, machine)
        check_regrade(entry, target.metric(golden), golden.total_cycles)
        check_static_bound(
            entry.name,
            entry.fitness,
            static_bound(entry.program, target.metric, machine),
        )
        if entry.total_cycles:
            check_cycle_bound(
                entry.name,
                entry.total_cycles,
                golden.result.dynamic_count,
                golden.schedule.machine.core.commit_width,
            )
        for campaign in rnd.campaigns:
            if campaign.entry is not entry or campaign.report is None:
                continue
            for result in _sample(campaign.report.injections):
                check_reinjection(
                    result, FaultInjector(golden).inject(result.fault)
                )
    for witness in rnd.witnesses:
        check_witness(
            json.loads(render_witness_json(witness)),
            rnd.campaigns[0].entry.program,
            machine,
        )
