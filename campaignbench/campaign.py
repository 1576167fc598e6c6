"""One campaign round, driven and timed from outside the program.

A round is exactly what ``harpocrates loop`` runs for a target: evolve
the population with ``Manager.run_loop``, then run the target's fault
campaign (``target.campaign(golden_run(p), n, seed)``) on every program
of the final elite, then, for workloads that ask for it, explain the
best program's top detections.  Only public calls are made; the
clock laps between them (see :mod:`campaignbench.hostclock`).
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core import EvaluatedProgram, LoopResult, Manager, TargetSpec
from repro.core import scaled_targets
from repro.experiments.presets import DEFAULT, SMOKE
from repro.explain import Witness, explain_detections
from repro.faults.outcomes import DetectionReport
from repro.sim.cosim import golden_run

from campaignbench.hostclock import HostClock
from campaignbench.workloads import Workload

PRESETS = {"smoke": SMOKE, "default": DEFAULT}


def build_target(workload: Workload, seed: int) -> TargetSpec:
    """The workload's target, built as ``harpocrates loop --scale
    PRESET --seed SEED`` builds it (``SEED`` is the loop seed)."""
    scale = PRESETS[workload.preset]
    target = scaled_targets(
        program_scale=scale.program_scale, loop_scale=scale.loop_scale
    )[workload.target]
    return replace(target, loop=replace(target.loop, seed=seed))


def build_manager(workload: Workload, target: TargetSpec) -> Manager:
    return Manager(target, workers=workload.workers)


@dataclass
class ProgramCampaign:
    """The fault campaign on one elite program."""

    entry: EvaluatedProgram
    #: ``None`` when the campaign raised (all its injections failed).
    report: Optional[DetectionReport]
    error: Optional[str] = None


@dataclass
class RoundResult:
    loop: LoopResult
    #: Candidates the loop graded, and their static instructions.
    graded: int
    graded_instructions: int
    injections_per_program: int
    campaigns: List[ProgramCampaign] = field(default_factory=list)
    witnesses: List[Witness] = field(default_factory=list)
    raw_s: Dict[str, float] = field(default_factory=dict)
    norm_s: Dict[str, float] = field(default_factory=dict)
    #: Peak resident memory of the largest pool worker (0 inline).
    worker_rss_mb: float = 0.0

    @property
    def injected(self) -> int:
        return sum(c.report.total for c in self.campaigns if c.report)

    @property
    def detected(self) -> int:
        return sum(c.report.detected for c in self.campaigns if c.report)

    @property
    def attempted(self) -> int:
        return self.graded + self.injections_per_program * len(
            self.campaigns
        )

    @property
    def failed(self) -> int:
        raised = sum(1 for c in self.campaigns if c.report is None)
        return (
            len(self.loop.health.quarantined)
            + raised * self.injections_per_program
        )

    def outputs(self):
        """What must repeat exactly for a given seed: the elite's
        fitnesses and every campaign's verdict counts."""
        return (
            tuple(entry.fitness for entry in self.loop.best),
            tuple(
                (c.report.detected, c.report.total) if c.report else None
                for c in self.campaigns
            ),
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident memory among live child processes."""
    peak_kb = 0
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids = handle.read().split()
        except OSError:
            continue
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except OSError:
                continue
    return peak_kb / 1024.0


def _count_grades(manager: Manager, counts: Dict[str, int]) -> None:
    """Count the candidates (and their static instructions) the loop
    hands to the evaluator, cache hits and screened ones included."""
    evaluator = manager.evaluator
    evaluate = evaluator.evaluate

    def counting(programs):
        programs = list(programs)
        counts["graded"] += len(programs)
        counts["instructions"] += sum(len(p) for p in programs)
        return evaluate(programs)

    evaluator.evaluate = counting


def run_round(
    workload: Workload,
    target: TargetSpec,
    manager: Manager,
    clock: HostClock,
) -> RoundResult:
    """Run one campaign round with ``manager`` (closed on return).

    The fault campaigns use the preset's campaign seed, as
    ``harpocrates loop`` does whatever its ``--seed``."""
    campaign_seed = PRESETS[workload.preset].seed
    counts = {"graded": 0, "instructions": 0}
    _count_grades(manager, counts)
    campaigns: List[ProgramCampaign] = []
    witnesses: List[Witness] = []
    try:
        clock.start()
        loop = manager.run_loop(
            iterations=workload.generations,
            on_iteration=lambda stats, survivors: clock.lap("loop"),
        )
        clock.lap("loop")
        worker_rss = children_peak_rss_mb()
        best_golden = None
        for entry in loop.best:
            golden = golden_run(entry.program, target.machine)
            clock.lap("golden")
            if golden.crashed:
                # As in ``harpocrates loop``: a program that crashes
                # fault-free has no campaign.
                continue
            if best_golden is None:
                best_golden = golden
            try:
                report = target.campaign(
                    golden, workload.injections, campaign_seed
                )
                campaigns.append(ProgramCampaign(entry, report))
            except Exception as exc:  # a raising injection fails it
                campaigns.append(ProgramCampaign(
                    entry, None, f"{type(exc).__name__}: {exc}"
                ))
            clock.lap("inject")
        if workload.explain_top and campaigns and campaigns[0].report:
            witnesses = explain_detections(
                best_golden,
                campaigns[0].report,
                top=workload.explain_top,
                target_key=target.key,
            )
            clock.lap("explain")
    finally:
        manager.close()
    return RoundResult(
        loop=loop,
        graded=counts["graded"],
        graded_instructions=counts["instructions"],
        injections_per_program=workload.injections,
        campaigns=campaigns,
        witnesses=witnesses,
        raw_s=dict(clock.raw),
        norm_s=dict(clock.norm),
        worker_rss_mb=worker_rss,
    )


def campaign_metrics(rounds: List[RoundResult]) -> Dict[str, float]:
    """End-to-end figures over ``rounds`` (normalised seconds): rates
    are totals over totals, ``campaign_s`` the mean per round."""
    loop_s = sum(rnd.norm_s.get("loop", 0.0) for rnd in rounds)
    inject_s = sum(rnd.norm_s.get("inject", 0.0) for rnd in rounds)
    injected = sum(rnd.injected for rnd in rounds)
    instructions = sum(rnd.graded_instructions for rnd in rounds)
    return {
        "campaign_s": sum(
            sum(rnd.norm_s.values()) for rnd in rounds
        ) / len(rounds),
        "loop_instr_per_s": instructions / loop_s if loop_s else 0.0,
        "injections_per_s": injected / inject_s if inject_s else 0.0,
        "detection": (
            sum(rnd.detected for rnd in rounds) / injected
            if injected else 0.0
        ),
    }
