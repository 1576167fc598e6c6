"""Simulation-free candidate screening backed by the static analyzer.

The evaluator consults :func:`static_bound` before paying for a golden
run: when the static upper bound on a candidate's coverage metric is
exactly ``0.0``, the dynamic score is *provably* zero (crashing runs
grade to zero by definition, and :mod:`repro.analysis.static` proves
the non-crashing case), so the candidate can be scored without
simulating.  The skip is invisible in campaign output — screened
candidates receive the same fitness, ranking position (Python's sort
is stable) and health accounting a simulated zero would get — and is
counted separately in ``EvalHealth.static_skips``.

Dispatch is by **exact metric type**: a user-defined subclass of one
of the stock metrics may grade differently, so it never screens.  Each
stock metric pays only for the analysis its bound reads: the L1D and
IBR bounds come from the cheap structural pass, the IRF bound from the
full dataflow analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.analysis.static import (
    StructuralReport,
    analyze_program,
    structural_pass,
)
from repro.coverage.metrics import (
    AceIrfCoverage,
    AceL1dCoverage,
    CoverageMetric,
    IbrCoverage,
)
from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig


#: The analysis each boundable metric type's bound reads.
_ANALYSIS: Dict[type, Callable[[Program], StructuralReport]] = {
    AceIrfCoverage: analyze_program,
    AceL1dCoverage: structural_pass,
    IbrCoverage: structural_pass,
}


def report_bound(
    report: StructuralReport,
    metric: CoverageMetric,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> Optional[float]:
    """Static upper bound on ``metric`` from an existing report.

    Returns ``None`` when the metric is not one the analyzer can
    bound (including any subclass of a stock metric).  The IRF bound
    needs a full :class:`~repro.analysis.static.StaticReport`; the
    others read only the structural facts.
    """
    metric_type = type(metric)
    if metric_type is AceIrfCoverage:
        return report.ace_irf_bound(machine)
    if metric_type is AceL1dCoverage:
        return report.ace_l1d_bound(machine)
    if metric_type is IbrCoverage:
        return report.ibr_bound(metric.fu_class, machine)
    return None


def static_bound(
    program: Program,
    metric: CoverageMetric,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> Optional[float]:
    """Static upper bound on ``metric`` for ``program``, or ``None``.

    The bound holds for the machine the evaluator actually simulates
    on (``machine.for_program(program.data_size)`` — the same
    derivation :func:`repro.sim.cosim.golden_run` applies).
    """
    analysis = _ANALYSIS.get(type(metric))
    if analysis is None:
        return None
    return report_bound(
        analysis(program), metric, machine.for_program(program.data_size)
    )


def bound_can_be_zero(metric: CoverageMetric) -> bool:
    """Whether :func:`static_bound` can ever return ``0.0`` for
    ``metric`` — that is, whether screening can ever skip a candidate.

    The IRF bound never can: the wrapper's initial GPR mappings alone
    give it ``NUM_INIT_GPR_VERSIONS / num_int_pregs > 0`` (and a loop
    gives 1.0).  Metrics without a bound never screen either.
    """
    return type(metric) in (AceL1dCoverage, IbrCoverage)


def should_skip(
    program: Program,
    metric: CoverageMetric,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> bool:
    """Whether simulation can be skipped: the bound is exactly zero."""
    bound = static_bound(program, metric, machine)
    return bound is not None and bound == 0.0
