"""Golden-run co-simulation: one functional pass plus one timing pass.

This is the "evaluation step" of the Harpocrates loop (§V-C step 1):
simulating the program once yields both its architectural output and
the microarchitectural event traces from which hardware-coverage
metrics and fault-injection campaigns are computed — the rich,
gem5-style observability the paper builds on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.sim.functional import FunctionalSimulator, RunResult
from repro.sim.ooo import Schedule, TimingModel


@dataclass
class GoldenRun:
    """A program's fault-free co-simulation result."""

    program: Program
    result: RunResult
    schedule: Schedule
    #: Seconds the functional and the timing pass took (telemetry: the
    #: evaluator charges them to its ``sim_functional`` and
    #: ``sim_timing`` phases).
    functional_s: float = field(default=0.0, compare=False)
    timing_s: float = field(default=0.0, compare=False)

    @property
    def crashed(self) -> bool:
        return self.result.crashed

    @property
    def total_cycles(self) -> int:
        return self.schedule.total_cycles


def golden_run(
    program: Program,
    machine: MachineConfig = DEFAULT_MACHINE,
    max_dynamic: Optional[int] = None,
) -> GoldenRun:
    """Run ``program`` fault-free and build its full timing schedule.

    If the program crashes (possible for fuzzer-produced inputs), the
    schedule covers the executed prefix; callers filter such programs
    out before grading, as SiliFuzz does with its snapshots.
    """
    machine = machine.for_program(program.data_size)
    started = time.perf_counter()
    result = FunctionalSimulator(machine).run(
        program, collect_records=True, max_dynamic=max_dynamic
    )
    functional_done = time.perf_counter()
    schedule = TimingModel(machine).schedule(result.records)
    return GoldenRun(
        program=program,
        result=result,
        schedule=schedule,
        functional_s=functional_done - started,
        timing_s=time.perf_counter() - functional_done,
    )
