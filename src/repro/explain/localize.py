"""Fault localization: golden-vs-faulty differential diagnosis.

Given a golden co-simulation and a fault descriptor, this pass answers
the engineer's questions about a detection (the Wit-HW/GoldenFuzz
framing): *which hardware structure* is implicated, *where* the faulty
execution first diverges from the golden run (dynamic instruction and
pipeline cycle, joined against the golden timing schedule), *how* the
corruption propagates from the fault site to the architectural output,
and *which* output state it finally corrupts.

Everything is derived from the existing machinery: the injector
translates the fault into value overrides (captured via
``FaultInjector.last_overrides``), and the faulty functional run is
replayed once more with record collection on, then diffed
record-by-record against the golden trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.models import (
    CacheTransient,
    GateIntermittent,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.sim.cosim import GoldenRun
from repro.sim.functional import FunctionalSimulator, RunResult
from repro.sim.overrides import Overrides
from repro.sim.trace import InstrRecord

#: Cap on reported propagation-chain entries: the first divergences
#: explain the mechanism; a 2,000-entry chain explains nothing.
DEFAULT_MAX_CHAIN = 8


def fault_structure(fault) -> str:
    """The hardware structure a fault descriptor implicates."""
    if isinstance(fault, (RegisterTransient, RegisterIntermittent,
                          RegisterPermanent)):
        return "int_register_file"
    if isinstance(fault, CacheTransient):
        return "l1d_cache"
    if isinstance(fault, (GatePermanent, GateIntermittent)):
        return f"{fault.fu_class.value}#{fault.instance}"
    raise TypeError(f"unsupported fault model: {fault!r}")


def fault_site(fault) -> str:
    """Canonical short spelling of the exact fault site."""
    if isinstance(fault, RegisterTransient):
        return f"irf p{fault.preg}[{fault.bit}]@c{fault.cycle}"
    if isinstance(fault, RegisterIntermittent):
        return (f"irf p{fault.preg}[{fault.bit}]"
                f"@c{fault.start_cycle}+{fault.duration}")
    if isinstance(fault, RegisterPermanent):
        return f"irf p{fault.preg}[{fault.bit}]=sa{fault.stuck_value}"
    if isinstance(fault, CacheTransient):
        return (f"l1d set{fault.set_index} way{fault.way}"
                f" bit{fault.bit_in_line}@c{fault.cycle}")
    if isinstance(fault, GatePermanent):
        return (f"{fault.fu_class.value}#{fault.instance}"
                f" wire{fault.stuck.wire}@sa{fault.stuck.value}")
    if isinstance(fault, GateIntermittent):
        return (f"{fault.fu_class.value}#{fault.instance}"
                f" wire{fault.stuck.wire}@sa{fault.stuck.value}"
                f"@c{fault.start_cycle}+{fault.duration}")
    raise TypeError(f"unsupported fault model: {fault!r}")


@dataclass(frozen=True)
class DivergentRecord:
    """One dynamic instruction whose behaviour diverged under the fault."""

    dyn: int
    static_index: int
    mnemonic: str
    #: ``value`` (FU result), ``load`` (memory read), ``memory``
    #: (store value), ``control`` (branch direction) or ``crash``.
    kind: str
    detail: str


@dataclass(frozen=True)
class Localization:
    """The differential diagnosis of one detected fault."""

    structure: str
    site: str
    outcome: str
    crash_kind: Optional[str]
    total_cycles: int
    #: Dynamic index of the first instruction observing corruption
    #: (None when the fault surfaces only at the output dump).
    first_divergence_dyn: Optional[int]
    #: Its issue cycle in the *golden* timing schedule.
    first_divergence_cycle: Optional[int]
    first_divergence_instruction: Optional[str]
    propagation: Tuple[DivergentRecord, ...]
    #: Architectural outputs that differ (register names, ``rflags``,
    #: ``memory``); empty for crashes and masked faults.
    corrupted_outputs: Tuple[str, ...]


def _hex_values(values) -> str:
    return ",".join(f"{value:#x}" for value in values)


def _injection_sites(overrides: Overrides) -> List[int]:
    """Dynamic indices at which the overrides first corrupt a value."""
    sites: List[int] = []
    sites.extend(dyn for dyn, _reg in overrides.reg_read_xor)
    sites.extend(dyn for dyn, _reg in overrides.reg_read_force)
    sites.extend(overrides.load_xor)
    sites.extend(overrides.fu_int)
    sites.extend(overrides.fu_lanes)
    return sorted(set(sites))


def _diff_record(
    golden: InstrRecord, faulty: InstrRecord, dyn: int
) -> Optional[DivergentRecord]:
    """The first observable difference between two paired records."""
    mnemonic = golden.instruction.mnemonic
    if (
        golden.fu_op is not None
        and faulty.fu_op is not None
        and golden.fu_op.results != faulty.fu_op.results
    ):
        return DivergentRecord(
            dyn=dyn, static_index=golden.index, mnemonic=mnemonic,
            kind="value",
            detail=(
                f"{golden.fu_op.op_name} result "
                f"{_hex_values(golden.fu_op.results)} -> "
                f"{_hex_values(faulty.fu_op.results)}"
            ),
        )
    if (
        golden.mem_write is not None
        and faulty.mem_write is not None
        and golden.mem_write.value != faulty.mem_write.value
    ):
        return DivergentRecord(
            dyn=dyn, static_index=golden.index, mnemonic=mnemonic,
            kind="memory",
            detail=(
                f"store @{golden.mem_write.address:#x} "
                f"{golden.mem_write.value:#x} -> "
                f"{faulty.mem_write.value:#x}"
            ),
        )
    if (
        golden.mem_read is not None
        and faulty.mem_read is not None
        and golden.mem_read.value != faulty.mem_read.value
    ):
        return DivergentRecord(
            dyn=dyn, static_index=golden.index, mnemonic=mnemonic,
            kind="load",
            detail=(
                f"load @{golden.mem_read.address:#x} "
                f"{golden.mem_read.value:#x} -> "
                f"{faulty.mem_read.value:#x}"
            ),
        )
    if golden.branch_taken != faulty.branch_taken:
        return DivergentRecord(
            dyn=dyn, static_index=golden.index, mnemonic=mnemonic,
            kind="control",
            detail=(
                f"branch {golden.branch_taken} -> "
                f"{faulty.branch_taken}"
            ),
        )
    return None


def _propagation_chain(
    golden_records: List[InstrRecord],
    faulty: RunResult,
    max_chain: int,
) -> List[DivergentRecord]:
    chain: List[DivergentRecord] = []
    for dyn, (golden_record, faulty_record) in enumerate(
        zip(golden_records, faulty.records)
    ):
        divergence = _diff_record(golden_record, faulty_record, dyn)
        if divergence is not None:
            chain.append(divergence)
            if len(chain) >= max_chain:
                return chain
    if faulty.crashed:
        chain.append(
            DivergentRecord(
                dyn=len(faulty.records),
                static_index=faulty.crash.instruction_index,
                mnemonic="-",
                kind="crash",
                detail=f"{faulty.crash.kind}: {faulty.crash.message}",
            )
        )
    return chain


def _corrupted_outputs(golden_output, faulty_output) -> Tuple[str, ...]:
    if golden_output is None or faulty_output is None:
        return ()
    names: List[str] = []
    for (name, golden_value), (_n, faulty_value) in zip(
        golden_output.gprs, faulty_output.gprs
    ):
        if golden_value != faulty_value:
            names.append(name)
    for (name, golden_value), (_n, faulty_value) in zip(
        golden_output.xmms, faulty_output.xmms
    ):
        if golden_value != faulty_value:
            names.append(name)
    if golden_output.rflags != faulty_output.rflags:
        names.append("rflags")
    if golden_output.data != faulty_output.data:
        names.append("memory")
    return tuple(names)


def localize(
    golden: GoldenRun, fault, max_chain: int = DEFAULT_MAX_CHAIN
) -> Localization:
    """Diagnose one fault against a program's golden run.

    Re-injects the fault (via the standard injector path), replays the
    faulty functional run with record collection on, and diffs it
    against the golden trace.  Works for masked faults too (the
    diagnosis is simply empty), so callers need not pre-filter.
    """
    # Imported here: the injector imports nothing from this package,
    # keeping the dependency arrow explain -> faults one-way.
    from repro.faults.injector import FaultInjector

    injector = FaultInjector(golden)
    result = injector.inject(fault)
    structure = fault_structure(fault)
    site = fault_site(fault)
    overrides = injector.last_overrides
    if not result.outcome.detected or overrides is None:
        return Localization(
            structure=structure, site=site,
            outcome=result.outcome.value, crash_kind=result.crash_kind,
            total_cycles=golden.total_cycles,
            first_divergence_dyn=None, first_divergence_cycle=None,
            first_divergence_instruction=None,
            propagation=(), corrupted_outputs=(),
        )
    simulator = FunctionalSimulator(
        golden.schedule.machine.for_program(golden.program.data_size)
    )
    faulty = simulator.run(
        golden.program, overrides, collect_records=True
    )
    chain = _propagation_chain(
        golden.result.records, faulty, max_chain
    )
    sites = _injection_sites(overrides)
    first_dyn: Optional[int] = None
    if sites:
        first_dyn = sites[0]
    elif chain:
        first_dyn = chain[0].dyn
    first_cycle: Optional[int] = None
    first_instruction: Optional[str] = None
    if first_dyn is not None:
        timings = golden.schedule.timings
        if first_dyn < len(timings):
            first_cycle = timings[first_dyn].issue
        records = golden.result.records
        if first_dyn < len(records):
            first_instruction = (
                records[first_dyn].instruction.mnemonic
            )
    corrupted: Tuple[str, ...] = ()
    if not faulty.crashed:
        corrupted = _corrupted_outputs(
            golden.result.output, faulty.output
        )
        if not corrupted and (
            overrides.final_mem_xor or overrides.final_reg_xor
            or overrides.final_reg_force
        ):
            # Fast-path SDC verdicts (flip live in an output register /
            # writeback-bound dirty data) corrupt state the injector
            # never re-simulates; name the overridden outputs directly.
            names = sorted(overrides.final_reg_xor)
            names += sorted(overrides.final_reg_force)
            if overrides.final_mem_xor:
                names.append("memory")
            corrupted = tuple(dict.fromkeys(names))
    return Localization(
        structure=structure, site=site,
        outcome=result.outcome.value, crash_kind=result.crash_kind,
        total_cycles=golden.total_cycles,
        first_divergence_dyn=first_dyn,
        first_divergence_cycle=first_cycle,
        first_divergence_instruction=first_instruction,
        propagation=tuple(chain),
        corrupted_outputs=corrupted,
    )
