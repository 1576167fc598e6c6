"""The functional (architectural) simulator.

Executes a :class:`~repro.isa.program.Program` instruction by
instruction with full ISA semantics, producing:

* the architectural output (final registers + the data region) the
  wrapper would emit,
* a per-instruction trace (:mod:`repro.sim.trace`) consumed by the OoO
  timing model, the coverage metrics and the fault injector,
* crash outcomes for every architectural trap.

The simulator honours :class:`~repro.sim.overrides.Overrides`, which is
how statistical fault injection replays a program "under fault" without
a heavyweight lock-step faulty microarchitectural simulation.  A run can
start from a :class:`Snapshot` of the golden execution instead of the
initial state, and a :class:`Watch` visited every ``interval`` dynamic
instructions can record snapshots or stop a replay that has reconverged
on the golden state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

from repro.isa import registers as regs_module
from repro.isa.flags import Flags
from repro.isa.operands import MemOperand
from repro.isa.program import Program
from repro.isa.semantics import lookup
from repro.sim.config import DEFAULT_MACHINE, MachineConfig, MemoryMap
from repro.sim.errors import (
    AlignmentFault,
    CrashError,
    DivideError,
    HangError,
    InvalidFetch,
)
from repro.sim.overrides import Overrides
from repro.sim.state import ArchState, ProgramOutput, initial_state
from repro.sim.trace import FUOp, InstrRecord, MemAccess
from repro.util.bitops import MASK64, mask, to_unsigned


class _RegisterNamespace:
    """Registers exposed to semantics via ``ctx.registers``."""

    RAX = regs_module.RAX
    RBX = regs_module.RBX
    RCX = regs_module.RCX
    RDX = regs_module.RDX
    RSP = regs_module.RSP
    RBP = regs_module.RBP


@dataclass(frozen=True)
class CrashInfo:
    """How and where a run crashed."""

    kind: str
    instruction_index: int
    message: str


@dataclass
class RunResult:
    """Outcome of one functional execution.

    ``output`` is ``None`` when the run crashed or when its
    :class:`Watch` stopped it (``converged``).  ``dynamic_count`` counts
    the instructions this run executed, from its start snapshot on.
    """

    program: Program
    output: Optional[ProgramOutput]
    crash: Optional[CrashInfo]
    records: List[InstrRecord]
    dynamic_count: int
    converged: bool = False

    @property
    def crashed(self) -> bool:
        return self.crash is not None


@dataclass(frozen=True)
class Snapshot:
    """The architectural state before dynamic instruction ``dyn``,
    which is the instruction at static index ``pc``."""

    dyn: int
    pc: int
    state: ArchState


class Watch(Protocol):
    """Visited by :meth:`FunctionalSimulator.run` before every dynamic
    instruction whose index is a multiple of ``interval``."""

    interval: int

    def visit(self, dyn: int, pc: int, state: ArchState) -> bool:
        """Return ``True`` to stop the run here as converged."""
        ...


class ExecContext:
    """Mediates every architectural access during execution."""

    registers = _RegisterNamespace

    def __init__(
        self,
        state: ArchState,
        overrides: Overrides,
        collect_records: bool,
    ):
        self.state = state
        self.overrides = overrides
        self.collect_records = collect_records
        self.record: Optional[InstrRecord] = None
        self.dyn_index = 0
        self.pending_branch: Optional[int] = None

    # -- registers ---------------------------------------------------

    @property
    def flags(self) -> Flags:
        return self.state.flags

    def set_flags(self, flags: Flags) -> None:
        self.state.flags = flags

    def read_gpr(self, reg, width: int) -> int:
        value = self.state.gprs[reg.name]
        key = (self.dyn_index, reg.name)
        xor_mask = self.overrides.reg_read_xor.get(key)
        if xor_mask:
            value ^= xor_mask & MASK64
        force = self.overrides.reg_read_force.get(key)
        if force is not None:
            and_mask, or_mask = force
            value = (value & and_mask) | or_mask
        if self.record is not None:
            self.record.add_read(reg.name, width)
        return value & mask(width)

    def write_gpr(self, reg, width: int, value: int) -> None:
        if width == 64:
            new_value = value & MASK64
        elif width == 32:
            new_value = value & mask(32)  # 32-bit writes zero-extend
        else:
            # 8/16-bit writes merge into the low bits (x86 semantics).
            old = self.state.gprs[reg.name]
            new_value = (old & ~mask(width)) | (value & mask(width))
        self.state.gprs[reg.name] = new_value
        if self.record is not None:
            self.record.add_write(reg.name)

    def read_xmm(self, reg) -> int:
        value = self.state.xmms[reg.name]
        xor_mask = self.overrides.reg_read_xor.get((self.dyn_index, reg.name))
        if xor_mask:
            value ^= xor_mask & mask(128)
        if self.record is not None:
            self.record.add_read(reg.name, 128)
        return value

    def write_xmm(self, reg, value: int) -> None:
        self.state.xmms[reg.name] = value & mask(128)
        if self.record is not None:
            self.record.add_write(reg.name)

    # -- memory ------------------------------------------------------

    def effective_address(self, operand: MemOperand) -> int:
        if operand.base is None:
            # RIP-relative resolves into the data region (§V-B).
            return to_unsigned(
                self.state.memory.layout.data_base + operand.displacement, 64
            )
        base = self.read_gpr(operand.base, 64)
        return to_unsigned(base + operand.displacement, 64)

    def check_alignment(self, address: int, alignment: int) -> None:
        if address % alignment:
            raise AlignmentFault(address, alignment, self.dyn_index)

    def read_mem(self, address: int, width_bits: int) -> int:
        value = self.state.memory.read(address, width_bits)
        xor_mask = self.overrides.load_xor.get(self.dyn_index)
        if xor_mask:
            value ^= xor_mask & mask(width_bits)
        if self.record is not None:
            self.record.mem_read = MemAccess(
                address, width_bits, is_store=False, value=value
            )
        return value

    def write_mem(self, address: int, width_bits: int, value: int) -> None:
        self.state.memory.write(address, width_bits, value)
        if self.record is not None:
            self.record.mem_write = MemAccess(
                address, width_bits, is_store=True,
                value=value & mask(width_bits),
            )

    # -- functional units ---------------------------------------------

    def fu_execute_int(
        self, inputs: Tuple[int, ...], golden: int, width: int
    ) -> int:
        if self.overrides.fu_dynamic is not None:
            result = self.overrides.fu_dynamic.apply_int(
                self.dyn_index, inputs, golden, width
            ) & mask(width)
        else:
            result = self.overrides.fu_int.get(self.dyn_index)
            if result is None:
                result = golden
            else:
                result &= mask(width)
        if self.record is not None:
            self.record.fu_op = FUOp(
                fu_class=self.record.fu_class,
                op_name=self.record.instruction.definition.semantic,
                width=width,
                inputs=inputs,
                results=[result],
            )
        return result

    def fu_execute_lanes(
        self,
        lane_inputs: List[Tuple[int, int]],
        results: List[int],
        lane_width: int,
        op_name: str,
    ) -> List[int]:
        if self.overrides.fu_dynamic is not None:
            results = [
                value & mask(lane_width)
                for value in self.overrides.fu_dynamic.apply_lanes(
                    self.dyn_index, lane_inputs, results, lane_width, op_name
                )
            ]
        else:
            lane_overrides = self.overrides.fu_lanes.get(self.dyn_index)
            if lane_overrides:
                results = [
                    lane_overrides.get(i, value) & mask(lane_width)
                    for i, value in enumerate(results)
                ]
        if self.record is not None:
            self.record.fu_op = FUOp(
                fu_class=self.record.fu_class,
                op_name=op_name,
                width=lane_width,
                lanes=list(lane_inputs),
                results=list(results),
            )
        return results

    # -- control flow and traps ----------------------------------------

    def branch(self, taken: bool, displacement: int) -> None:
        self.pending_branch = displacement if taken else 0
        if self.record is not None:
            self.record.branch_taken = taken

    def raise_divide_error(self) -> None:
        raise DivideError(self.dyn_index)

    def nondeterministic_value(self) -> int:
        salt = self.overrides.nondet_salt
        mixed = (salt * 0x9E3779B97F4A7C15 + self.dyn_index * 0xBF58476D1CE4E5B9)
        mixed &= MASK64
        mixed ^= mixed >> 31
        return mixed


class FunctionalSimulator:
    """Runs programs against a machine configuration.

    The simulator remembers the last initial state it built, keyed by
    ``(init_seed, memory layout)``, and starts every run from a fresh
    copy of it.  Repeated runs of one program (fault-injection replays)
    then pay for a copy instead of rebuilding the seeded state.
    """

    def __init__(self, machine: MachineConfig = DEFAULT_MACHINE):
        self.machine = machine
        self._template: Optional[
            Tuple[Tuple[int, MemoryMap], ArchState]
        ] = None

    def _initial_state(self, seed: int, layout: MemoryMap) -> ArchState:
        # Key and state live in one attribute, read once, so a run never
        # pairs one program's key with another's state.
        template = self._template
        if template is None or template[0] != (seed, layout):
            template = ((seed, layout), initial_state(seed, layout))
            self._template = template
        return template[1].copy()

    def run(
        self,
        program: Program,
        overrides: Optional[Overrides] = None,
        collect_records: bool = True,
        max_dynamic: Optional[int] = None,
        start: Optional[Snapshot] = None,
        watch: Optional[Watch] = None,
    ) -> RunResult:
        """Execute ``program`` from its deterministic initial state, or
        from a copy of ``start`` (a snapshot of this program's run).

        ``watch`` is visited at every multiple of its ``interval``; a
        visit returning ``True`` ends the run with ``converged`` set.
        """
        machine = self.machine.for_program(program.data_size)
        overrides = overrides if overrides is not None else Overrides()
        if start is None:
            state = self._initial_state(program.init_seed, machine.memory)
            pc = first = 0
        else:
            state = start.state.copy()
            pc, first = start.pc, start.dyn
        ctx = ExecContext(state, overrides, collect_records)
        budget = max_dynamic or machine.max_dynamic_instructions
        records: List[InstrRecord] = []
        instructions = program.instructions
        count = len(instructions)
        executed = first
        # One compare per instruction covers both the budget and the
        # watch: ``stop`` is whichever of the two comes first.
        stop = budget
        if watch is not None:
            stop = min(budget, -(-first // watch.interval) * watch.interval)
        converged = False
        crash: Optional[CrashInfo] = None
        try:
            while pc < count:
                if executed >= stop:
                    if executed >= budget:
                        raise HangError(budget)
                    if watch.visit(executed, pc, state):
                        converged = True
                        break
                    stop = min(budget, executed + watch.interval)
                instruction = instructions[pc]
                ctx.dyn_index = executed
                ctx.pending_branch = None
                if collect_records:
                    ctx.record = InstrRecord(executed, instruction)
                semantic_fn = lookup(instruction.definition.semantic)
                semantic_fn(ctx, instruction)
                if collect_records:
                    records.append(ctx.record)  # type: ignore[arg-type]
                executed += 1
                if ctx.pending_branch is not None:
                    target = pc + 1 + ctx.pending_branch
                    if target < 0 or target > count:
                        raise InvalidFetch(target, executed - 1)
                    pc = target
                else:
                    pc += 1
        except CrashError as error:
            index = getattr(error, "instruction_index", -1)
            if index < 0:
                index = executed  # the instruction that was executing
            crash = CrashInfo(
                kind=error.kind,
                instruction_index=index,
                message=str(error),
            )
        output: Optional[ProgramOutput] = None
        if crash is None and not converged:
            for address, xor_mask in overrides.final_mem_xor.items():
                state.memory.xor_byte(address, xor_mask)
            for reg_name, xor_mask in overrides.final_reg_xor.items():
                if reg_name in state.gprs:
                    state.gprs[reg_name] ^= xor_mask & MASK64
                elif reg_name in state.xmms:
                    state.xmms[reg_name] ^= xor_mask & mask(128)
            for reg_name, (and_mask, or_mask) in \
                    overrides.final_reg_force.items():
                if reg_name in state.gprs:
                    state.gprs[reg_name] = (
                        state.gprs[reg_name] & and_mask | or_mask
                    ) & MASK64
            output = ProgramOutput.from_state(state)
        return RunResult(
            program=program,
            output=output,
            crash=crash,
            records=records,
            dynamic_count=executed - first,
            converged=converged,
        )


def run_program(
    program: Program,
    machine: MachineConfig = DEFAULT_MACHINE,
    overrides: Optional[Overrides] = None,
    collect_records: bool = True,
) -> RunResult:
    """Convenience one-shot execution helper."""
    return FunctionalSimulator(machine).run(
        program, overrides, collect_records
    )
