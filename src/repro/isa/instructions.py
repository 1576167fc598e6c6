"""Instruction definitions and instruction instances.

An :class:`InstructionDef` is one *variant* of an instruction — the same
mnemonic with different operand types is a distinct definition, exactly
as in MuSeqGen's mutation engine ("the same mnemonics with different
operand types are handled as distinct instructions", paper §V-B1).

Definitions carry everything the rest of the system needs:

* operand specs (for valid-by-construction generation),
* implicit register reads/writes (e.g. ``MUL`` writes RDX:RAX, §V-B),
* the functional-unit class and latency (for the OoO timing model and
  for routing operations to gate-level netlists),
* a determinism flag (non-deterministic instructions such as ``RDTSC``
  are excluded from generation, §V-B),
* a one- or two-byte opcode for the binary encoding the SiliFuzz-style
  baseline mutates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

from repro.isa.operands import (
    Operand,
    OperandKind,
    OperandSpec,
    matches,
)


class FUClass(enum.Enum):
    """Functional unit class an instruction executes on.

    ``INT_ADDER`` and ``INT_MUL`` map to the paper's integer adder and
    multiplier targets; ``FP_ADD``/``FP_MUL`` map to the SSE FP units.
    ``INT_LOGIC`` covers moves, boolean ops, shifts and rotates that, on
    real cores, execute on simple ALU ports but do not exercise the
    carry chain of the adder.
    """

    INT_ADDER = "int_adder"
    INT_LOGIC = "int_logic"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    SIMD_LOGIC = "simd_logic"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"
    SYSTEM = "system"


#: Default execution latency (cycles) per functional unit class.
DEFAULT_LATENCY = {
    FUClass.INT_ADDER: 1,
    FUClass.INT_LOGIC: 1,
    FUClass.INT_MUL: 3,
    FUClass.INT_DIV: 20,
    FUClass.FP_ADD: 3,
    FUClass.FP_MUL: 4,
    FUClass.FP_DIV: 12,
    FUClass.SIMD_LOGIC: 1,
    FUClass.LOAD: 1,       # plus cache access latency
    FUClass.STORE: 1,
    FUClass.BRANCH: 1,
    FUClass.NOP: 1,
    FUClass.SYSTEM: 1,
}


@dataclass(frozen=True)
class InstructionDef:
    """One instruction variant of the ISA."""

    name: str
    mnemonic: str
    operands: Tuple[OperandSpec, ...]
    semantic: str
    fu_class: FUClass
    opcode: int
    implicit_reads: Tuple[str, ...] = ()
    implicit_writes: Tuple[str, ...] = ()
    reads_flags: bool = False
    writes_flags: bool = False
    deterministic: bool = True
    may_trap: bool = False
    latency: Optional[int] = None
    #: Guard instructions the generator must emit immediately before this
    #: instruction to keep random programs crash-free (used for DIV/IDIV).
    needs_guard: bool = False
    #: LEA-style: the memory operand is only an address computation, the
    #: instruction performs no actual memory access.
    address_only: bool = False

    def __post_init__(self) -> None:
        if self.latency is None:
            object.__setattr__(
                self, "latency", DEFAULT_LATENCY[self.fu_class]
            )
        # Memory classification is precomputed: these predicates sit on
        # the timing model's per-instruction hot path.
        is_memory = not self.address_only and any(
            spec.kind is OperandKind.MEM for spec in self.operands
        )
        object.__setattr__(self, "_is_memory", is_memory)
        object.__setattr__(
            self,
            "_is_load",
            is_memory and any(
                spec.kind is OperandKind.MEM and spec.is_src
                for spec in self.operands
            ),
        )
        object.__setattr__(
            self,
            "_is_store",
            is_memory and any(
                spec.kind is OperandKind.MEM and spec.is_dst
                for spec in self.operands
            ),
        )
        # So are the static screen's: it reads them once per candidate
        # instruction.
        object.__setattr__(
            self,
            "_mem_bits",
            max(
                spec.width
                for spec in self.operands
                if spec.kind is OperandKind.MEM
            ) if is_memory else 0,
        )
        object.__setattr__(
            self,
            "_is_jmp",
            self.fu_class is FUClass.BRANCH and self.semantic == "jmp",
        )

    @property
    def is_memory(self) -> bool:
        """True when the instruction actually accesses memory."""
        return self._is_memory

    @property
    def mem_bits(self) -> int:
        """Bits per access of the memory operand (0 when the
        instruction has none, or only computes an address)."""
        return self._mem_bits

    @property
    def is_jmp(self) -> bool:
        """Unconditional branch: its fall-through is never taken."""
        return self._is_jmp

    @property
    def is_load(self) -> bool:
        return self._is_load

    @property
    def is_store(self) -> bool:
        return self._is_store

    @property
    def is_branch(self) -> bool:
        return self.fu_class is FUClass.BRANCH

    def __reduce__(self):
        # A definition of the shared x64 ISA pickles as a lookup by
        # name, so the unpickled one is the ISA's own object (and dict
        # probes keyed on it stay identity hits); any other definition
        # pickles by value.
        from repro.isa.isa_x64 import x64  # isa_x64 imports this module

        if x64()._by_name.get(self.name) is self:
            return _x64_definition, (self.name,)
        return InstructionDef, tuple(
            getattr(self, spec.name) for spec in fields(self)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _x64_definition(name: str) -> InstructionDef:
    """Unpickle a definition of the shared x64 ISA by name."""
    from repro.isa.isa_x64 import x64

    return x64().by_name(name)


@dataclass(frozen=True)
class Instruction:
    """A concrete instruction: a definition plus operand values."""

    definition: InstructionDef
    operands: Tuple[Operand, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        specs = self.definition.operands
        if len(specs) != len(self.operands):
            raise ValueError(
                f"{self.definition.name} expects {len(specs)} operands, "
                f"got {len(self.operands)}"
            )
        for spec, operand in zip(specs, self.operands):
            if not matches(spec, operand):
                raise ValueError(
                    f"operand {operand} does not satisfy {spec} "
                    f"of {self.definition.name}"
                )

    def __reduce__(self):
        return _restore_instruction, (self.definition, self.operands)

    @property
    def mnemonic(self) -> str:
        return self.definition.mnemonic

    def to_asm(self) -> str:
        """Render as assembly text (AT&T-free Intel-ish syntax)."""
        if not self.operands:
            return self.mnemonic
        rendered = ", ".join(str(op) for op in self.operands)
        return f"{self.mnemonic} {rendered}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_asm()


def _restore_instruction(
    definition: InstructionDef, operands: Tuple[Operand, ...]
) -> Instruction:
    """Unpickle an instruction without re-checking its operands: they
    were checked when the pickled instruction was built."""
    instruction = object.__new__(Instruction)
    instruction.__dict__.update(definition=definition, operands=operands)
    return instruction


def make(definition: InstructionDef, *operands: Operand) -> Instruction:
    """Convenience constructor for an :class:`Instruction`."""
    return Instruction(definition, tuple(operands))


class InstructionSet:
    """A collection of instruction definitions with lookup helpers."""

    def __init__(self, name: str, definitions: Sequence[InstructionDef]):
        self.name = name
        self.definitions: Tuple[InstructionDef, ...] = tuple(definitions)
        self._by_name = {d.name: d for d in self.definitions}
        if len(self._by_name) != len(self.definitions):
            raise ValueError("duplicate instruction definition names")
        self._by_opcode = {d.opcode: d for d in self.definitions}
        if len(self._by_opcode) != len(self.definitions):
            raise ValueError("duplicate opcodes")

    def __len__(self) -> int:
        return len(self.definitions)

    def __iter__(self):
        return iter(self.definitions)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def by_name(self, name: str) -> InstructionDef:
        """Look up a definition by its unique variant name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown instruction {name!r}") from None

    def by_opcode(self, opcode: int) -> Optional[InstructionDef]:
        """Look up a definition by opcode; ``None`` when unassigned."""
        return self._by_opcode.get(opcode)

    def by_mnemonic(self, mnemonic: str) -> Tuple[InstructionDef, ...]:
        """All variants sharing a mnemonic."""
        return tuple(
            d for d in self.definitions if d.mnemonic == mnemonic
        )

    def select(self, **criteria) -> Tuple[InstructionDef, ...]:
        """Filter definitions by attribute equality, e.g.
        ``select(fu_class=FUClass.INT_MUL, deterministic=True)``."""
        result = []
        for definition in self.definitions:
            if all(
                getattr(definition, key) == value
                for key, value in criteria.items()
            ):
                result.append(definition)
        return tuple(result)

    def generatable(self) -> Tuple[InstructionDef, ...]:
        """Definitions the constrained-random generator may emit:
        deterministic and non-system (paper §V-B excludes
        non-deterministic instructions)."""
        return tuple(
            d
            for d in self.definitions
            if d.deterministic and d.fu_class is not FUClass.SYSTEM
        )
