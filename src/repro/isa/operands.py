"""Operand values and operand type specifications.

An :class:`~repro.isa.instructions.InstructionDef` declares *operand
specs* (what kind of operand each slot accepts); an instruction
*instance* carries concrete :class:`Operand` values that satisfy those
specs.  This split mirrors MicroProbe's separation of the architecture
module (types) from the code generation module (values).

Operand values pickle as their positional arguments (registers inside
them as registry lookups), which keeps a pickled program small.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.isa import registers
from repro.isa.registers import RegClass, Register
from repro.util.bitops import to_signed, to_unsigned


class OperandKind(enum.Enum):
    """The kind of value an operand slot accepts."""

    GPR = "gpr"
    XMM = "xmm"
    IMM = "imm"
    MEM = "mem"
    REL = "rel"  # branch displacement


@dataclass(frozen=True)
class OperandSpec:
    """Declares one operand slot of an instruction definition.

    ``width`` is the access width in bits (the register may be wider:
    a 32-bit GPR operand reads/writes the low half of a 64-bit
    register, zero-extending on write, exactly like x86-64).
    """

    kind: OperandKind
    width: int
    is_src: bool = True
    is_dst: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        role = "dst" if self.is_dst else "src"
        return f"{self.kind.value}{self.width}:{role}"


@dataclass(frozen=True)
class RegOperand:
    """A concrete register operand."""

    reg: Register

    def __reduce__(self):
        return RegOperand, (self.reg,)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.reg.name


@dataclass(frozen=True)
class ImmOperand:
    """A concrete immediate operand (stored unsigned at ``width`` bits)."""

    value: int
    width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", to_unsigned(self.value, self.width))

    def __reduce__(self):
        return ImmOperand, (self.value, self.width)

    @property
    def signed(self) -> int:
        """The immediate reinterpreted as a signed integer."""
        return to_signed(self.value, self.width)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.signed:#x}"


@dataclass(frozen=True)
class MemOperand:
    """A concrete memory operand.

    Two addressing modes are supported, matching the paper's x86
    extension (§V-B): ``base + displacement`` (``base`` is a GPR) and
    RIP-relative (``base is None``).  RIP-relative operands resolve to
    ``data_base + displacement`` in the simulator: the generator places
    its static data inside the designated data region.
    """

    base: Optional[Register]
    displacement: int

    def __post_init__(self) -> None:
        if self.base is not None and self.base.reg_class is not RegClass.GPR:
            raise ValueError("memory base must be a GPR")

    def __reduce__(self):
        return MemOperand, (self.base, self.displacement)

    @property
    def rip_relative(self) -> bool:
        return self.base is None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = "rip" if self.base is None else self.base.name
        return f"[{base}{self.displacement:+#x}]"


@dataclass(frozen=True)
class RelOperand:
    """A branch displacement, in *instruction slots* relative to the next
    instruction.  The paper's generator resolves every branch to the
    fall-through instruction (displacement 0) so taken and not-taken
    paths coincide (§V-D)."""

    displacement: int

    def __reduce__(self):
        return RelOperand, (self.displacement,)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f".{self.displacement:+d}"


Operand = Union[RegOperand, ImmOperand, MemOperand, RelOperand]


def matches(spec: OperandSpec, operand: Operand) -> bool:
    """Check whether a concrete operand satisfies an operand spec."""
    if spec.kind is OperandKind.GPR:
        return (
            isinstance(operand, RegOperand)
            and operand.reg.reg_class is RegClass.GPR
        )
    if spec.kind is OperandKind.XMM:
        return (
            isinstance(operand, RegOperand)
            and operand.reg.reg_class is RegClass.XMM
        )
    if spec.kind is OperandKind.IMM:
        return isinstance(operand, ImmOperand) and operand.width == spec.width
    if spec.kind is OperandKind.MEM:
        return isinstance(operand, MemOperand)
    if spec.kind is OperandKind.REL:
        return isinstance(operand, RelOperand)
    return False


def reg(name_or_reg: Union[str, Register]) -> RegOperand:
    """Convenience constructor: ``reg("rax")`` or ``reg(registers.RAX)``."""
    if isinstance(name_or_reg, Register):
        return RegOperand(name_or_reg)
    return RegOperand(registers.by_name(name_or_reg))


def imm(value: int, width: int = 32) -> ImmOperand:
    """Convenience constructor for an immediate operand."""
    return ImmOperand(value, width)


def mem(base: Union[str, Register, None], displacement: int = 0) -> MemOperand:
    """Convenience constructor for a memory operand."""
    if isinstance(base, str):
        base = registers.by_name(base)
    return MemOperand(base, displacement)


def rel(displacement: int = 0) -> RelOperand:
    """Convenience constructor for a branch displacement operand."""
    return RelOperand(displacement)
