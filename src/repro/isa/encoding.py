"""Binary encoding and decoding of instructions.

The paper's SiliFuzz baseline "represents the program as a byte
sequence, mutating raw bytes with no internal notion of x86 encoding"
(Fig 8).  For that baseline to be meaningful here, the ISA needs a real
byte-level encoding whose random mutations frequently produce
undecodable sequences — like true x86, where most random byte strings
contain illegal instructions.

Layout per instruction:

``[opcode]`` or ``[0x0F, opcode2]`` followed by one field per operand:

* GPR/XMM register: 1 byte; like the real ModRM register fields, every
  byte value decodes (the low 4 bits select the register),
* immediate of width *w*: *w*/8 bytes, little endian,
* memory operand: 1 mode byte (bit 4 set = RIP-relative, else the low
  4 bits select the base GPR) + 4-byte little-endian signed
  displacement,
* branch displacement: 1 signed byte.

Register/memory fields are dense (any byte decodes) but the *opcode*
space is sparse (see :mod:`repro.isa.isa_x64`): roughly half the
primary map and two-thirds of the secondary map are unassigned.
Together with truncated-tail rejection and crash/determinism filtering,
byte-mutation fuzzing lands at the paper's "more than 2 out of 3
produced sequences are eventually unusable" regime (Fig 8).

The same bytes are the program's one serialized form: a *program
record* (:func:`program_record`) is the hex encoding plus the wrapper
parameters, and it is what checkpoints, the fleet wire and witness
files carry.  Any instruction sequence round-trips through it, not only
generator-shaped ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa import registers
from repro.isa.instructions import Instruction, InstructionSet
from repro.isa.isa_x64 import SECONDARY_ESCAPE, x64
from repro.isa.operands import (
    ImmOperand,
    MemOperand,
    Operand,
    OperandKind,
    RegOperand,
    RelOperand,
)
from repro.isa.program import Program
from repro.util.bitops import to_signed, to_unsigned

RIP_MODE_BYTE = 0x10


class DecodeError(ValueError):
    """Raised when a byte sequence does not decode to a valid instruction."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"decode error at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode one instruction to bytes."""
    definition = instruction.definition
    parts = bytearray()
    if definition.opcode > 0xFF:
        parts.append(SECONDARY_ESCAPE)
        parts.append(definition.opcode & 0xFF)
    else:
        parts.append(definition.opcode)
    for spec, operand in zip(definition.operands, instruction.operands):
        parts.extend(_encode_operand(spec.kind, spec.width, operand))
    return bytes(parts)


def _encode_operand(kind: OperandKind, width: int, operand: Operand) -> bytes:
    if kind in (OperandKind.GPR, OperandKind.XMM):
        assert isinstance(operand, RegOperand)
        return bytes([operand.reg.index])
    if kind is OperandKind.IMM:
        assert isinstance(operand, ImmOperand)
        return operand.value.to_bytes(width // 8, "little")
    if kind is OperandKind.MEM:
        assert isinstance(operand, MemOperand)
        mode = RIP_MODE_BYTE if operand.base is None else operand.base.index
        displacement = to_unsigned(operand.displacement, 32)
        return bytes([mode]) + displacement.to_bytes(4, "little")
    if kind is OperandKind.REL:
        assert isinstance(operand, RelOperand)
        return to_unsigned(operand.displacement, 8).to_bytes(1, "little")
    raise TypeError(f"cannot encode operand kind {kind}")


def encode_program(instructions: Sequence[Instruction]) -> bytes:
    """Encode a sequence of instructions to a flat byte string."""
    return b"".join(encode_instruction(i) for i in instructions)


def decode_instruction(
    isa: InstructionSet, data: bytes, offset: int = 0
) -> Tuple[Instruction, int]:
    """Decode one instruction starting at ``offset``.

    Returns the instruction and the offset just past it.  Raises
    :class:`DecodeError` on any malformed byte.
    """
    start = offset
    if offset >= len(data):
        raise DecodeError(offset, "truncated opcode")
    opcode = data[offset]
    offset += 1
    if opcode == SECONDARY_ESCAPE:
        if offset >= len(data):
            raise DecodeError(offset, "truncated secondary opcode")
        opcode = (SECONDARY_ESCAPE << 8) | data[offset]
        offset += 1
    definition = isa.by_opcode(opcode)
    if definition is None:
        raise DecodeError(start, f"unknown opcode {opcode:#x}")
    operands: List[Operand] = []
    for spec in definition.operands:
        operand, offset = _decode_operand(spec.kind, spec.width, data, offset)
        operands.append(operand)
    return Instruction(definition, tuple(operands)), offset


def _decode_operand(
    kind: OperandKind, width: int, data: bytes, offset: int
) -> Tuple[Operand, int]:
    if kind in (OperandKind.GPR, OperandKind.XMM):
        if offset >= len(data):
            raise DecodeError(offset, "truncated register byte")
        index = data[offset] & 0x0F  # dense, like the ModRM reg field
        reg = registers.gpr(index) if kind is OperandKind.GPR \
            else registers.xmm(index)
        return RegOperand(reg), offset + 1
    if kind is OperandKind.IMM:
        size = width // 8
        if offset + size > len(data):
            raise DecodeError(offset, "truncated immediate")
        value = int.from_bytes(data[offset:offset + size], "little")
        return ImmOperand(value, width), offset + size
    if kind is OperandKind.MEM:
        if offset + 5 > len(data):
            raise DecodeError(offset, "truncated memory operand")
        mode = data[offset]
        displacement = to_signed(
            int.from_bytes(data[offset + 1:offset + 5], "little"), 32
        )
        if mode & RIP_MODE_BYTE:
            return MemOperand(None, displacement), offset + 5
        return MemOperand(
            registers.gpr(mode & 0x0F), displacement
        ), offset + 5
    if kind is OperandKind.REL:
        if offset >= len(data):
            raise DecodeError(offset, "truncated branch displacement")
        return RelOperand(to_signed(data[offset], 8)), offset + 1
    raise TypeError(f"cannot decode operand kind {kind}")


def decode_program(isa: InstructionSet, data: bytes) -> List[Instruction]:
    """Decode a full byte string into instructions.

    The whole string must decode cleanly (any trailing partial
    instruction raises), mirroring SiliFuzz's rejection of snapshots
    containing illegal instructions.
    """
    instructions: List[Instruction] = []
    offset = 0
    while offset < len(data):
        instruction, offset = decode_instruction(isa, data, offset)
        instructions.append(instruction)
    return instructions


def program_record(program: Program) -> Dict[str, object]:
    """The JSON-safe record of ``program``: its wrapper parameters plus
    ``code``, the hex of its encoded instructions.  ``metadata`` is not
    kept: it never affects execution."""
    return {
        "name": program.name,
        "init_seed": program.init_seed,
        "data_size": program.data_size,
        "source": program.source,
        "code": encode_program(program.instructions).hex(),
    }


def program_from_record(record: Dict[str, object]) -> Program:
    """Inverse of :func:`program_record`; keys it does not know are
    ignored.  Raises :class:`DecodeError` (a ``ValueError``) on a
    malformed ``code``, ``ValueError`` on a ``data_size`` the sandbox
    cannot hold and ``KeyError`` on a missing field."""
    # Deferred: the simulator package imports this one.
    from repro.sim.config import MemoryMap

    layout = MemoryMap()
    data_size = int(record["data_size"])
    # Records arrive from checkpoint files and fleet frames, so the
    # size is checked before any run allocates the region: past the
    # stack base it would overlap the stack.
    if not 0 < data_size <= layout.stack_base - layout.data_base:
        raise ValueError(
            f"data_size {data_size} outside the sandbox's data region "
            f"(1..{layout.stack_base - layout.data_base} bytes)"
        )
    return Program(
        instructions=tuple(decode_program(
            x64(), bytes.fromhex(str(record["code"]))
        )),
        name=str(record["name"]),
        init_seed=int(record["init_seed"]),
        data_size=data_size,
        source=str(record["source"]),
    )
