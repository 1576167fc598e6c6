"""The x86-64-style ISA substrate.

Public surface: registers, operand constructors, instruction
definitions/instances, the shared :func:`x64` instruction set, executable
semantics, the binary encoder/decoder, and the program record built on
it.
"""

from repro.isa import registers
from repro.isa.encoding import (
    DecodeError,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    program_from_record,
    program_record,
)
from repro.isa.flags import Flags
from repro.isa.instructions import (
    FUClass,
    Instruction,
    InstructionDef,
    InstructionSet,
    make,
)
from repro.isa.isa_x64 import build_x64_isa, x64
from repro.isa.operands import (
    ImmOperand,
    MemOperand,
    Operand,
    OperandKind,
    OperandSpec,
    RegOperand,
    RelOperand,
    imm,
    mem,
    reg,
    rel,
)
from repro.isa.program import Program

__all__ = [
    "registers",
    "DecodeError",
    "decode_instruction",
    "decode_program",
    "encode_instruction",
    "encode_program",
    "program_from_record",
    "program_record",
    "Flags",
    "FUClass",
    "Instruction",
    "InstructionDef",
    "InstructionSet",
    "make",
    "build_x64_isa",
    "x64",
    "ImmOperand",
    "MemOperand",
    "Operand",
    "OperandKind",
    "OperandSpec",
    "RegOperand",
    "RelOperand",
    "imm",
    "mem",
    "reg",
    "rel",
    "Program",
]
