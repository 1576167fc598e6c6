"""Pickling: ISA values travel by reference, programs by value.

Pool workers receive programs by pickle.  Registers and x64
definitions pickle as lookups by name, so an unpickled program holds
the registry's own objects; anything else round-trips by value.
"""

import dataclasses
import pickle

from repro.core.generator import Generator
from repro.core.targets import scaled_targets
from repro.isa import (
    FUClass,
    InstructionDef,
    MemOperand,
    OperandKind,
    OperandSpec,
    Program,
    RegOperand,
    imm,
    make,
    mem,
    reg,
    registers,
    rel,
    x64,
)
from repro.isa.registers import RegClass, Register


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _registers_of(program):
    for instruction in program:
        for operand in instruction.operands:
            if isinstance(operand, RegOperand):
                yield operand.reg
            elif isinstance(operand, MemOperand) and operand.base is not None:
                yield operand.base


class TestGeneratedProgram:
    def test_round_trip_uses_the_registry_objects(self):
        spec = scaled_targets(0.1, 0.01)["fp_mul"]
        program = Generator(spec.generation).initial_population(
            1, base_seed=4
        )[0]
        copy = _round_trip(program)
        assert copy == program
        assert copy.to_asm() == program.to_asm()
        isa = x64()
        for instruction in copy:
            assert instruction.definition is isa.by_name(
                instruction.definition.name
            )
        seen = list(_registers_of(copy))
        assert seen
        for register in seen:
            assert register is registers.by_name(register.name)

    def test_every_operand_kind_round_trips(self):
        isa = x64()
        program = Program(
            instructions=(
                make(isa.by_name("add_r64_r64"), reg("rax"), reg("r9")),
                make(isa.by_name("mov_r64_m64"), reg("rcx"),
                     mem("rbp", 64)),
                make(isa.by_name("add_r64_imm32"), reg("rdx"), imm(-5)),
                make(isa.by_name("jmp_rel"), rel(0)),
            ),
            name="kinds", init_seed=9, data_size=2048, source="test",
            metadata={"note": "x"},
        )
        copy = _round_trip(program)
        assert copy == program
        assert copy.instructions[2].operands[1].signed == -5
        assert copy.instructions[1].operands[1].base is registers.RBP


class TestHandMadeValues:
    def test_definition_outside_the_isa_round_trips_by_value(self):
        custom = InstructionDef(
            name="test_only_add",
            mnemonic="tadd",
            operands=(
                OperandSpec(OperandKind.GPR, 64, is_src=True, is_dst=True),
                OperandSpec(OperandKind.GPR, 64),
            ),
            semantic="add",
            fu_class=FUClass.INT_ADDER,
            opcode=0xFFF0,
            writes_flags=True,
        )
        copy = _round_trip(custom)
        assert copy == custom
        assert copy is not custom
        assert copy.latency == custom.latency
        assert copy.is_memory is False
        instruction = _round_trip(make(custom, reg("rax"), reg("rbx")))
        assert instruction.definition == custom
        assert instruction.operands[0].reg is registers.RAX

    def test_altered_copy_of_an_isa_definition_keeps_its_fields(self):
        original = x64().by_name("add_r64_r64")
        altered = dataclasses.replace(original, latency=7)
        copy = _round_trip(altered)
        assert copy.latency == 7
        assert copy == altered
        assert copy is not original

    def test_register_outside_the_registry_round_trips_by_value(self):
        stray = Register("rax", 0, RegClass.GPR, 64)
        copy = _round_trip(stray)
        assert copy == stray
        assert copy is not registers.RAX
        assert _round_trip(registers.RAX) is registers.RAX
