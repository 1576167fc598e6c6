"""Unit + property tests for the binary encoder/decoder and the
program record built on it."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mibench import mibench_suite
from repro.baselines.opendcdiag import opendcdiag_suite
from repro.isa import (
    DecodeError,
    Program,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    imm,
    make,
    mem,
    program_from_record,
    program_record,
    reg,
    rel,
    x64,
)
from repro.isa.operands import OperandKind
from repro.sim.config import MemoryMap


@pytest.fixture(scope="module")
def isa():
    return x64()


def _random_instruction(isa, rng):
    """Generate a random, fully-resolved instruction for any def."""
    from repro.isa import registers

    definition = rng.choice(list(isa))
    operands = []
    for spec in definition.operands:
        if spec.kind is OperandKind.GPR:
            operands.append(reg(registers.gpr(rng.randrange(16))))
        elif spec.kind is OperandKind.XMM:
            operands.append(reg(registers.xmm(rng.randrange(16))))
        elif spec.kind is OperandKind.IMM:
            operands.append(imm(rng.getrandbits(spec.width), spec.width))
        elif spec.kind is OperandKind.MEM:
            base = None if rng.random() < 0.2 else \
                registers.gpr(rng.randrange(16))
            operands.append(mem(base, rng.randrange(-1024, 1024)))
        else:
            operands.append(rel(rng.randrange(-100, 100)))
    return make(definition, *operands)


class TestRoundtrip:
    def test_single_instruction(self, isa):
        instruction = make(
            isa.by_name("add_r64_imm32"), reg("rax"), imm(99, 32)
        )
        decoded, offset = decode_instruction(
            isa, encode_instruction(instruction)
        )
        assert decoded.to_asm() == instruction.to_asm()
        assert offset == len(encode_instruction(instruction))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_definition_roundtrips(self, isa, seed):
        rng = random.Random(seed)
        instruction = _random_instruction(isa, rng)
        encoded = encode_instruction(instruction)
        decoded = decode_program(isa, encoded)
        assert len(decoded) == 1
        assert decoded[0].to_asm() == instruction.to_asm()

    def test_program_roundtrip(self, isa):
        rng = random.Random(1234)
        instructions = [_random_instruction(isa, rng) for _ in range(50)]
        decoded = decode_program(isa, encode_program(instructions))
        assert [i.to_asm() for i in decoded] == \
            [i.to_asm() for i in instructions]

    def test_exhaustive_definition_coverage(self, isa):
        """Every definition must round-trip at least once."""
        rng = random.Random(7)
        for definition in isa:
            operands = []
            for spec in definition.operands:
                if spec.kind is OperandKind.GPR:
                    operands.append(reg("rcx"))
                elif spec.kind is OperandKind.XMM:
                    operands.append(reg("xmm3"))
                elif spec.kind is OperandKind.IMM:
                    operands.append(imm(1, spec.width))
                elif spec.kind is OperandKind.MEM:
                    operands.append(mem("rbp", 8))
                else:
                    operands.append(rel(0))
            instruction = make(definition, *operands)
            decoded = decode_program(
                isa, encode_instruction(instruction)
            )
            assert decoded[0].definition is definition


class TestDecodeRejection:
    def test_unknown_opcode(self, isa):
        with pytest.raises(DecodeError):
            decode_program(isa, bytes([0x00]))  # even bytes unassigned

    def test_truncated_immediate(self, isa):
        opcode = isa.by_name("mov_r64_imm64").opcode
        with pytest.raises(DecodeError):
            decode_program(isa, bytes([opcode, 0x01, 0xFF]))

    def test_truncated_tail_rejects_whole_program(self, isa):
        good = encode_instruction(make(isa.by_name("nop")))
        with pytest.raises(DecodeError):
            decode_program(isa, good + bytes([0x00]))

    def test_empty_decodes_to_empty(self, isa):
        assert decode_program(isa, b"") == []

    def test_random_bytes_mostly_invalid(self, isa):
        """The sparse opcode space must reject the majority of random
        strings — the property the SiliFuzz discard rate rests on."""
        rng = random.Random(42)
        rejected = 0
        trials = 300
        for _ in range(trials):
            blob = bytes(rng.getrandbits(8) for _ in range(12))
            try:
                decode_program(isa, blob)
            except DecodeError:
                rejected += 1
        assert rejected / trials > 0.5

    def test_register_field_is_dense(self, isa):
        """Any register byte decodes (low 4 bits), like real ModRM."""
        opcode = isa.by_name("not_r64").opcode
        decoded = decode_program(isa, bytes([opcode, 0xF3]))
        assert decoded[0].operands[0].reg.index == 3


class TestProgramRecord:
    """The one serialized program form: checkpoints, the fleet wire and
    witness files all carry :func:`program_record`."""

    def _program(self, isa):
        return Program(
            instructions=(
                make(isa.by_name("mov_r64_imm64"), reg("rax"),
                     imm(5, 64)),
                make(isa.by_name("add_r64_m64"), reg("rbx"),
                     mem("rbp", 16)),
                make(isa.by_name("jmp_rel"), rel(0)),
                make(isa.by_name("nop")),
            ),
            name="codec", init_seed=7, data_size=4096, source="test",
            metadata={"genome": ("nop",)},
        )

    def test_fields(self, isa):
        record = program_record(self._program(isa))
        assert sorted(record) == [
            "code", "data_size", "init_seed", "name", "source",
        ]
        assert bytes.fromhex(record["code"]) == \
            encode_program(self._program(isa).instructions)

    def test_instruction_round_trip(self, isa):
        for instruction in self._program(isa):
            program = Program(instructions=(instruction,))
            decoded = program_from_record(program_record(program))
            assert decoded.instructions == (instruction,)

    def test_program_round_trip(self, isa):
        program = self._program(isa)
        decoded = program_from_record(program_record(program))
        assert decoded.instructions == program.instructions
        assert (decoded.name, decoded.init_seed, decoded.data_size,
                decoded.source) == ("codec", 7, 4096, "test")
        # Metadata never affects execution and is not carried.
        assert decoded.metadata == {}

    def test_payload_is_json_safe(self, isa):
        record = program_record(self._program(isa))
        assert json.loads(json.dumps(record)) == record

    def test_extra_keys_ignored(self, isa):
        record = dict(program_record(self._program(isa)), genome=["x"])
        decoded = program_from_record(record)
        assert decoded.instructions == self._program(isa).instructions

    def test_baseline_kernels_round_trip(self):
        """Hand-written kernels are not generator-shaped; their bytes
        still hold them exactly."""
        for program in mibench_suite(0.25) + opendcdiag_suite(0.25):
            decoded = program_from_record(program_record(program))
            assert decoded.instructions == program.instructions
            assert decoded.name == program.name

    def test_malformed_code_rejected(self, isa):
        record = program_record(self._program(isa))
        with pytest.raises(DecodeError):
            program_from_record(dict(record, code=record["code"] + "00"))
        with pytest.raises(ValueError):
            program_from_record(dict(record, code="not hex"))
        with pytest.raises(KeyError):
            program_from_record({"name": "x", "code": ""})

    def test_data_size_bounded_by_the_sandbox(self, isa):
        """Records come from files and the wire; a data region the
        sandbox cannot hold is refused before any run allocates it."""
        record = program_record(self._program(isa))
        limit = MemoryMap().stack_base - MemoryMap().data_base
        assert program_from_record(
            dict(record, data_size=limit)
        ).data_size == limit
        for size in (0, -4, limit + 1, 2 ** 36):
            with pytest.raises(ValueError, match="data_size"):
                program_from_record(dict(record, data_size=size))
