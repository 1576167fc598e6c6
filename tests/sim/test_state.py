"""Unit tests for memory, initial state and program outputs."""

import random

import pytest

from repro.sim import state as state_module
from repro.sim.config import MemoryMap
from repro.sim.errors import MemoryFault
from repro.sim.state import (
    Memory,
    ProgramOutput,
    initial_state,
)
from repro.util.checksum import crc64


def _per_byte_fill(rng, size):
    """The byte-at-a-time data fill: the reference the fast fill keeps."""
    return bytes(rng.getrandbits(8) for _ in range(size))


@pytest.fixture
def layout():
    return MemoryMap(data_size=4096)


class TestMemory:
    def test_read_write_roundtrip(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base + 8, 64, 0xDEADBEEF)
        assert memory.read(layout.data_base + 8, 64) == 0xDEADBEEF

    def test_little_endian(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base, 32, 0x04030201)
        assert memory.read(layout.data_base, 8) == 0x01
        assert memory.read(layout.data_base + 3, 8) == 0x04

    def test_stack_region_accessible(self, layout):
        memory = Memory(layout)
        memory.write(layout.stack_base, 64, 5)
        assert memory.read(layout.stack_base, 64) == 5

    def test_out_of_bounds_raises(self, layout):
        memory = Memory(layout)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_end, 64)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_base - 1, 8)

    def test_straddling_region_end_raises(self, layout):
        memory = Memory(layout)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_end - 4, 64)

    def test_xor_byte(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base, 8, 0b1010)
        memory.xor_byte(layout.data_base, 0b0110)
        assert memory.read(layout.data_base, 8) == 0b1100

    def test_128_bit_access(self, layout):
        memory = Memory(layout)
        value = (1 << 127) | 3
        memory.write(layout.data_base + 16, 128, value)
        assert memory.read(layout.data_base + 16, 128) == value


class TestInitialState:
    def test_deterministic(self, layout):
        a = initial_state(5, layout)
        b = initial_state(5, layout)
        assert a.gprs == b.gprs
        assert a.xmms == b.xmms
        assert a.memory.data_bytes() == b.memory.data_bytes()

    def test_seed_changes_state(self, layout):
        a = initial_state(5, layout)
        b = initial_state(6, layout)
        assert a.gprs != b.gprs

    def test_rbp_points_at_data_region(self, layout):
        state = initial_state(0, layout)
        assert state.gprs["rbp"] == layout.data_base

    def test_rsp_points_at_stack_top(self, layout):
        state = initial_state(0, layout)
        assert state.gprs["rsp"] == layout.stack_end

    def test_copy_is_independent(self, layout):
        template = initial_state(3, layout)
        pristine = ProgramOutput.from_state(template)
        copy = template.copy()
        copy.gprs["rax"] ^= 1
        copy.xmms["xmm0"] ^= 1
        copy.flags.cf = 1
        copy.memory.xor_byte(layout.data_base, 0xFF)
        copy.memory.write(layout.stack_base, 64, 7)
        assert ProgramOutput.from_state(template) == pristine
        assert template.memory.read(layout.stack_base, 64) == 0

    def test_xmm_lanes_are_finite_floats(self, layout):
        import struct

        state = initial_state(1, layout)
        for value in state.xmms.values():
            for lane in range(4):
                bits = (value >> (32 * lane)) & 0xFFFFFFFF
                lane_value = struct.unpack(
                    "<f", struct.pack("<I", bits)
                )[0]
                assert lane_value == lane_value  # not NaN
                assert abs(lane_value) < float("inf")


class TestSeededFill:
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 2048, 32768])
    def test_matches_per_byte_fill(self, size):
        for seed in range(200):
            fast, reference = random.Random(seed), random.Random(seed)
            assert state_module._seeded_bytes(fast, size) == \
                _per_byte_fill(reference, size)
            assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("data_size", [0, 1, 7, 4096, 32768])
    def test_initial_state_matches_per_byte_fill(
        self, data_size, monkeypatch
    ):
        layout = MemoryMap(data_size=data_size)
        fast = [initial_state(seed, layout) for seed in (0, 1, 99)]
        monkeypatch.setattr(state_module, "_seeded_bytes", _per_byte_fill)
        for seed, state in zip((0, 1, 99), fast):
            reference = initial_state(seed, layout)
            assert state.gprs == reference.gprs
            assert state.xmms == reference.xmms
            assert state.memory.data_bytes() == \
                reference.memory.data_bytes()


class TestProgramOutput:
    def test_equality_and_signature(self, layout):
        a = ProgramOutput.from_state(initial_state(1, layout))
        b = ProgramOutput.from_state(initial_state(1, layout))
        assert a == b
        assert a.signature() == b.signature()

    def test_register_difference_changes_signature(self, layout):
        state = initial_state(1, layout)
        a = ProgramOutput.from_state(state)
        state.gprs["rax"] ^= 1
        b = ProgramOutput.from_state(state)
        assert a != b
        assert a.signature() != b.signature()

    def test_memory_difference_changes_signature(self, layout):
        state = initial_state(1, layout)
        a = ProgramOutput.from_state(state)
        state.memory.xor_byte(layout.data_base + 100, 0x80)
        b = ProgramOutput.from_state(state)
        assert a.memory_signature != b.memory_signature

    def test_memory_signature_is_crc_of_data(self, layout):
        state = initial_state(1, layout)
        output = ProgramOutput.from_state(state)
        assert output.data == state.memory.data_bytes()
        assert output.memory_signature == crc64(output.data)

    def test_one_byte_flip_breaks_equality(self, layout):
        state = initial_state(1, layout)
        a = ProgramOutput.from_state(state)
        state.memory.xor_byte(layout.data_end - 1, 0x01)
        b = ProgramOutput.from_state(state)
        assert a.gprs == b.gprs and a.rflags == b.rflags
        assert a != b
