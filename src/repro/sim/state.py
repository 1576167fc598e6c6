"""Architectural state: registers, flags, and sandboxed memory.

The wrapper around each generated test (paper §V-D) initializes every
register and the data region deterministically from a seed, and the
program's *output* is the final architectural register state plus the
raw bytes of the data region.  Outputs compare those bytes directly;
the wrapper's CRC-64 memory signature is computed only when asked for
(:attr:`ProgramOutput.memory_signature`).  Both live here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.isa import registers
from repro.isa.flags import Flags
from repro.sim.config import MemoryMap
from repro.sim.errors import MemoryFault
from repro.util.bitops import MASK64, mask
from repro.util.checksum import crc64, fold_output_signature


class Memory:
    """Byte-addressable memory restricted to the data + stack regions.

    Any access that leaves the two mapped regions raises
    :class:`MemoryFault` — the architectural equivalent of a segfault,
    which the outcome classifier records as a crash.
    """

    def __init__(self, layout: MemoryMap):
        self.layout = layout
        self._data = bytearray(layout.data_size)
        self._stack = bytearray(layout.stack_size)

    def _locate(self, address: int, size: int) -> Tuple[bytearray, int]:
        layout = self.layout
        if layout.data_base <= address and \
                address + size <= layout.data_end:
            return self._data, address - layout.data_base
        if layout.stack_base <= address and \
                address + size <= layout.stack_end:
            return self._stack, address - layout.stack_base
        raise MemoryFault(address)

    def read(self, address: int, width_bits: int) -> int:
        """Read ``width_bits`` (a multiple of 8) at ``address``."""
        size = width_bits // 8
        buffer, offset = self._locate(address, size)
        return int.from_bytes(buffer[offset:offset + size], "little")

    def write(self, address: int, width_bits: int, value: int) -> None:
        size = width_bits // 8
        buffer, offset = self._locate(address, size)
        buffer[offset:offset + size] = (value & mask(width_bits)).to_bytes(
            size, "little"
        )

    def xor_byte(self, address: int, xor_mask: int) -> None:
        """Flip bits of a single byte (used by cache-fault modelling)."""
        buffer, offset = self._locate(address, 1)
        buffer[offset] ^= xor_mask & 0xFF

    def data_bytes(self) -> bytes:
        """A copy of the entire data region (the output's memory part)."""
        return bytes(self._data)

    def fill_data(self, data: bytes) -> None:
        if len(data) != len(self._data):
            raise ValueError("initializer size mismatch")
        self._data[:] = data

    def copy(self) -> "Memory":
        """An independent memory with the same layout and contents."""
        clone = Memory.__new__(Memory)
        clone.layout = self.layout
        clone._data = bytearray(self._data)
        clone._stack = bytearray(self._stack)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return (
            self._data == other._data
            and self._stack == other._stack
            and self.layout == other.layout
        )


@dataclass
class ArchState:
    """Full architectural state of the modelled core."""

    gprs: Dict[str, int]
    xmms: Dict[str, int]
    flags: Flags
    memory: Memory

    def copy_registers(self) -> "Tuple[Dict[str, int], Dict[str, int]]":
        return dict(self.gprs), dict(self.xmms)

    def copy(self) -> "ArchState":
        """An independent copy: running on it leaves ``self`` untouched."""
        gprs, xmms = self.copy_registers()
        return ArchState(
            gprs=gprs, xmms=xmms, flags=self.flags.copy(),
            memory=self.memory.copy(),
        )


def _seeded_bytes(rng: random.Random, size: int) -> bytes:
    """``size`` successive ``rng.getrandbits(8)`` draws, in one call.

    ``getrandbits(8)`` is the top byte of one 32-bit Mersenne-Twister
    word, and ``getrandbits(32 * size)`` packs ``size`` such words
    little-endian, so every fourth byte of it gives the same bytes and
    leaves ``rng`` in the same state as drawing byte by byte.
    """
    if not size:
        return b""
    return rng.getrandbits(32 * size).to_bytes(4 * size, "little")[3::4]


def initial_state(seed: int, layout: MemoryMap) -> ArchState:
    """Build the wrapper's deterministic initial state.

    * every allocatable GPR gets a seeded 64-bit pseudo-random value,
    * RBP is pointed at the data region base (the generator's memory
      operands are ``rbp + displacement``),
    * RSP is pointed at the top of the stack region,
    * XMM registers get seeded pseudo-random *finite float* lane values
      so FP ops start from sane numbers,
    * the data region is filled with seeded pseudo-random bytes.
    """
    rng = random.Random((seed * 2654435761) % (1 << 64) + 1)
    gprs = {reg.name: rng.getrandbits(64) for reg in registers.GPR}
    gprs["rbp"] = layout.data_base
    gprs["rsp"] = layout.stack_end
    xmms: Dict[str, int] = {}
    for reg in registers.XMM:
        lanes = []
        for _ in range(4):
            # Biased-exponent floats in a moderate range: finite,
            # non-denormal values with varied mantissas.
            sign = rng.getrandbits(1)
            exponent = rng.randrange(110, 145)  # ~2^-17 .. 2^17
            mantissa = rng.getrandbits(23)
            lanes.append((sign << 31) | (exponent << 23) | mantissa)
        value = 0
        for i, lane in enumerate(lanes):
            value |= lane << (32 * i)
        xmms[reg.name] = value
    memory = Memory(layout)
    memory.fill_data(_seeded_bytes(rng, layout.data_size))
    return ArchState(gprs=gprs, xmms=xmms, flags=Flags(), memory=memory)


@dataclass(frozen=True)
class ProgramOutput:
    """The observable output of a completed run (wrapper output, §V-D).

    Equality compares the registers, RFLAGS and the raw data region, so
    deciding whether a faulty run deviated costs one byte comparison.
    """

    gprs: Tuple[Tuple[str, int], ...]
    xmms: Tuple[Tuple[str, int], ...]
    rflags: int
    data: bytes = field(repr=False)

    @classmethod
    def from_state(cls, state: ArchState) -> "ProgramOutput":
        return cls(
            gprs=tuple(sorted(state.gprs.items())),
            xmms=tuple(sorted(state.xmms.items())),
            rflags=state.flags.to_rflags(),
            data=state.memory.data_bytes(),
        )

    @property
    def memory_signature(self) -> int:
        """CRC-64 of the data region: the wrapper's memory signature."""
        return crc64(self.data)

    def signature(self) -> int:
        """Single 64-bit signature over the whole output."""
        values: List[int] = [value for _, value in self.gprs]
        values.extend(value for _, value in self.xmms)
        values.append(self.rflags & MASK64)
        values.append(self.memory_signature)
        return fold_output_signature(values)
