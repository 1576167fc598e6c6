"""Architectural register definitions for the x86-64-style ISA.

The register model mirrors the subset of x86-64 state the paper's
generator manipulates: the sixteen 64-bit general purpose registers, the
sixteen 128-bit XMM (SSE) registers, the RFLAGS condition bits and RIP.

Registers are interned: looking a name up always returns the same
:class:`Register` object, so identity comparison is safe everywhere.
They pickle by name, so an unpickled register is the interned object
too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List


class RegClass(enum.Enum):
    """Architectural register file a register belongs to."""

    GPR = "gpr"
    XMM = "xmm"
    FLAGS = "flags"
    RIP = "rip"


@dataclass(frozen=True)
class Register:
    """A single architectural register."""

    name: str
    index: int
    reg_class: RegClass
    width: int

    def __reduce__(self):
        # The interned register pickles as a lookup by name; any other
        # (hand-made) register pickles by value.
        if _REGISTRY.get(self.name) is self:
            return by_name, (self.name,)
        return Register, (self.name, self.index, self.reg_class, self.width)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


GPR_NAMES: List[str] = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]
XMM_NAMES: List[str] = [f"xmm{i}" for i in range(16)]

_REGISTRY: Dict[str, Register] = {}


def _register(name: str, index: int, reg_class: RegClass, width: int) -> Register:
    reg = Register(name, index, reg_class, width)
    _REGISTRY[name] = reg
    return reg


GPR: List[Register] = [
    _register(name, i, RegClass.GPR, 64) for i, name in enumerate(GPR_NAMES)
]
XMM: List[Register] = [
    _register(name, i, RegClass.XMM, 128) for i, name in enumerate(XMM_NAMES)
]
RFLAGS = _register("rflags", 0, RegClass.FLAGS, 64)
RIP = _register("rip", 0, RegClass.RIP, 64)

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = GPR[:8]
R8, R9, R10, R11, R12, R13, R14, R15 = GPR[8:]

#: Registers the constrained-random generator may allocate freely.  RSP is
#: reserved for the stack, RBP is reserved as the data-region base pointer
#: (paper §V-D resolves memory operands inside a designated region).
ALLOCATABLE_GPRS: List[Register] = [
    reg for reg in GPR if reg.name not in ("rsp", "rbp")
]

ALLOCATABLE_XMMS: List[Register] = list(XMM)


def by_name(name: str) -> Register:
    """Look up a register by its lowercase name (e.g. ``"rax"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown register {name!r}") from None


def gpr(index: int) -> Register:
    """Return the GPR with the given architectural index (0..15)."""
    return GPR[index]


def xmm(index: int) -> Register:
    """Return the XMM register with the given architectural index (0..15)."""
    return XMM[index]


def all_registers() -> List[Register]:
    """All architectural registers (GPRs, XMMs, RFLAGS, RIP)."""
    return GPR + XMM + [RFLAGS, RIP]
