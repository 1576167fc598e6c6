"""Value-override descriptors used to replay a run under a fault.

The fault injector never re-runs a faulty *timing* simulation; it
re-runs the cheap functional simulation with a set of surgical value
overrides derived from the golden timing schedule (see DESIGN.md,
"Co-simulation golden run").  This module defines the override
container the functional simulator honours.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple


class DynamicFUFault(Protocol):
    """A live faulty-functional-unit model for permanent-fault re-runs.

    Static per-instruction overrides are computed from *golden* inputs;
    when a fault's effect cascades (an earlier corrupted result feeds a
    later operation on the faulty unit), the re-run consults this hook
    with the *actual* inputs so the faulty unit is modelled exactly.
    """

    def apply_int(
        self, dyn: int, inputs: Tuple[int, ...], golden: int, width: int
    ) -> int:
        """Return the faulty unit's result for an integer operation."""
        ...

    def apply_lanes(
        self,
        dyn: int,
        lane_inputs: List[Tuple[int, int]],
        results: List[int],
        lane_width: int,
        op_name: str,
    ) -> List[int]:
        """Return the faulty unit's per-lane results for an SSE op."""
        ...


@dataclass
class Overrides:
    """Corruptions to overlay on a functional re-execution.

    All keys are *dynamic instruction indices* (equal to static indices
    for the linear programs every framework here produces).
    """

    #: ``(dyn_index, arch_reg_name) -> xor_mask`` applied to the 64-bit
    #: value delivered by a register read (physical-register-file
    #: transient faults).
    reg_read_xor: Dict[Tuple[int, str], int] = field(default_factory=dict)
    #: ``dyn_index -> xor_mask`` applied to the value delivered by that
    #: instruction's memory read (L1D transient faults).
    load_xor: Dict[int, int] = field(default_factory=dict)
    #: ``dyn_index -> replacement result`` for integer FU operations
    #: (gate-level permanent faults in the adder/multiplier).
    fu_int: Dict[int, int] = field(default_factory=dict)
    #: ``dyn_index -> {lane -> replacement bits}`` for SSE FU operations.
    fu_lanes: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: ``byte_address -> xor_mask`` applied to data-region memory after
    #: the run, before the output signature is computed (dirty faulty
    #: data written back to memory by the cache).
    final_mem_xor: Dict[int, int] = field(default_factory=dict)
    #: ``arch_reg_name -> xor_mask`` applied to the final register state
    #: before the output is computed (a physical-register fault that is
    #: still live when the wrapper dumps the architectural state).
    final_reg_xor: Dict[str, int] = field(default_factory=dict)
    #: ``(dyn_index, arch_reg_name) -> (and_mask, or_mask)`` applied to
    #: register reads *after* the xor overrides: models stuck-at bits in
    #: the physical register file (``and`` clears stuck-at-0 bits,
    #: ``or`` sets stuck-at-1 bits).
    reg_read_force: Dict[Tuple[int, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: ``arch_reg_name -> (and_mask, or_mask)`` applied to the final
    #: register state (stuck-at bit live at the output dump).
    final_reg_force: Dict[str, Tuple[int, int]] = field(
        default_factory=dict
    )
    #: Live faulty-unit model for permanent FU faults (takes precedence
    #: over ``fu_int``/``fu_lanes`` when set).
    fu_dynamic: Optional[DynamicFUFault] = None
    #: Salt for non-deterministic instructions; two runs with different
    #: salts expose non-determinism (the SiliFuzz determinism filter).
    nondet_salt: int = 0

    def has_final(self) -> bool:
        """Does an override act on the output after the last instruction?"""
        return bool(
            self.final_mem_xor or self.final_reg_xor or self.final_reg_force
        )

    def dyn_span(self) -> Optional[Tuple[int, int]]:
        """``(first, last)`` dynamic index a per-instruction override can
        change a value at, or ``None`` when that is unbounded.

        Before ``first`` a replay under these overrides executes exactly
        the fault-free run; after ``last`` it can differ from it only
        through the state it carries.  With no per-instruction override
        the span is ``(sys.maxsize, -1)``.  A live unit model bounds its
        span through its ``span`` attribute (its first and last
        operation with a nonzero golden-input diff) and is unbounded
        without one.  A salted run is unbounded: it diverges at its
        first non-deterministic instruction.
        """
        if self.nondet_salt:
            return None
        dyns = [dyn for dyn, _reg in self.reg_read_xor]
        dyns.extend(dyn for dyn, _reg in self.reg_read_force)
        dyns.extend(self.load_xor)
        if self.fu_dynamic is not None:
            span = getattr(self.fu_dynamic, "span", None)
            if span is None:
                return None
            dyns.extend(span)
        else:
            dyns.extend(self.fu_int)
            dyns.extend(self.fu_lanes)
        if not dyns:
            return (sys.maxsize, -1)
        return (min(dyns), max(dyns))

    def is_empty(self) -> bool:
        return not (
            self.reg_read_xor
            or self.load_xor
            or self.fu_int
            or self.fu_lanes
            or self.final_mem_xor
            or self.final_reg_xor
            or self.reg_read_force
            or self.final_reg_force
            or self.fu_dynamic
        )
