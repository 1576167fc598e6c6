"""Witness artifacts: stable JSON + human-readable reports.

A *witness* packages everything an engineer needs to reproduce and
understand one detection: the minimized program (as the program record
of :func:`repro.isa.encoding.program_record`, whose encoded instruction
bytes hold any reduced subset exactly — the same record checkpoints and
the fleet wire carry), the exact fault descriptor, the outcome, the
reduction trace, and the localization verdict.

The JSON form is the determinism contract's unit of comparison for
``harpocrates explain``: two minimization runs of the same (program,
fault) pair must produce byte-identical witness files, so every dump
here sorts keys, carries no wall-clock or RNG material, and encodes
values (hex strings, stable kind tags) in one canonical spelling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.explain.localize import DivergentRecord, Localization
from repro.faults.models import (
    CacheTransient,
    GateIntermittent,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.gatelevel.netlist import StuckAt
from repro.isa.encoding import program_from_record, program_record
from repro.isa.instructions import FUClass
from repro.isa.program import Program

#: Witness JSON schema version (bump on any shape change).
WITNESS_SCHEMA = 2


# ---------------------------------------------------------------------------
# Fault descriptor codec
# ---------------------------------------------------------------------------


def encode_fault(fault) -> Dict[str, object]:
    """Type-tagged JSON form of any supported fault descriptor."""
    if isinstance(fault, RegisterTransient):
        return {"kind": "register_transient", "preg": fault.preg,
                "bit": fault.bit, "cycle": fault.cycle}
    if isinstance(fault, RegisterIntermittent):
        return {"kind": "register_intermittent", "preg": fault.preg,
                "bit": fault.bit, "start_cycle": fault.start_cycle,
                "duration": fault.duration}
    if isinstance(fault, RegisterPermanent):
        return {"kind": "register_permanent", "preg": fault.preg,
                "bit": fault.bit, "stuck_value": fault.stuck_value}
    if isinstance(fault, CacheTransient):
        return {"kind": "cache_transient", "set_index": fault.set_index,
                "way": fault.way, "bit_in_line": fault.bit_in_line,
                "cycle": fault.cycle}
    if isinstance(fault, GatePermanent):
        return {"kind": "gate_permanent",
                "fu_class": fault.fu_class.value,
                "instance": fault.instance,
                "wire": fault.stuck.wire, "value": fault.stuck.value}
    if isinstance(fault, GateIntermittent):
        return {"kind": "gate_intermittent",
                "fu_class": fault.fu_class.value,
                "instance": fault.instance,
                "wire": fault.stuck.wire, "value": fault.stuck.value,
                "start_cycle": fault.start_cycle,
                "duration": fault.duration}
    raise TypeError(f"unsupported fault model: {fault!r}")


def decode_fault(payload: Dict[str, object]):
    """Inverse of :func:`encode_fault`."""
    kind = payload.get("kind")
    if kind == "register_transient":
        return RegisterTransient(
            preg=int(payload["preg"]), bit=int(payload["bit"]),
            cycle=int(payload["cycle"]),
        )
    if kind == "register_intermittent":
        return RegisterIntermittent(
            preg=int(payload["preg"]), bit=int(payload["bit"]),
            start_cycle=int(payload["start_cycle"]),
            duration=int(payload["duration"]),
        )
    if kind == "register_permanent":
        return RegisterPermanent(
            preg=int(payload["preg"]), bit=int(payload["bit"]),
            stuck_value=int(payload["stuck_value"]),
        )
    if kind == "cache_transient":
        return CacheTransient(
            set_index=int(payload["set_index"]),
            way=int(payload["way"]),
            bit_in_line=int(payload["bit_in_line"]),
            cycle=int(payload["cycle"]),
        )
    if kind == "gate_permanent":
        return GatePermanent(
            fu_class=FUClass(payload["fu_class"]),
            instance=int(payload["instance"]),
            stuck=StuckAt(int(payload["wire"]), int(payload["value"])),
        )
    if kind == "gate_intermittent":
        return GateIntermittent(
            fu_class=FUClass(payload["fu_class"]),
            instance=int(payload["instance"]),
            stuck=StuckAt(int(payload["wire"]), int(payload["value"])),
            start_cycle=int(payload["start_cycle"]),
            duration=int(payload["duration"]),
        )
    raise ValueError(f"unknown fault kind {kind!r}")


# ---------------------------------------------------------------------------
# The witness artifact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """One explained detection: minimized repro + localization."""

    target: str
    fault: object
    outcome: str
    crash_kind: Optional[str]
    original_name: str
    original_instructions: int
    minimized: Program
    #: Accepted-reduction trace, in order (worker-count independent).
    steps: Tuple[str, ...]
    instructions_removed: int
    operands_simplified: int
    localization: Localization

    @property
    def minimized_instructions(self) -> int:
        return len(self.minimized)

    @property
    def reduction(self) -> float:
        """Fraction of the original program removed (0.0 when empty)."""
        if self.original_instructions == 0:
            return 0.0
        return 1.0 - (
            self.minimized_instructions / self.original_instructions
        )

    def summary(self) -> str:
        """One-line operator digest (stderr-friendly)."""
        return (
            f"witness[{self.target}] {self.localization.site}: "
            f"{self.original_instructions} -> "
            f"{self.minimized_instructions} instructions "
            f"({self.reduction:.0%} removed), outcome={self.outcome}, "
            f"implicates {self.localization.structure}"
        )


def _encode_divergence(record: DivergentRecord) -> Dict[str, object]:
    return {
        "dyn": record.dyn,
        "static_index": record.static_index,
        "mnemonic": record.mnemonic,
        "kind": record.kind,
        "detail": record.detail,
    }


def witness_to_dict(witness: Witness) -> Dict[str, object]:
    """The canonical (stable, JSON-safe) witness payload."""
    localization = witness.localization
    return {
        "schema": WITNESS_SCHEMA,
        "target": witness.target,
        "fault": encode_fault(witness.fault),
        "outcome": witness.outcome,
        "crash_kind": witness.crash_kind,
        "original": {
            "name": witness.original_name,
            "instructions": witness.original_instructions,
        },
        "minimized": program_record(witness.minimized),
        "minimization": {
            "steps": list(witness.steps),
            "instructions_removed": witness.instructions_removed,
            "operands_simplified": witness.operands_simplified,
        },
        "localization": {
            "structure": localization.structure,
            "site": localization.site,
            "total_cycles": localization.total_cycles,
            "first_divergence_dyn": localization.first_divergence_dyn,
            "first_divergence_cycle":
                localization.first_divergence_cycle,
            "first_divergence_instruction":
                localization.first_divergence_instruction,
            "propagation": [
                _encode_divergence(record)
                for record in localization.propagation
            ],
            "corrupted_outputs": list(localization.corrupted_outputs),
        },
    }


def render_witness_json(witness: Witness) -> str:
    """Byte-stable JSON rendering (the CI-diffed artifact)."""
    return json.dumps(
        witness_to_dict(witness), indent=2, sort_keys=True
    ) + "\n"


def render_witness_text(witness: Witness) -> str:
    """Human-readable witness report."""
    localization = witness.localization
    lines: List[str] = [
        f"Witness — {witness.target}",
        f"  fault:      {localization.site}",
        f"  structure:  {localization.structure}",
        f"  outcome:    {witness.outcome}"
        + (f" ({witness.crash_kind})" if witness.crash_kind else ""),
        f"  original:   {witness.original_name} "
        f"({witness.original_instructions} instructions)",
        f"  minimized:  {witness.minimized_instructions} instructions "
        f"({witness.reduction:.0%} removed)",
    ]
    if localization.first_divergence_dyn is not None:
        lines.append(
            f"  diverges:   dyn #{localization.first_divergence_dyn} "
            f"({localization.first_divergence_instruction}) "
            f"at cycle {localization.first_divergence_cycle}"
        )
    else:
        lines.append(
            "  diverges:   only at the architectural output dump"
        )
    if localization.corrupted_outputs:
        lines.append(
            "  corrupts:   "
            + ", ".join(localization.corrupted_outputs)
        )
    if localization.propagation:
        lines.append("  propagation chain:")
        for record in localization.propagation:
            lines.append(
                f"    dyn #{record.dyn} [{record.static_index}] "
                f"{record.mnemonic}: {record.kind} — {record.detail}"
            )
    if witness.steps:
        lines.append("  reduction trace:")
        for step in witness.steps:
            lines.append(f"    {step}")
    lines.append("  program:")
    for index, instruction in enumerate(witness.minimized):
        lines.append(f"    {index:3d}  {instruction.to_asm()}")
    return "\n".join(lines) + "\n"


def witness_filename(witness: Witness, index: int) -> str:
    """Deterministic artifact basename for the ``index``-th witness."""
    structure = witness.localization.structure.replace("#", "_")
    return f"witness-{witness.target}-{index:03d}-{structure}"


def write_witness(
    witness: Witness, directory: str, index: int = 0
) -> str:
    """Write ``<name>.json`` + ``<name>.txt`` into ``directory``.

    Returns the JSON path.  Writing is atomic enough for the single
    producer case (full rewrite); contents are byte-stable across
    reruns of the same minimization.
    """
    os.makedirs(directory, exist_ok=True)
    base = witness_filename(witness, index)
    json_path = os.path.join(directory, base + ".json")
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(render_witness_json(witness))
    with open(
        os.path.join(directory, base + ".txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(render_witness_text(witness))
    return json_path


def load_witness_program(path: str) -> Tuple[Program, object, str]:
    """Load a witness JSON file → (minimized program, fault, outcome).

    The re-validation entry point: CI re-injects the decoded fault
    into the decoded program and asserts the outcome matches.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != WITNESS_SCHEMA:
        raise ValueError(
            f"unsupported witness schema {payload.get('schema')!r} "
            f"(expected {WITNESS_SCHEMA})"
        )
    return (
        program_from_record(payload["minimized"]),
        decode_fault(payload["fault"]),
        str(payload["outcome"]),
    )
