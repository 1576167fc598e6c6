"""``harpocrates explain`` — witness minimization + fault localization.

Turns campaign detections into artifacts an engineer can act on: for
each (program, fault) detection, delta-debug the program down to a
minimal witness that still detects the identical fault descriptor
(:mod:`repro.explain.minimize`), diff the faulty execution against the
golden co-simulation to implicate the structure, first-divergence
cycle, and propagation chain (:mod:`repro.explain.localize`), and emit
a byte-stable JSON witness plus a human-readable report
(:mod:`repro.explain.report`).

The whole pipeline is deterministic: same (program, fault) in, byte-
identical witness JSON out, regardless of worker count.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.explain.localize import (
    DEFAULT_MAX_CHAIN,
    DivergentRecord,
    Localization,
    fault_site,
    fault_structure,
    localize,
)
from repro.explain.minimize import (
    MinimizeConfig,
    MinimizeResult,
    WitnessMinimizer,
    check_witness,
    minimize_witness,
)
from repro.explain.report import (
    WITNESS_SCHEMA,
    Witness,
    decode_fault,
    encode_fault,
    load_witness_program,
    render_witness_json,
    render_witness_text,
    witness_filename,
    witness_to_dict,
    write_witness,
)
from repro.faults.outcomes import DetectionReport
# Decodes a witness's ``minimized`` record (the name callers know).
from repro.isa.encoding import program_from_record as decode_program
from repro.sim.cosim import GoldenRun, golden_run

__all__ = [
    "DEFAULT_MAX_CHAIN",
    "DivergentRecord",
    "Localization",
    "MinimizeConfig",
    "MinimizeResult",
    "WITNESS_SCHEMA",
    "Witness",
    "WitnessMinimizer",
    "check_witness",
    "decode_fault",
    "decode_program",
    "encode_fault",
    "explain_detection",
    "explain_detections",
    "fault_site",
    "fault_structure",
    "load_witness_program",
    "localize",
    "minimize_witness",
    "render_witness_json",
    "render_witness_text",
    "witness_filename",
    "witness_to_dict",
    "write_witness",
]


def explain_detection(
    golden: GoldenRun,
    fault,
    target_key: str = "target",
    config: MinimizeConfig = MinimizeConfig(),
) -> Witness:
    """Minimize + localize one detected fault against ``golden``.

    Raises ``ValueError`` when the program does not detect ``fault``
    (the minimizer refuses to fabricate a witness).
    """
    machine = golden.schedule.machine
    with obs.span(
        "explain.detection", target=target_key,
        program=golden.program.name,
    ):
        minimized = WitnessMinimizer(
            fault, machine, config
        ).minimize(golden.program)
        # Localize against the *minimized* program's own golden run:
        # the divergence chain should describe the witness the engineer
        # will actually replay, not the 2,000-instruction original.
        witness_golden = golden_run(minimized.program, machine)
        diagnosis = localize(witness_golden, fault)
    obs.inc("repro_explain_witnesses_total")
    return Witness(
        target=target_key,
        fault=fault,
        outcome=minimized.outcome.value,
        crash_kind=minimized.crash_kind,
        original_name=golden.program.name,
        original_instructions=len(golden.program),
        minimized=minimized.program,
        steps=minimized.steps,
        instructions_removed=minimized.stats.instructions_removed,
        operands_simplified=minimized.stats.operands_simplified,
        localization=diagnosis,
    )


def explain_detections(
    golden: GoldenRun,
    report: DetectionReport,
    top: int = 1,
    target_key: str = "target",
    workers: int = 1,
    out_dir: Optional[str] = None,
    same_outcome: bool = True,
) -> List[Witness]:
    """Explain the first ``top`` distinct detections of a campaign.

    Detections are taken in injection order (deterministic for a fixed
    campaign seed) and deduplicated by fault descriptor.  When
    ``out_dir`` is set, each witness is written as
    ``witness-<target>-<index>-<structure>.json`` / ``.txt``.
    Faults whose minimization cannot be validated are skipped rather
    than fatal: a campaign summary must not die on one odd detection.
    """
    if top <= 0:
        return []
    config = MinimizeConfig(workers=workers, same_outcome=same_outcome)
    witnesses: List[Witness] = []
    for fault in report.top_detections(top):
        try:
            witness = explain_detection(
                golden, fault, target_key=target_key, config=config
            )
        except ValueError:
            obs.inc("repro_explain_failures_total")
            continue
        if out_dir is not None:
            write_witness(witness, out_dir, index=len(witnesses))
        witnesses.append(witness)
    return witnesses
