"""Deterministic delta-debugging witness minimization.

Given a (program, fault) pair where the program *detects* the fault,
shrink the program to a short witness that still detects the **same**
fault descriptor with the **same** outcome.  The validation oracle is
the production injection path itself: a candidate is valid iff its
fault-free golden run does not crash and
:meth:`repro.faults.injector.FaultInjector.inject` on that golden run
still classifies the fault as detected (SDC/crash), with the original
outcome when ``same_outcome`` is set.

Reduction runs three deterministic stages:

1. **Static slice seeding** — one aggressive first cut from
   :mod:`repro.analysis.static` dataflow facts: keep only instructions
   that (transitively) feed the faulted structure plus the stores
   anchoring the memory signature, and try that as a single candidate.
2. **ddmin chunk removal** — classic complement testing over a
   shrinking partition (Zeller's ddmin), halving granularity until
   single-instruction chunks.
3. **Per-instruction sweep + operand simplification** — repeated
   single-deletion passes, then immediate/displacement canonicalization
   (``imm -> 0``/``1``, ``disp -> 0``) so the surviving instructions
   are as readable as possible.

Liveness repair comes for free from the execution model: the wrapper
initializes *every* architectural register from ``init_seed`` before
the program runs (§V-D), so removing a producer never creates an
undefined read — the consumer reads the wrapper's seeded value
instead, and the oracle re-validates that the detection survives the
changed dataflow.  What removal *can* break is control flow, so
instruction removal is only attempted on programs whose branches all
resolve to the fall-through (the generator's invariant, checked
statically); anything else still gets operand simplification.

Every stage is worker-count independent: candidates are proposed in a
fixed order and the *lowest-index* valid candidate wins, whether the
batch was validated sequentially or fanned out across a
:class:`~repro.util.parallel.ResilientPool`.  Two runs over the same
(program, fault) therefore accept an identical reduction sequence and
produce byte-identical witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.analysis.static import FLAGS, instruction_facts
from repro.faults.outcomes import InjectionResult, Outcome
from repro.isa.instructions import Instruction
from repro.isa.operands import ImmOperand, MemOperand
from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.sim.cosim import golden_run
from repro.util.parallel import ResilientPool, clamp_workers

#: Histogram buckets for end-to-end minimization latency (seconds).
MINIMIZE_LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0
)


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for one minimization run (all defaults are CI-safe)."""

    #: Parallel validation fan-out (<=1 validates in-process).
    workers: int = 1
    #: Require the reduced program's outcome category (SDC vs crash)
    #: to match the original detection, not just "detected".
    same_outcome: bool = True
    #: Run the operand/immediate simplification stage.
    simplify_operands: bool = True
    #: Bound on full single-deletion sweep passes.
    max_sweep_passes: int = 4
    #: Per-candidate validation wall-clock budget (pool mode only).
    eval_timeout: Optional[float] = None


@dataclass
class MinimizeStats:
    """Book-keeping for one run.

    ``candidates_tried`` depends on the worker count (a parallel batch
    validates candidates a sequential scan would have skipped), so it
    is telemetry only — the witness artifact carries just the
    worker-independent fields.
    """

    original_instructions: int = 0
    minimized_instructions: int = 0
    instructions_removed: int = 0
    operands_simplified: int = 0
    candidates_tried: int = 0
    candidates_accepted: int = 0


@dataclass
class MinimizeResult:
    """A minimized witness program plus its reduction provenance."""

    program: Program
    fault: object
    outcome: Outcome
    crash_kind: Optional[str]
    stats: MinimizeStats
    #: Accepted reductions in order, e.g. ``slice:120->18``.  Worker-
    #: count independent (part of the byte-stable witness artifact).
    steps: Tuple[str, ...] = ()


def check_witness(
    program: Program,
    fault,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> Optional[InjectionResult]:
    """Does ``program`` still detect ``fault``?

    Returns the injection result when the program's golden run is
    crash-free and the fault is detected (SDC or crash); ``None``
    otherwise.  This is the minimizer's validation oracle — the same
    golden-run + injector path campaigns grade with.
    """
    golden = golden_run(program, machine)
    if golden.crashed:
        return None
    from repro.faults.injector import FaultInjector

    result = FaultInjector(golden).inject(fault)
    return result if result.outcome.detected else None


def _check_task(task) -> Optional[Tuple[str, Optional[str]]]:
    """Picklable pool task: validate one candidate program.

    Returns ``(outcome_value, crash_kind)`` for valid candidates and
    ``None`` otherwise (pool workers exchange plain tuples, never
    simulator state).
    """
    program, fault, machine, expected = task
    result = check_witness(program, fault, machine)
    if result is None:
        return None
    if expected is not None and result.outcome.value != expected:
        return None
    return (result.outcome.value, result.crash_kind)


def _split_chunks(
    indices: Sequence[int], parts: int
) -> List[List[int]]:
    """Split ``indices`` into ``parts`` contiguous, near-even chunks."""
    count = len(indices)
    parts = max(1, min(parts, count))
    chunks: List[List[int]] = []
    start = 0
    for part in range(parts):
        end = start + (count - start) // (parts - part)
        chunks.append(list(indices[start:end]))
        start = end
    return [chunk for chunk in chunks if chunk]


def _static_slice(
    program: Program, fault
) -> Optional[List[int]]:
    """Backward static slice seeding the first reduction candidate.

    For functional-unit faults, keep every instruction of the faulted
    class plus the transitive producers feeding it (register and flags
    def-use edges from :func:`instruction_facts`) and the stores that
    anchor the memory signature.  Returns ``None`` when the fault has
    no class affinity (register-file/cache faults touch sites chosen
    by the timing schedule — a slice computed without it would guess).
    """
    fu_class = getattr(fault, "fu_class", None)
    if fu_class is None:
        return None
    all_facts = [
        instruction_facts(index, instruction)
        for index, instruction in enumerate(program.instructions)
    ]
    seeds = {
        facts.index for facts in all_facts
        if facts.fu_class is fu_class or facts.is_store
    }
    if not seeds:
        return None
    # use -> def edges via a forward last-writer scan.
    last_def = {}
    producers: List[List[int]] = [[] for _ in all_facts]
    for facts in all_facts:
        for name in sorted(facts.reads):
            producer = last_def.get(name)
            if producer is not None:
                producers[facts.index].append(producer)
        if facts.reads_flags:
            producer = last_def.get(FLAGS)
            if producer is not None:
                producers[facts.index].append(producer)
        for name in sorted(facts.writes):
            last_def[name] = facts.index
        if facts.writes_flags:
            last_def[FLAGS] = facts.index
    keep: Set[int] = set()
    stack = sorted(seeds)
    while stack:
        index = stack.pop()
        if index in keep:
            continue
        keep.add(index)
        stack.extend(producers[index])
    if len(keep) >= len(all_facts):
        return None
    return sorted(keep)


def _removal_safe(program: Program) -> bool:
    """Instruction removal preserves control flow only when every
    branch resolves to the fall-through (displacement 0) — the
    generator's §V-D invariant.  Decoded/imported programs with real
    displacements would re-target under deletion, so they only get
    operand simplification."""
    for index, instruction in enumerate(program.instructions):
        facts = instruction_facts(index, instruction)
        if facts.is_branch and facts.branch_disp not in (0, None):
            return False
    return True


def _simplified_operands(
    instruction: Instruction,
) -> List[Tuple[int, Instruction, str]]:
    """Candidate single-operand simplifications, in slot order."""
    candidates: List[Tuple[int, Instruction, str]] = []
    for slot, operand in enumerate(instruction.operands):
        replacements = []
        if isinstance(operand, ImmOperand) and operand.value not in (0, 1):
            replacements = [
                ImmOperand(0, operand.width),
                ImmOperand(1, operand.width),
            ]
        elif isinstance(operand, MemOperand) and operand.displacement != 0:
            replacements = [MemOperand(operand.base, 0)]
        for replacement in replacements:
            operands = list(instruction.operands)
            operands[slot] = replacement
            candidates.append((
                slot,
                Instruction(instruction.definition, tuple(operands)),
                f"{operand}->{replacement}",
            ))
    return candidates


class WitnessMinimizer:
    """Shrinks one detecting program for one fault descriptor."""

    def __init__(
        self,
        fault,
        machine: MachineConfig = DEFAULT_MACHINE,
        config: MinimizeConfig = MinimizeConfig(),
    ):
        self.fault = fault
        self.machine = machine
        self.config = config
        self._pool: Optional[ResilientPool] = None
        self._expected: Optional[str] = None
        self.stats = MinimizeStats()
        self._steps: List[str] = []

    # -- candidate validation -------------------------------------------

    def _validate_batch(
        self, candidates: Sequence[Program]
    ) -> Optional[Tuple[int, Tuple[str, Optional[str]]]]:
        """First (lowest-index) valid candidate, or ``None``.

        Sequential mode short-circuits at the first valid candidate;
        pool mode validates the whole batch and picks the lowest valid
        index — the accepted candidate is identical either way.
        """
        if not candidates:
            return None
        tasks = [
            (candidate, self.fault, self.machine, self._expected)
            for candidate in candidates
        ]
        if self._pool is None:
            for index, task in enumerate(tasks):
                self.stats.candidates_tried += 1
                verdict = _check_task(task)
                if verdict is not None:
                    return index, verdict
            return None
        outcomes = self._pool.map(_check_task, tasks)
        self.stats.candidates_tried += len(tasks)
        for outcome in outcomes:
            if outcome.ok and outcome.value is not None:
                return outcome.index, tuple(outcome.value)
        return None

    def _accept(self, step: str) -> None:
        self.stats.candidates_accepted += 1
        self._steps.append(step)

    # -- reduction stages -----------------------------------------------

    def _subset(
        self, program: Program, kept: Sequence[int]
    ) -> Program:
        instructions = tuple(
            program.instructions[index] for index in kept
        )
        return program.with_instructions(instructions)

    def _slice_stage(
        self, program: Program, kept: List[int]
    ) -> List[int]:
        slice_kept = _static_slice(program, self.fault)
        if slice_kept is None or len(slice_kept) >= len(kept):
            return kept
        candidate = self._subset(program, slice_kept)
        verdict = self._validate_batch([candidate])
        if verdict is None:
            return kept
        removed = len(kept) - len(slice_kept)
        obs.inc("repro_explain_reductions_total", removed)
        self.stats.instructions_removed += removed
        self._accept(f"slice:{len(kept)}->{len(slice_kept)}")
        return slice_kept

    def _chunk_stage(
        self, program: Program, kept: List[int]
    ) -> List[int]:
        """ddmin complement testing over a shrinking partition."""
        parts = 2
        while len(kept) >= 2:
            chunks = _split_chunks(kept, parts)
            candidates = []
            survivors = []
            for drop in range(len(chunks)):
                remaining = [
                    index
                    for keep, chunk in enumerate(chunks)
                    if keep != drop
                    for index in chunk
                ]
                if not remaining:
                    continue
                survivors.append((remaining, len(chunks[drop])))
                candidates.append(self._subset(program, remaining))
            verdict = self._validate_batch(candidates)
            if verdict is not None:
                winner, _outcome = verdict
                kept, removed = survivors[winner]
                obs.inc("repro_explain_reductions_total", removed)
                self.stats.instructions_removed += removed
                self._accept(f"chunk:-{removed}@{parts}")
                parts = max(parts - 1, 2)
                continue
            if parts >= len(kept):
                break
            parts = min(len(kept), parts * 2)
        return kept

    def _sweep_stage(
        self, program: Program, kept: List[int]
    ) -> List[int]:
        """Repeated single-instruction deletion passes."""
        for _sweep in range(self.config.max_sweep_passes):
            changed = False
            position = 0
            while position < len(kept) and len(kept) > 1:
                batch_positions = list(range(position, len(kept)))
                candidates = [
                    self._subset(
                        program,
                        kept[:drop] + kept[drop + 1:],
                    )
                    for drop in batch_positions
                ]
                verdict = self._validate_batch(candidates)
                if verdict is None:
                    break
                winner, _outcome = verdict
                drop = batch_positions[winner]
                self._accept(f"sweep:-1@{kept[drop]}")
                kept = kept[:drop] + kept[drop + 1:]
                obs.inc("repro_explain_reductions_total", 1)
                self.stats.instructions_removed += 1
                changed = True
                position = drop
            if not changed:
                break
        return kept


    def _simplify_stage(self, program: Program) -> Program:
        """Canonicalize immediates/displacements, one slot at a time."""
        instructions = list(program.instructions)
        for position in range(len(instructions)):
            for slot, simplified, label in _simplified_operands(
                instructions[position]
            ):
                trial = list(instructions)
                trial[position] = simplified
                candidate = program.with_instructions(tuple(trial))
                if self._validate_batch([candidate]) is not None:
                    instructions = trial
                    self.stats.operands_simplified += 1
                    self._accept(
                        f"simplify:@{position}.{slot}:{label}"
                    )
                    break  # one accepted rewrite per slot scan
        return program.with_instructions(tuple(instructions))

    # -- entry point -----------------------------------------------------

    def minimize(self, program: Program) -> MinimizeResult:
        """Run all stages; raises ``ValueError`` when ``program`` does
        not detect the fault in the first place."""
        started = time.perf_counter()
        baseline = check_witness(program, self.fault, self.machine)
        if baseline is None:
            raise ValueError(
                f"program {program.name!r} does not detect "
                f"{self.fault!r}; nothing to minimize"
            )
        self._expected = (
            baseline.outcome.value if self.config.same_outcome else None
        )
        self.stats = MinimizeStats(
            original_instructions=len(program),
        )
        self._steps = []
        workers = clamp_workers(self.config.workers)
        if workers > 1:
            self._pool = ResilientPool(
                workers=workers, timeout=self.config.eval_timeout
            )
        try:
            with obs.span(
                "explain.minimize", program=program.name,
                fault=str(self.fault),
            ):
                kept = list(range(len(program)))
                if _removal_safe(program):
                    kept = self._slice_stage(program, kept)
                    kept = self._chunk_stage(program, kept)
                    kept = self._sweep_stage(program, kept)
                minimized = self._subset(program, kept)
                if self.config.simplify_operands:
                    minimized = self._simplify_stage(minimized)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
        minimized = minimized.with_instructions(
            minimized.instructions, name=f"{program.name}-min"
        )
        final = check_witness(minimized, self.fault, self.machine)
        if final is None or (
            self.config.same_outcome
            and final.outcome.value != baseline.outcome.value
        ):
            # Defensive: every accepted step re-validated, so the final
            # program must still detect; fall back to the original
            # rather than emit a witness that lies.
            minimized = program
            final = baseline
            self.stats = MinimizeStats(
                original_instructions=len(program),
            )
            self._steps = []
        self.stats.minimized_instructions = len(minimized)
        obs.observe(
            "repro_explain_minimize_seconds",
            time.perf_counter() - started,
            buckets=MINIMIZE_LATENCY_BUCKETS,
        )
        return MinimizeResult(
            program=minimized,
            fault=self.fault,
            outcome=final.outcome,
            crash_kind=final.crash_kind,
            stats=self.stats,
            steps=tuple(self._steps),
        )


def minimize_witness(
    program: Program,
    fault,
    machine: MachineConfig = DEFAULT_MACHINE,
    config: MinimizeConfig = MinimizeConfig(),
) -> MinimizeResult:
    """Convenience wrapper: one (program, fault) minimization."""
    return WitnessMinimizer(fault, machine, config).minimize(program)
