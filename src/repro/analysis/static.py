"""Simulation-free static dataflow analysis of test programs.

Harpocrates' fitness signal is expensive: every candidate pays a full
cycle-level golden run before coverage is graded.  But the paper's own
thesis — high-value programs are ones whose bits are *architecturally
live* — names a property a static def-use analysis can bound without
simulating.  This module computes, from a :class:`~repro.isa.program.
Program` alone:

* per-instruction register/flags **read and write sets** (explicit
  operand slots, memory base registers, declared implicit operands),
* a conservative **control-flow graph** (branch displacements resolve
  statically; the generator emits only fall-through branches, but
  decoded programs may not), reachability, and loop detection,
* **backward liveness** of registers and flags by fixpoint over the
  CFG, and — for straight-line programs — a *transitive* dead-code
  pass mirroring :func:`repro.coverage.ace._transitive_liveness`,
* static **def-use chains** (producer→consumer instruction distances,
  reused by :mod:`repro.analysis.profile`),
* **memory footprint intervals** from :mod:`repro.isa.operands`
  addressing (how many distinct cache words the program can touch),

and derives a :class:`StaticReport` whose headline products are the
``dead_instruction_fraction``, the static per-:class:`FUClass` mix,
and **static upper bounds on every coverage metric** — proven
over-approximations of the dynamic ACE/IBR analyses (see the bound
methods for the per-metric soundness arguments).  A bound of exactly
``0.0`` is a certificate that the golden run is pointless: the
candidate *cannot* score, and :mod:`repro.analysis.screen` uses that
to skip its simulation entirely.

The work splits into two passes.  The **structural pass**
(:func:`structural_pass`) reads only instruction definitions and
branch displacements — CFG, reachability, loop detection, shortest
path, per-class and memory counts — which is all the L1D and IBR
bounds need; the screen runs it alone for those metrics.  The
**dataflow pass** (operand-level facts, liveness, def-use chains)
feeds only the IRF bound and the profile; :func:`analyze_program`
runs both.

Soundness is enforced two ways: the ``--paranoid`` evaluator mode
asserts ``dynamic <= bound`` on every graded program, and
``tests/property/test_static_oracle.py`` sweeps hundreds of random
programs through the same differential check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.isa.instructions import FUClass, Instruction, InstructionDef
from repro.isa.operands import MemOperand, RegOperand, RelOperand
from repro.isa.program import Program
from repro.isa.registers import GPR_NAMES
from repro.sim.config import DEFAULT_MACHINE, MachineConfig

#: Sentinel variable name for the RFLAGS condition codes in liveness
#: sets (flags are not a renamed physical register, but they carry
#: def-use dependencies exactly like one).
FLAGS = "flags"

#: Architectural GPRs mapped at program entry: the wrapper initializes
#: all of them, so the renamer starts with this many live versions.
NUM_INIT_GPR_VERSIONS = len(GPR_NAMES)

_GPR_NAME_SET = frozenset(GPR_NAMES)

#: Cache-word geometry, mirrored from :mod:`repro.coverage.ace`.
_WORD_BYTES = 8
_WORD_BITS = 64

#: Worst-case effective input bits a single FU operation can deliver,
#: per unit class.  Mirrors :data:`repro.coverage.ibr.UNIT_INPUT_WIDTH`
#: except for the integer adder: its carry-in is a 0/1 value whose
#: minimal two's-complement width is 2 bits (not the 1 bit of the
#: declared datapath), so a single op can deliver 64+64+2 bits.
_MAX_OP_EFFECTIVE_BITS = {
    FUClass.INT_ADDER: 64 + 64 + 2,
    FUClass.INT_MUL: 64 + 64,
    FUClass.INT_DIV: 128 + 64,
    FUClass.FP_ADD: 128 + 128,
    FUClass.FP_MUL: 128 + 128,
    FUClass.FP_DIV: 64 + 64,
}

#: Declared unit input widths (the IBR denominator), ditto.
_UNIT_INPUT_WIDTH = {
    FUClass.INT_ADDER: 64 + 64 + 1,
    FUClass.INT_MUL: 64 + 64,
    FUClass.INT_DIV: 128 + 64,
    FUClass.FP_ADD: 128 + 128,
    FUClass.FP_MUL: 128 + 128,
    FUClass.FP_DIV: 64 + 64,
}

#: Classes whose members access memory even without a MEM operand slot
#: (PUSH/POP).
_STACK_CLASSES = (FUClass.LOAD, FUClass.STORE)


@dataclass(frozen=True)
class InstrFacts:
    """Statically derived dataflow facts for one instruction."""

    index: int
    fu_class: FUClass
    #: Register names read (explicit src slots, memory bases, implicit
    #: reads; 8/16-bit destinations count as reads too — they merge
    #: into the old value, x86 semantics).
    reads: FrozenSet[str]
    #: Register names written (dst slots + implicit writes).  Any
    #: width kills the old *version*: the renamer allocates a fresh
    #: physical register for partial writes as well.
    writes: FrozenSet[str]
    reads_flags: bool
    writes_flags: bool
    #: Bits accessed per memory reference, or 0 when the instruction
    #: never touches memory (LEA's address-only operand included).
    mem_bits: int
    is_load: bool
    is_store: bool
    is_branch: bool
    #: Branch displacement in instruction slots relative to the next
    #: instruction (None for non-branches).
    branch_disp: Optional[int] = None
    #: Unconditional branch (``jmp``): fall-through is not a successor.
    branch_always: bool = False

    @property
    def gpr_writes(self) -> FrozenSet[str]:
        return self.writes & _GPR_NAME_SET

    @property
    def is_memory(self) -> bool:
        return self.mem_bits > 0


def _memory_access(definition: InstructionDef) -> Tuple[int, bool, bool]:
    """``(bits per access, is_load, is_store)`` of one definition."""
    bits = definition.mem_bits
    if bits == 0 and definition.fu_class in _STACK_CLASSES:
        # PUSH/POP access the stack without a MEM operand slot: their
        # class is the only static giveaway.
        return (
            64,
            definition.fu_class is FUClass.LOAD,
            definition.fu_class is FUClass.STORE,
        )
    return bits, definition.is_load, definition.is_store


def _branch_displacement(instruction: Instruction) -> Optional[int]:
    """A branch's displacement in instruction slots relative to the
    next instruction (None for non-branches)."""
    if not instruction.definition.is_branch:
        return None
    for operand in instruction.operands:
        if isinstance(operand, RelOperand):
            return operand.displacement
    return None


def instruction_facts(index: int, instruction: Instruction) -> InstrFacts:
    """Derive the read/write/memory facts of one instruction.

    Everything comes from the declared operand specs and implicit
    operand lists — the same declarations the functional simulator's
    semantics honour, which the differential oracle cross-checks.
    """
    definition = instruction.definition
    reads = set(definition.implicit_reads)
    writes = set(definition.implicit_writes)
    for spec, operand in zip(definition.operands, instruction.operands):
        if isinstance(operand, RegOperand):
            if spec.is_src:
                reads.add(operand.reg.name)
            if spec.is_dst:
                writes.add(operand.reg.name)
                if spec.width < 32:
                    # 8/16-bit writes merge into the old value; reading
                    # it keeps the previous def conservatively live.
                    reads.add(operand.reg.name)
        elif isinstance(operand, MemOperand) and operand.base is not None:
            reads.add(operand.base.name)
    mem_bits, is_load, is_store = _memory_access(definition)
    return InstrFacts(
        index=index,
        fu_class=definition.fu_class,
        reads=frozenset(reads),
        writes=frozenset(writes),
        reads_flags=definition.reads_flags,
        writes_flags=definition.writes_flags,
        mem_bits=mem_bits,
        is_load=is_load,
        is_store=is_store,
        is_branch=definition.is_branch,
        branch_disp=_branch_displacement(instruction),
        branch_always=definition.is_jmp,
    )


def _successors(
    index: int, branch_disp: Optional[int], branch_always: bool, count: int
) -> List[int]:
    """CFG successor indices of instruction ``index``; ``count`` (one
    past the last instruction) is the exit node.  ``branch_disp`` is
    None for non-branches."""
    fall_through = min(index + 1, count)
    if branch_disp is None:
        return [fall_through]
    target = index + 1 + branch_disp
    if target < 0 or target > count:
        target = count  # leaving the program is an exit
    if branch_always:
        return [target]
    if target == fall_through:
        return [fall_through]
    return [fall_through, target]


@dataclass(frozen=True)
class StructuralReport:
    """What the structural pass proved about one program.

    The structural pass reads only instruction definitions and branch
    displacements: control flow, reachability and per-class/memory
    counts.  That is everything the L1D and IBR bounds need, so the
    static screen runs this pass alone for those metrics.

    The bound methods return **upper bounds** on the corresponding
    dynamic coverage metrics, valid for any fault-free golden run of
    the program on ``machine``.  ``0.0`` is a certificate that the
    metric *must* grade to zero (crashing runs grade to zero by
    definition), which is exactly the property screening relies on —
    no false skips.
    """

    name: str
    num_instructions: int
    #: Instructions reachable from entry in the static CFG.
    reachable: int
    #: Static instruction share per FU class, over *reachable*
    #: instructions (the static analogue of the dynamic mix).
    mix: Dict[FUClass, float] = field(default_factory=dict)
    #: Reachable-instruction counts per FU class.
    class_counts: Dict[FUClass, int] = field(default_factory=dict)
    #: A backward CFG edge exists: the program may loop, so any
    #: count-based bound degrades to the trivial 1.0.
    has_backward_branch: bool = False
    #: Every reachable branch falls through (the generator's §V-D
    #: resolution) — execution is a single straight line.
    straight_line: bool = True
    #: Shortest entry→exit path length, in instructions (= the
    #: program length for straight-line code).
    min_path_instructions: int = 0
    #: Upper bound on distinct cache words that *loads* can touch
    #: (summed worst-case word spans over reachable load instructions).
    load_span_words: int = 0
    #: Reachable store instructions: each can dirty at most one cache
    #: line per execution, and a dirty data-region line accrues ACE on
    #: *every* word at writeback.
    store_instructions: int = 0
    #: Reachable memory-accessing instructions (loads + stores).
    memory_instructions: int = 0

    # -- static coverage upper bounds ---------------------------------

    def ace_l1d_bound(
        self, machine: MachineConfig = DEFAULT_MACHINE
    ) -> float:
        """Upper bound on L1D ACE vulnerability.

        Soundness: every cache event stems from a memory access, so a
        program with no reachable memory instruction produces zero
        ACE cycles — bound exactly 0.0 (loops included: no access is
        no access, no matter how often the loop runs).  Otherwise,
        within one line residency each word's accruals telescope from
        fill to close, so a word accrues at most ``total_cycles``
        across the run.  Loads accrue only the words they touch
        (``load_span_words`` over-approximates those), while a *dirty*
        data-region line accrues **all** of its words at
        eviction/flush — and loop-free programs dirty at most one
        residency per store instruction.  Hence ACE bit-cycles <=
        (load_span_words + stores * words_per_line) * 64 *
        total_cycles against ``cache.size * 8 * total_cycles``.
        """
        if self.memory_instructions == 0:
            return 0.0
        if self.has_backward_branch:
            return 1.0
        line_words = max(1, machine.cache.line_size // _WORD_BYTES)
        words = (
            self.load_span_words
            + self.store_instructions * line_words
        )
        capacity_bits = machine.cache.size * 8
        return min(1.0, words * _WORD_BITS / capacity_bits)

    def ibr_bound(
        self,
        fu_class: FUClass,
        machine: MachineConfig = DEFAULT_MACHINE,
    ) -> float:
        """Upper bound on the IBR of any instance of ``fu_class``.

        Soundness: IBR counts only FU events carrying an operation
        record, and every event's class is its instruction's class —
        so zero reachable instructions of the class is a certificate
        of IBR 0.0 (again loop-proof).  Otherwise, loop-free programs
        issue at most ``class_counts[fu_class]`` operations, each
        delivering at most :data:`_MAX_OP_EFFECTIVE_BITS` effective
        bits, while the run lasts at least
        ``ceil(min_path_instructions / commit_width)`` cycles (the
        commit stage retires at most ``commit_width`` instructions
        per cycle and every shortest-path instruction must retire).
        """
        count = self.class_counts.get(fu_class, 0)
        if count == 0:
            return 0.0
        if self.has_backward_branch:
            return 1.0
        unit_width = _UNIT_INPUT_WIDTH.get(fu_class, 128)
        per_op = _MAX_OP_EFFECTIVE_BITS.get(fu_class, unit_width)
        commit_width = max(1, machine.core.commit_width)
        cycles_floor = max(
            1, -(-self.min_path_instructions // commit_width)
        )
        return min(
            1.0, (count * per_op) / (unit_width * cycles_floor)
        )


@dataclass(frozen=True)
class StaticReport(StructuralReport):
    """Everything the static pass proved about one program: the
    structural facts plus the dataflow pass's liveness results, which
    the IRF bound and the program profile read."""

    #: Statically dead instructions (reachable but effect-free) as a
    #: fraction of all instructions; unreachable ones count as dead.
    dead_instruction_fraction: float = 0.0
    #: GPR write slots across reachable instructions (each allocates
    #: one physical register version when executed).
    gpr_defs: int = 0
    #: Of those, defs that may be consumed (statically live): dead
    #: defs provably accrue zero ACE window.
    live_gpr_defs: int = 0
    #: Static producer→consumer def-use distances, in instruction
    #: slots (straight-line programs only; empty otherwise).  Reused
    #: by :func:`repro.analysis.profile.static_profile`.
    def_use_distances: Tuple[int, ...] = ()

    def ace_irf_bound(
        self, machine: MachineConfig = DEFAULT_MACHINE
    ) -> float:
        """Upper bound on IRF ACE vulnerability.

        Soundness: ``ace_register_file`` sums, over physical register
        versions with at least one (transitively live) data read, a
        window of at most ``total_cycles`` times at most 64 exposed
        bits; the denominator is ``num_int_pregs * 64 * total_cycles``.
        So vulnerability <= V / num_int_pregs where V counts versions
        that can ever be data-read.  Versions are the wrapper's
        initial GPR mappings plus one per executed GPR write; loop-free
        programs execute each instruction at most once, so V <=
        init versions + static GPR write slots, minus the statically
        dead defs (no static consumer and overwritten before the end
        dump — such a version's read list stays empty).  With a
        backward branch the count argument fails and the bound is the
        trivial 1.0.
        """
        if self.has_backward_branch:
            return 1.0
        versions = NUM_INIT_GPR_VERSIONS + self.live_gpr_defs
        return min(1.0, versions / machine.core.num_int_pregs)

    def metric_bounds(
        self, machine: MachineConfig = DEFAULT_MACHINE
    ) -> Dict[str, float]:
        """The irf/l1d bounds plus one IBR bound per graded unit."""
        bounds = {
            "ace_irf": self.ace_irf_bound(machine),
            "ace_l1d": self.ace_l1d_bound(machine),
        }
        for fu_class in _UNIT_INPUT_WIDTH:
            bounds[f"ibr_{fu_class.value}"] = self.ibr_bound(
                fu_class, machine
            )
        return bounds


def _liveness_fixpoint(
    all_facts: List[InstrFacts],
) -> List[Tuple[FrozenSet[str], bool]]:
    """Backward may-liveness over the CFG.

    Returns, per instruction, the ``(live_registers, flags_live)``
    pair *after* the instruction (live-out).  At program exit every
    register is live — the wrapper dumps the full architectural state
    into the output signature — while the flags die (they are not
    part of the dump and not a renamed version).
    """
    count = len(all_facts)
    exit_regs = _GPR_NAME_SET | frozenset(
        f"xmm{i}" for i in range(16)
    )
    live_in: List[Tuple[FrozenSet[str], bool]] = [
        (frozenset(), False)
    ] * count
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            facts = all_facts[index]
            out_regs: FrozenSet[str] = frozenset()
            out_flags = False
            for successor in _successors(
                facts.index, facts.branch_disp, facts.branch_always, count
            ):
                if successor >= count:
                    out_regs |= exit_regs
                else:
                    succ_regs, succ_flags = live_in[successor]
                    out_regs |= succ_regs
                    out_flags = out_flags or succ_flags
            in_regs = (out_regs - facts.writes) | facts.reads
            in_flags = facts.reads_flags or (
                out_flags and not facts.writes_flags
            )
            if (in_regs, in_flags) != live_in[index]:
                live_in[index] = (in_regs, in_flags)
                changed = True
    # Convert to live-out by one more successor union.
    live_out: List[Tuple[FrozenSet[str], bool]] = []
    for facts in all_facts:
        out_regs = frozenset()
        out_flags = False
        for successor in _successors(
            facts.index, facts.branch_disp, facts.branch_always, count
        ):
            if successor >= count:
                out_regs |= exit_regs
            else:
                succ_regs, succ_flags = live_in[successor]
                out_regs |= succ_regs
                out_flags = out_flags or succ_flags
        live_out.append((out_regs, out_flags))
    return live_out


def _straight_line_chains(
    all_facts: List[InstrFacts],
) -> Tuple[List[bool], List[int], Dict[Tuple[int, str], bool]]:
    """Transitive dead-code + def-use chains for straight-line code.

    Mirrors the dynamic :func:`repro.coverage.ace._transitive_liveness`
    rule: an instruction is *architecturally live* when it writes
    memory, or one of its register/flags defs is consumed by a live
    later instruction or survives to the wrapper's end-of-program
    state dump.  Returns ``(live, def_use_distances, def_live)`` where
    ``def_live[(index, reg)]`` says whether that particular GPR def
    can ever be data-read.
    """
    count = len(all_facts)
    live = [False] * count
    distances: List[int] = []
    def_live: Dict[Tuple[int, str], bool] = {}
    # last_def[var] = index of the most recent writer when scanning
    # forward; used to build use->def edges, then liveness runs
    # backward over those edges.
    last_def: Dict[str, int] = {}
    uses_of: Dict[int, List[Tuple[int, str]]] = {}
    end_defs: Dict[str, int] = {}
    for facts in all_facts:
        for name in sorted(facts.reads):
            producer = last_def.get(name)
            if producer is not None:
                uses_of.setdefault(producer, []).append(
                    (facts.index, name)
                )
                distances.append(facts.index - producer)
        if facts.reads_flags:
            producer = last_def.get(FLAGS)
            if producer is not None:
                uses_of.setdefault(producer, []).append(
                    (facts.index, FLAGS)
                )
        for name in sorted(facts.writes):
            last_def[name] = facts.index
        if facts.writes_flags:
            last_def[FLAGS] = facts.index
    for name, index in last_def.items():
        end_defs[name] = index
    for index in range(count - 1, -1, -1):
        facts = all_facts[index]
        if facts.is_store:
            live[index] = True
        alive = live[index]
        for reader, name in uses_of.get(index, ()):
            if name != FLAGS:
                # Any static reader keeps the def potentially-live:
                # the dynamic analysis filters readers through its own
                # transitive-liveness refinement, which can only
                # shrink the set — staying unrefined here is the
                # conservative (over-approximating) side.
                def_live[(index, name)] = True
            if live[reader]:
                alive = True
        for name in facts.writes:
            if end_defs.get(name) == index:
                # Still mapped at program end: the wrapper dump reads
                # it, keeping both the def and the instruction live.
                # (Flags are not dumped — a final flags def is dead.)
                def_live[(index, name)] = True
                alive = True
        live[index] = alive
    return live, distances, def_live


def _control_flow(
    branches: Dict[int, Tuple[Optional[int], bool]], count: int
) -> Tuple[List[bool], bool, bool, int]:
    """``(reachable, has_backward_branch, straight_line, min_path)``
    from the ``{index: (displacement, is_jmp)}`` map of branches."""
    if all(disp == 0 for disp, _ in branches.values()):
        # Every branch falls through (the generator's programs): one
        # straight line through every instruction.
        return [True] * count, False, True, count
    successors = [
        _successors(index, *branches.get(index, (None, False)), count)
        for index in range(count)
    ]

    # Reachability (forward DFS) + loop detection.
    reachable = [False] * count
    stack = [0] if count else []
    while stack:
        index = stack.pop()
        if index >= count or reachable[index]:
            continue
        reachable[index] = True
        for successor in successors[index]:
            if successor < count and not reachable[successor]:
                stack.append(successor)
    has_backward = any(
        reachable[index] and successor <= index
        for index in range(count)
        for successor in successors[index]
        if successor < count
    )
    straight_line = not has_backward and all(
        disp == 0
        for index, (disp, _) in branches.items()
        if reachable[index]
    )

    # Shortest entry->exit path (BFS over the unweighted CFG).
    min_path = count  # fall-through worst case
    if count and not straight_line:
        dist = {0: 0}
        queue = deque([0])
        while queue:
            index = queue.popleft()
            for successor in successors[index]:
                if successor not in dist:
                    dist[successor] = dist[index] + 1
                    if successor < count:
                        queue.append(successor)
        min_path = dist.get(count, count)
    return reachable, has_backward, straight_line, min_path


def _structure(program: Program) -> Tuple[StructuralReport, List[bool]]:
    """The structural pass, plus its per-instruction reachability."""
    instructions = program.instructions
    count = len(instructions)
    branches: Dict[int, Tuple[Optional[int], bool]] = {}
    for index, instruction in enumerate(instructions):
        definition = instruction.definition
        if definition.is_branch:
            branches[index] = (
                _branch_displacement(instruction), definition.is_jmp
            )
    reachable, has_backward, straight_line, min_path = _control_flow(
        branches, count
    )

    reachable_count = 0
    class_counts: Dict[FUClass, int] = {}
    memory_instructions = 0
    load_span_words = 0
    store_instructions = 0
    for instruction, live in zip(instructions, reachable):
        if not live:
            continue
        reachable_count += 1
        definition = instruction.definition
        fu_class = definition.fu_class
        class_counts[fu_class] = class_counts.get(fu_class, 0) + 1
        mem_bits, is_load, is_store = _memory_access(definition)
        if mem_bits:
            memory_instructions += 1
        if is_load:
            # Worst-case word span of an access of s bytes at any
            # alignment: ceil((7 + s) / 8) == (s + 6) // 8 + 1 words.
            load_span_words += (
                (mem_bits // 8 + _WORD_BYTES - 2) // _WORD_BYTES + 1
            )
        if is_store:
            store_instructions += 1
    mix = {
        fu_class: cls_count / reachable_count
        for fu_class, cls_count in class_counts.items()
    }
    report = StructuralReport(
        name=program.name,
        num_instructions=count,
        reachable=reachable_count,
        mix=mix,
        class_counts=class_counts,
        has_backward_branch=has_backward,
        straight_line=straight_line,
        min_path_instructions=min_path,
        load_span_words=load_span_words,
        store_instructions=store_instructions,
        memory_instructions=memory_instructions,
    )
    return report, reachable


def structural_pass(program: Program) -> StructuralReport:
    """Run only the structural pass: all the L1D and IBR bounds read."""
    return _structure(program)[0]


def analyze_program(program: Program) -> StaticReport:
    """Run the full static pass over one program: the structural pass
    plus the dataflow pass (liveness, dead code, def-use chains)."""
    structure, reachable = _structure(program)
    count = structure.num_instructions
    all_facts = [
        instruction_facts(index, instruction)
        for index, instruction in enumerate(program.instructions)
    ]
    reachable_facts = [
        facts for facts in all_facts if reachable[facts.index]
    ]
    gpr_defs = sum(
        len(facts.gpr_writes) for facts in reachable_facts
    )

    dead_count = count - structure.reachable
    distances: Tuple[int, ...] = ()
    live_gpr_defs = gpr_defs
    if structure.straight_line and count:
        live, raw_distances, def_live = _straight_line_chains(all_facts)
        dead_count += sum(1 for flag in live if not flag)
        distances = tuple(raw_distances)
        live_gpr_defs = sum(
            1
            for facts in all_facts
            for name in facts.gpr_writes
            if def_live.get((facts.index, name), False)
        )
    elif not structure.straight_line:
        # Conservative: simple liveness only, every def may be read.
        live_out = _liveness_fixpoint(all_facts)
        for facts in reachable_facts:
            out_regs, out_flags = live_out[facts.index]
            has_effect = (
                facts.is_store
                or bool(facts.writes & out_regs)
                or (facts.writes_flags and out_flags)
                or (
                    facts.is_branch
                    and facts.branch_disp not in (0, None)
                )
            )
            if not has_effect:
                dead_count += 1

    return StaticReport(
        **{
            spec.name: getattr(structure, spec.name)
            for spec in fields(StructuralReport)
        },
        dead_instruction_fraction=(
            dead_count / count if count else 0.0
        ),
        gpr_defs=gpr_defs,
        live_gpr_defs=live_gpr_defs,
        def_use_distances=distances,
    )
