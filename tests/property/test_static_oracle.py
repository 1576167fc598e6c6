"""The static/dynamic differential oracle, swept at scale.

The static screen's entire safety case is two inequalities:

* **soundness** — for every program and every metric, the static
  upper bound from :func:`repro.analysis.screen.static_bound` is >=
  the dynamically graded coverage (else ``--paranoid`` would abort
  real campaigns); and
* **no false skips** — a candidate the screen would drop (bound ==
  0.0) must grade to exactly zero dynamically (else screening would
  change campaign results, breaking stdout byte-identity).

Both are checked here over 500 constrained-random programs — every
metric the loop can target, including one IBR instance per functional
unit class — plus the premise underneath the whole analysis: the
dynamic read/write sets recorded by the functional simulator are
subsets of the statically derived ones.
"""

import random
from collections import Counter

import pytest

from repro.analysis.screen import report_bound, static_bound
from repro.analysis.static import (
    FLAGS,
    analyze_program,
    instruction_facts,
    structural_pass,
)
from repro.core.targets import scaled_targets
from repro.coverage.metrics import (
    AceIrfCoverage,
    AceL1dCoverage,
    IbrCoverage,
)
from repro.isa import Program, imm, make, mem, reg, rel, x64
from repro.isa.instructions import FUClass
from repro.isa.operands import MemOperand, RelOperand
from repro.microprobe import GenerationConfig, Synthesizer
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.cosim import golden_run

#: Seeds swept by the differential oracle (the ISSUE's floor is 500).
SWEEP_SEEDS = range(500)

#: Slack for float accumulation in the dynamic graders.
TOLERANCE = 1e-9


def _metrics():
    metrics = [AceIrfCoverage(), AceL1dCoverage()]
    metrics.extend(IbrCoverage(fu_class) for fu_class in FUClass)
    return metrics


@pytest.fixture(scope="module")
def synthesizer():
    return Synthesizer(
        config=GenerationConfig(num_instructions=60, data_size=2048)
    )


@pytest.fixture(scope="module")
def sweep(synthesizer):
    """(program, report, golden) for every sweep seed, computed once."""
    rows = []
    for seed in SWEEP_SEEDS:
        program = synthesizer.synthesize_random(seed)
        report = analyze_program(program)
        golden = golden_run(program, DEFAULT_MACHINE)
        rows.append((program, report, golden))
    return rows


def test_static_bound_dominates_dynamic_coverage(sweep):
    """Soundness: dynamic score <= static bound, every program x metric."""
    metrics = _metrics()
    machine = DEFAULT_MACHINE
    checked = 0
    for program, report, golden in sweep:
        if golden.crashed:
            continue
        scoped = machine.for_program(program.data_size)
        for metric in metrics:
            bound = report_bound(report, metric, scoped)
            assert bound is not None, metric.name
            fitness = metric(golden)
            assert fitness <= bound + TOLERANCE, (
                f"{program.name}: dynamic {metric.name}={fitness!r} "
                f"exceeds static bound {bound!r}"
            )
            checked += 1
    assert checked >= 500 * len(metrics) * 0.9  # sweep really ran


def test_zero_bound_programs_grade_to_zero(sweep):
    """No false skips: a screened-out candidate scores exactly 0.0."""
    metrics = _metrics()
    zero_bounds = 0
    for program, report, golden in sweep:
        scoped = DEFAULT_MACHINE.for_program(program.data_size)
        for metric in metrics:
            if report_bound(report, metric, scoped) != 0.0:
                continue
            zero_bounds += 1
            assert metric(golden) == 0.0, (
                f"{program.name}: {metric.name} screened out but "
                "grades nonzero — a false skip"
            )
    # The generator's FU mix leaves many classes untouched per
    # program, so zero bounds must be plentiful across the sweep.
    assert zero_bounds > 0


def test_dynamic_access_sets_are_subsets_of_static_facts(sweep):
    """The analysis premise: recorded reads/writes c= static sets."""
    for program, report, golden in sweep:
        if golden.crashed:
            continue
        facts = [
            instruction_facts(index, instruction)
            for index, instruction in enumerate(program.instructions)
        ]
        for record in golden.result.records:
            fact = facts[record.index]
            static_reads = set(fact.reads)
            if fact.reads_flags:
                static_reads.add(FLAGS)
            static_writes = set(fact.writes)
            if fact.writes_flags:
                static_writes.add(FLAGS)
            assert set(record.reads) <= static_reads, (
                f"{program.name}@{record.index}: dynamic reads "
                f"{sorted(record.reads)} not within static "
                f"{sorted(static_reads)}"
            )
            assert set(record.writes) <= static_writes, (
                f"{program.name}@{record.index}: dynamic writes "
                f"{sorted(record.writes)} not within static "
                f"{sorted(static_writes)}"
            )


def _with_random_branches(program, seed):
    """``program`` with a few instructions swapped for branches of
    random kind and displacement (backward, forward, past either end)."""
    rng = random.Random(seed)
    isa = x64()
    instructions = list(program.instructions)
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("jmp_rel", "jz_rel", "jnz_rel"))
        displacement = rng.randint(
            -len(instructions) - 3, len(instructions) + 3
        )
        instructions[rng.randrange(len(instructions))] = make(
            isa.by_name(kind), rel(displacement)
        )
    return program.with_instructions(
        tuple(instructions), name=f"{program.name}-branchy"
    )


def _crafted_programs():
    """Hand-built corner cases of the structural pass, by name."""
    isa = x64()
    op = isa.by_name
    imul = make(op("imul_r64_r64"), reg("rdx"), reg("rax"))
    add = make(op("add_r64_r64"), reg("rax"), reg("rcx"))
    load = make(op("mov_r64_m64"), reg("rbx"), mem("rbp", 8))
    store = make(op("mov_m64_r64"), mem("rbp", 16), reg("rdx"))
    fp_load = make(op("mulsd_x_m"), reg("xmm1"), mem("rbp", 24))
    cases = {
        "empty": [],
        "single": [imul],
        "single-store": [store],
        "skip-only-imul": [make(op("jmp_rel"), rel(1)), imul, add],
        "skip-only-load": [make(op("jmp_rel"), rel(1)), load, add],
        "skip-only-store": [make(op("jmp_rel"), rel(1)), store, add],
        "cond-skip-load": [make(op("jz_rel"), rel(1)), load, add],
        "backward-jmp": [add, load, make(op("jmp_rel"), rel(-3))],
        "backward-cond": [imul, store, make(op("jnz_rel"), rel(-2))],
        "jmp-fall-through": [make(op("jmp_rel"), rel(0)), fp_load],
        "jmp-past-end": [add, make(op("jmp_rel"), rel(9)), store],
        "jmp-before-start": [make(op("jz_rel"), rel(-9)), load, imul],
        "push-pop": [
            make(op("push_r64"), reg("rax")),
            make(op("push_imm32"), imm(7)),
            make(op("pop_r64"), reg("rcx")),
            add,
        ],
        "lea-only": [make(op("lea_r64_m"), reg("rax"), mem("rbp", 8))],
        "lea-and-load": [
            make(op("lea_r64_m"), reg("rax"), mem("rbp", 8)), load,
        ],
    }
    return {
        name: Program(
            instructions=tuple(body), name=name, init_seed=1,
            data_size=2048,
        )
        for name, body in cases.items()
    }


def _reference_structure(program):
    """The structural facts recomputed naively from operand values."""
    instructions = program.instructions
    count = len(instructions)

    def successors(index):
        instruction = instructions[index]
        definition = instruction.definition
        displacements = [
            operand.displacement
            for operand in instruction.operands
            if isinstance(operand, RelOperand)
        ]
        if not definition.is_branch or not displacements:
            return [index + 1]
        target = index + 1 + displacements[0]
        if not 0 <= target <= count:
            target = count
        if definition.semantic == "jmp":
            return [target]
        return [index + 1, target]

    dist = {0: 0} if count else {}
    queue = [0] if count else []
    for index in queue:
        if index < count:
            for successor in successors(index):
                if successor not in dist:
                    dist[successor] = dist[index] + 1
                    queue.append(successor)
    reachable = sorted(index for index in dist if index < count)
    class_counts = Counter(
        instructions[index].definition.fu_class for index in reachable
    )
    memory = load_words = stores = 0
    for index in reachable:
        instruction = instructions[index]
        definition = instruction.definition
        bits = max(
            (
                spec.width
                for spec, operand in zip(
                    definition.operands, instruction.operands
                )
                if isinstance(operand, MemOperand)
                and not definition.address_only
            ),
            default=0,
        )
        is_load, is_store = definition.is_load, definition.is_store
        if bits == 0 and definition.fu_class in (
            FUClass.LOAD, FUClass.STORE
        ):
            bits = 64
            is_load = definition.fu_class is FUClass.LOAD
            is_store = definition.fu_class is FUClass.STORE
        memory += bits > 0
        load_words += is_load * (-(-(bits // 8 + 7) // 8))
        stores += is_store
    return {
        "reachable": len(reachable),
        "class_counts": dict(class_counts),
        "has_backward_branch": any(
            successor <= index
            for index in reachable
            for successor in successors(index)
        ),
        "min_path_instructions": dist.get(count, count) if count else 0,
        "memory_instructions": memory,
        "load_span_words": load_words,
        "store_instructions": stores,
    }


def test_static_bound_matches_report_bound(synthesizer):
    """The screen's per-metric analysis agrees exactly with the full
    report, and the structural pass with a naive reference, over
    synthesized, randomly branched and hand-built programs."""
    programs = list(_crafted_programs().values())
    for seed in range(150):
        program = synthesizer.synthesize_random(seed)
        programs.append(program)
        programs.append(_with_random_branches(program, seed))
    machines = (DEFAULT_MACHINE, scaled_targets()["l1d"].machine)
    zero_bounds = 0
    for program in programs:
        report = analyze_program(program)
        structure = structural_pass(program)
        for name, expected in _reference_structure(program).items():
            assert getattr(structure, name) == expected, \
                (program.name, name)
            assert getattr(report, name) == expected, (program.name, name)
        for machine in machines:
            scoped = machine.for_program(program.data_size)
            for metric in _metrics():
                bound = static_bound(program, metric, machine)
                assert bound == report_bound(report, metric, scoped), \
                    (program.name, metric.name)
                zero_bounds += bound == 0.0
    assert zero_bounds > 0
