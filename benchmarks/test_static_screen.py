"""Static screening benchmarks: scoring without simulating, measured.

The screen's perf claim: a population with provably-zero candidates
evaluates faster with screening on, at byte-identical scores.  The
gate asserts both halves — identical fitness vectors (correctness)
and no slowdown (the analysis pass must pay for itself) — and emits
``BENCH_static_screen.json`` with the skip rate and throughput.  A
second gate covers the common case, a natural population with no
zero-bound candidate: there the screen saves nothing, so it must cost
next to nothing (``BENCH_static_screen_no_zeros.json``).
"""

import time

from repro.analysis.screen import static_bound
from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.targets import scaled_targets

SCALES = (0.04, 0.012)  # bench-preset program/loop scales
TARGET_KEY = "fp_mul"
POPULATION = 24


def _batch(spec):
    """Half natural candidates, half provably-zero ones.

    Stripping the target class from a candidate mirrors what the
    replacement mutator routinely produces mid-campaign: genomes with
    no instruction the metric can reward.
    """
    from repro.isa.instructions import FUClass

    population = Generator(spec.generation).initial_population(
        POPULATION // 2, base_seed=29
    )
    stripped = [
        program.with_instructions(
            tuple(
                instruction
                for instruction in program.instructions
                if instruction.definition.fu_class
                is not FUClass.FP_MUL
            ),
            name=f"{program.name}-zero",
        )
        for program in population
    ]
    return population + stripped


def test_screening_throughput(bench_artifact):
    spec = scaled_targets(*SCALES)[TARGET_KEY]
    batch = _batch(spec)

    off = Evaluator(spec.metric, spec.machine, static_screen=False)
    try:
        started = time.perf_counter()
        unscreened = off.evaluate(batch)
        off_seconds = time.perf_counter() - started
    finally:
        off.close()

    on = Evaluator(spec.metric, spec.machine, static_screen=True)
    try:
        started = time.perf_counter()
        screened = on.evaluate(batch)
        on_seconds = time.perf_counter() - started
        skips = on.health.static_skips
    finally:
        on.close()

    # Correctness gate: screening may never change a score.
    assert [e.fitness for e in screened] == \
        [e.fitness for e in unscreened]
    # Every stripped candidate must have been screened out.
    assert skips >= POPULATION // 2
    # Perf gate: with half the batch skippable, the analysis pass
    # must pay for itself outright (generous margin for CI noise).
    assert on_seconds <= off_seconds * 1.10

    speedup = off_seconds / on_seconds if on_seconds > 0 else 0.0
    print()
    print(
        f"screen off: {off_seconds * 1000:.1f} ms, "
        f"on: {on_seconds * 1000:.1f} ms "
        f"({skips}/{len(batch)} skipped, {speedup:.2f}x)"
    )
    bench_artifact("static_screen", {
        "population": len(batch),
        "static_skips": skips,
        "seconds_screen_off": off_seconds,
        "seconds_screen_on": on_seconds,
        "speedup": speedup,
        "evals_per_second_on": len(batch) / on_seconds,
        "evals_per_second_off": len(batch) / off_seconds,
    })


#: Target whose natural programs all touch memory: no L1D bound is 0.
NO_ZERO_TARGET_KEY = "l1d"
#: Alternating off/on repeats; the gate compares the best of each.
REPEATS = 5


def _timed_evaluation(spec, batch, static_screen):
    """Seconds to grade ``batch`` on a fresh evaluator, its scores and
    its screen skips."""
    evaluator = Evaluator(
        spec.metric, spec.machine, static_screen=static_screen
    )
    try:
        started = time.perf_counter()
        graded = evaluator.evaluate(batch)
        seconds = time.perf_counter() - started
        return seconds, [entry.fitness for entry in graded], \
            evaluator.health.static_skips
    finally:
        evaluator.close()


def test_screening_costs_little_without_zeros(bench_artifact):
    spec = scaled_targets(*SCALES)[NO_ZERO_TARGET_KEY]
    batch = Generator(spec.generation).initial_population(
        POPULATION, base_seed=29
    )
    assert all(
        static_bound(program, spec.metric, spec.machine) > 0.0
        for program in batch
    )

    off_seconds = on_seconds = float("inf")
    for _ in range(REPEATS):
        seconds, unscreened, _ = _timed_evaluation(spec, batch, False)
        off_seconds = min(off_seconds, seconds)
        seconds, screened, skips = _timed_evaluation(spec, batch, True)
        on_seconds = min(on_seconds, seconds)

    # Correctness gate: screening may never change a score.
    assert screened == unscreened
    assert skips == 0
    # Perf gate: with nothing to skip, the structural pass must stay
    # within noise of not screening at all.
    assert on_seconds <= off_seconds * 1.10

    print()
    print(
        f"no zeros, screen off: {off_seconds * 1000:.1f} ms, "
        f"on: {on_seconds * 1000:.1f} ms "
        f"({on_seconds / off_seconds - 1:+.1%})"
    )
    bench_artifact("static_screen_no_zeros", {
        "population": len(batch),
        "static_skips": skips,
        "seconds_screen_off": off_seconds,
        "seconds_screen_on": on_seconds,
        "overhead": on_seconds / off_seconds - 1,
    })
