"""Zero-bound static screening: skip counting, result fidelity, and
the paranoid differential oracle."""

import pytest

from repro.analysis.screen import (
    bound_can_be_zero,
    should_skip,
    static_bound,
)
from repro.core import evaluator as evaluator_module
from repro.core.errors import StaticOracleError
from repro.core.evaluator import (
    EvaluatedProgram,
    EvalHealth,
    Evaluator,
)
from repro.core.targets import scaled_targets
from repro.coverage.metrics import IbrCoverage
from repro.experiments.fig10 import campaign_stdout, run_target
from repro.experiments.presets import SMOKE
from repro.isa.instructions import FUClass

SCALES = (SMOKE.program_scale, SMOKE.loop_scale)


def _spec(key="int_mul"):
    return scaled_targets(*SCALES)[key]


def _population(spec, count=6):
    from repro.core.generator import Generator

    return Generator(spec.generation).initial_population(
        count, base_seed=17
    )


def _strip_class(program, fu_class):
    """The program minus every instruction of ``fu_class``."""
    kept = [
        instruction
        for instruction in program.instructions
        if instruction.definition.fu_class is not fu_class
    ]
    return program.with_instructions(
        tuple(kept), name=f"{program.name}-stripped"
    )


def test_screened_program_counts_and_scores_zero():
    spec = _spec("int_mul")
    population = _population(spec)
    # Force a guaranteed skip: a candidate with zero INT_MUL
    # instructions has a provably-zero IBR bound.
    stripped = _strip_class(population[0], FUClass.INT_MUL)
    assert should_skip(stripped, spec.metric, spec.machine)
    batch = [stripped] + population[1:]

    screened = Evaluator(spec.metric, spec.machine, static_screen=True)
    baseline = Evaluator(
        spec.metric, spec.machine, static_screen=False
    )
    try:
        with_screen = screened.evaluate(batch)
        without = baseline.evaluate(batch)
    finally:
        screened.close()
        baseline.close()

    assert screened.health.static_skips >= 1
    assert baseline.health.static_skips == 0
    # Same evaluation count either way: a skip still "grades" the
    # candidate, just without a simulator.
    assert screened.health.evaluations == baseline.health.evaluations
    # Fitness scores are identical program-for-program (the whole
    # point: screening may never change what the loop sees).
    assert [e.fitness for e in with_screen] == \
        [e.fitness for e in without]
    assert with_screen[0].fitness == 0.0


def test_irf_evaluator_makes_no_bound_call_unless_paranoid(monkeypatch):
    """The IRF bound is never zero, so its screen can never skip: an
    IRF evaluator pays for no static pass unless it is paranoid."""
    spec = _spec("irf")
    assert not bound_can_be_zero(spec.metric)
    population = _population(spec, count=4)
    calls = []

    def counting_bound(*args):
        calls.append(args)
        return static_bound(*args)

    monkeypatch.setattr(evaluator_module, "static_bound", counting_bound)
    graded = {}
    for screen in (True, False):
        evaluator = Evaluator(
            spec.metric, spec.machine, static_screen=screen
        )
        try:
            results = evaluator.evaluate(population)
        finally:
            evaluator.close()
        graded[screen] = (
            [e.fitness for e in results], evaluator.health.as_dict()
        )
    assert calls == []
    assert graded[True] == graded[False]

    paranoid = Evaluator(spec.metric, spec.machine, paranoid=True)
    try:
        paranoid.evaluate(population)
    finally:
        paranoid.close()
    assert len(calls) == len(population)


def test_campaign_stdout_identical_with_and_without_screen():
    """The acceptance criterion, end to end at smoke scale."""
    spec = _spec("fp_mul")
    on = run_target(
        spec, SMOKE, eval_cache_size=None, static_screen=True
    )
    off = run_target(
        spec, SMOKE, eval_cache_size=None, static_screen=False
    )
    assert campaign_stdout(on) == campaign_stdout(off)


def test_paranoid_oracle_passes_on_real_batches():
    spec = _spec("int_adder")
    population = _population(spec, count=4)
    evaluator = Evaluator(
        spec.metric, spec.machine, static_screen=True, paranoid=True
    )
    try:
        results = evaluator.evaluate(population)
    finally:
        evaluator.close()
    assert len(results) == len(population)


def test_paranoid_oracle_raises_on_violation():
    spec = _spec("int_adder")
    program = _population(spec, count=1)[0]
    evaluator = Evaluator(spec.metric, spec.machine, paranoid=True)
    try:
        impossible = EvaluatedProgram(
            program=program, fitness=2.0, total_cycles=10,
            crashed=False,
        )
        with pytest.raises(StaticOracleError) as excinfo:
            evaluator._oracle_check(impossible, 0.5)
        assert excinfo.value.kind == "static_oracle"
        # Quarantined results are exempt (their fitness is synthetic).
        quarantined = EvaluatedProgram(
            program=program, fitness=2.0, total_cycles=0,
            crashed=True, error_kind="timeout",
        )
        evaluator._oracle_check(quarantined, 0.5)
        # As are metrics with no static bound.
        evaluator._oracle_check(impossible, None)
    finally:
        evaluator.close()


def test_subclassed_metric_gets_no_bound():
    """Exact-type dispatch: metric subclasses must never screen."""

    class TweakedIbr(IbrCoverage):
        pass

    spec = _spec("int_mul")
    program = _population(spec, count=1)[0]
    stripped = _strip_class(program, FUClass.INT_MUL)
    tweaked = TweakedIbr(FUClass.INT_MUL)
    assert static_bound(stripped, tweaked, spec.machine) is None
    assert not should_skip(stripped, tweaked, spec.machine)


def test_health_merge_and_serialization_roundtrip():
    left = EvalHealth(evaluations=3, static_skips=2)
    right = EvalHealth(evaluations=1, static_skips=1)
    left.merge(right)
    assert left.static_skips == 3
    # Like cache_hits, static_skips stays out of the persisted digest
    # so screened and unscreened campaigns checkpoint identically.
    assert "static_skips" not in left.as_dict()
    assert "static skips" not in left.summary()
    restored = EvalHealth.from_dict(left.as_dict())
    assert restored.static_skips == 0
    assert restored.evaluations == left.evaluations
