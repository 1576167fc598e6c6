"""The lean grade: workers return numbers, the caller keeps its programs.

A pool worker sends back ``(fitness, total_cycles, crashed, seconds)``
instead of a whole :class:`EvaluatedProgram`; the parent reattaches its
own program objects and charges the layer seconds to its phases.
"""

import pickle

import pytest

from repro import obs
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import LAYER_PHASES, Evaluator, _evaluate_one
from repro.core.generator import Generator
from repro.core.targets import scaled_targets


@pytest.fixture(scope="module")
def spec():
    return scaled_targets(0.03, 0.008)["int_adder"]


@pytest.fixture(scope="module")
def population(spec):
    return Generator(spec.generation).initial_population(6, base_seed=12)


@pytest.fixture
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


def test_worker_returns_a_lean_grade(spec, population):
    grade = _evaluate_one((population[0], spec.metric, spec.machine))
    fitness, total_cycles, crashed, seconds = grade
    assert isinstance(fitness, float)
    assert total_cycles > 0
    assert crashed is False
    assert len(seconds) == len(LAYER_PHASES)
    assert all(value >= 0.0 for value in seconds)
    assert len(pickle.dumps(grade)) < 200


def test_pool_results_carry_the_callers_programs(spec, population):
    inline = Evaluator(spec.metric, spec.machine).evaluate(population)
    cache = EvaluationCache()
    pooled = Evaluator(spec.metric, spec.machine, workers=2, cache=cache)
    try:
        first = pooled.evaluate(population)
        # Every candidate is a hit the second time round.
        second = pooled.evaluate(population)
    finally:
        pooled.close()
    for results in (first, second):
        assert [entry.program for entry in results] == population
        assert all(
            entry.program is program
            for entry, program in zip(results, population)
        )
        assert [
            (e.fitness, e.total_cycles, e.crashed, e.attempts)
            for e in results
        ] == [
            (e.fitness, e.total_cycles, e.crashed, e.attempts)
            for e in inline
        ]


@pytest.mark.parametrize("workers", [1, 2])
def test_layer_seconds_reach_the_phase_counters(
    spec, population, fresh_obs, workers
):
    obs.configure(enabled=True)
    evaluator = Evaluator(spec.metric, spec.machine, workers=workers)
    try:
        evaluator.evaluate(population)
    finally:
        evaluator.close()
    times = obs.phase_times()
    for phase in LAYER_PHASES:
        assert times[phase] > 0.0
    assert "sim_golden_run" not in times
    health = evaluator.take_health().as_dict()
    assert not any("sim" in key or "seconds" in key for key in health)
