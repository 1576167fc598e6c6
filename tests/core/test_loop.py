"""Integration tests for the Harpocrates loop and its components."""

import pytest

from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig
from repro.core.manager import Manager
from repro.core.targets import paper_targets, scaled_targets
from repro.coverage.metrics import IbrCoverage
from repro.isa.instructions import FUClass
from repro.microprobe.policies import GenerationConfig


@pytest.fixture(scope="module")
def small_loop():
    generator = Generator(GenerationConfig(num_instructions=80,
                                           data_size=2048))
    evaluator = Evaluator(IbrCoverage(FUClass.INT_ADDER))
    config = LoopConfig(population=8, keep=2, offspring_per_parent=3,
                        iterations=6, seed=0)
    return HarpocratesLoop(generator, evaluator, config=config)


@pytest.fixture(scope="module")
def small_result(small_loop):
    return small_loop.run()


class TestEvaluator:
    def test_rank_is_descending(self, small_loop):
        population = small_loop.generator.initial_population(6)
        ranked = small_loop.evaluator.rank(population)
        fitnesses = [entry.fitness for entry in ranked]
        assert fitnesses == sorted(fitnesses, reverse=True)

    def test_evaluate_preserves_order(self, small_loop):
        population = small_loop.generator.initial_population(4)
        evaluated = small_loop.evaluator.evaluate(population)
        assert [e.program.name for e in evaluated] == \
            [p.name for p in population]


class TestLoop:
    def test_runs_configured_iterations(self, small_result):
        assert small_result.iterations_run == 6
        assert len(small_result.history) == 6

    def test_keeps_top_k(self, small_result):
        assert len(small_result.best) == 2

    def test_best_fitness_monotonic_nondecreasing(self, small_result):
        # Elitism carries survivors over, so the best fitness can
        # never regress between iterations.
        curve = small_result.fitness_curve()
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_fitness_improves_from_start(self, small_result):
        curve = small_result.fitness_curve()
        assert curve[-1] >= curve[0]

    def test_history_statistics_consistent(self, small_result):
        for stats in small_result.history:
            assert stats.best_fitness >= stats.mean_fitness - 1e-12
            assert stats.top_fitnesses[0] == stats.best_fitness

    def test_deterministic(self, small_loop):
        a = small_loop.run()
        b = small_loop.run()
        assert a.fitness_curve() == b.fitness_curve()
        assert a.best_program.program.to_asm() == \
            b.best_program.program.to_asm()

    def test_on_iteration_callback(self, small_loop):
        seen = []
        small_loop.run(
            iterations=3,
            on_iteration=lambda stats, survivors: seen.append(
                (stats.iteration, len(survivors))
            ),
        )
        assert seen == [(0, 2), (1, 2), (2, 2)]

    def test_early_convergence_stop(self):
        generator = Generator(GenerationConfig(num_instructions=40))
        evaluator = Evaluator(IbrCoverage(FUClass.INT_ADDER))
        config = LoopConfig(
            population=4, keep=2, offspring_per_parent=1,
            iterations=30, seed=1, convergence_patience=3,
        )
        loop = HarpocratesLoop(generator, evaluator, config=config)
        result = loop.run()
        if result.converged_at is not None:
            assert result.iterations_run < 30


class TestLoopConfig:
    def test_effective_offspring_default(self):
        config = LoopConfig(population=96, keep=16)
        assert config.effective_offspring == 6

    def test_effective_offspring_explicit(self):
        config = LoopConfig(population=32, keep=8,
                            offspring_per_parent=4)
        assert config.effective_offspring == 4


class TestTargets:
    def test_paper_targets_match_section_vi_b(self):
        targets = paper_targets()
        assert targets["irf"].generation.num_instructions == 10_000
        assert targets["irf"].loop.population == 96
        assert targets["irf"].loop.keep == 16
        assert targets["l1d"].generation.num_instructions == 30_000
        assert targets["l1d"].generation.stride == 8
        assert targets["l1d"].generation.data_size == 32 * 1024
        assert targets["int_adder"].generation.num_instructions == 5_000
        assert targets["int_adder"].loop.population == 32
        assert targets["int_adder"].loop.keep == 8

    def test_six_targets(self):
        assert len(paper_targets()) == 6
        assert len(scaled_targets()) == 6

    def test_scaled_targets_are_smaller(self):
        paper = paper_targets()
        scaled = scaled_targets()
        for key in paper:
            assert scaled[key].generation.num_instructions < \
                paper[key].generation.num_instructions
            assert scaled[key].loop.iterations < \
                paper[key].loop.iterations

    def test_fp_targets_pool_restricted(self):
        targets = paper_targets()
        pool = targets["fp_adder"].generation.pool_names
        assert pool is not None
        assert any("addps" in name for name in pool)

    def test_scaled_l1d_machine_shrinks_cache(self):
        scaled = scaled_targets()
        assert scaled["l1d"].machine.cache.size < 32 * 1024


class TestManager:
    def test_mutate_and_generate_flow(self):
        targets = scaled_targets()
        manager = Manager(targets["int_adder"])
        base = manager.generate(2, base_seed=0)
        offspring = manager.mutate_and_generate(base, mutations_each=3)
        assert len(offspring) == 6


class TestCrossoverOption:
    def test_crossover_loop_runs_and_improves(self):
        from repro.core.evaluator import Evaluator
        from repro.core.generator import Generator
        from repro.core.loop import HarpocratesLoop, LoopConfig
        from repro.coverage.metrics import IbrCoverage
        from repro.isa.instructions import FUClass
        from repro.microprobe.policies import GenerationConfig

        generator = Generator(GenerationConfig(num_instructions=60))
        evaluator = Evaluator(IbrCoverage(FUClass.INT_ADDER))
        config = LoopConfig(
            population=8, keep=3, offspring_per_parent=2,
            iterations=5, seed=3, crossover_rate=0.5,
        )
        loop = HarpocratesLoop(generator, evaluator, config=config)
        result = loop.run()
        curve = result.fitness_curve()
        assert curve[-1] >= curve[0]
        assert result.iterations_run == 5

    def test_zero_rate_matches_pure_replacement(self):
        """crossover_rate=0 must reproduce the production strategy
        exactly (bitwise-identical runs)."""
        from repro.core.evaluator import Evaluator
        from repro.core.generator import Generator
        from repro.core.loop import HarpocratesLoop, LoopConfig
        from repro.coverage.metrics import IbrCoverage
        from repro.isa.instructions import FUClass
        from repro.microprobe.policies import GenerationConfig

        def run_once():
            generator = Generator(GenerationConfig(num_instructions=40))
            evaluator = Evaluator(IbrCoverage(FUClass.INT_ADDER))
            config = LoopConfig(
                population=6, keep=2, offspring_per_parent=2,
                iterations=4, seed=9, crossover_rate=0.0,
            )
            return HarpocratesLoop(
                generator, evaluator, config=config
            ).run()

        assert run_once().fitness_curve() == run_once().fitness_curve()
