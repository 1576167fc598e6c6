"""Smoke-level tests for the experiment harness (tiny scales)."""

from dataclasses import replace

import pytest

from repro import obs
from repro.core.targets import scaled_targets
from repro.experiments import fig1, table1
from repro.experiments.fig456 import run_fig4, run_fig5, run_fig6
from repro.experiments.genrate import run as run_genrate
from repro.experiments.harness import (
    SweepResult,
    WorkloadRow,
    baseline_workloads,
)
from repro.experiments.presets import (
    DEFAULT,
    FULL,
    SMOKE,
    active_scale,
)
from repro.experiments.table1 import LoopStep
from repro.experiments.table1 import run as run_table1

TINY = replace(
    SMOKE,
    injections=8,
    suite_scale=0.25,
    silifuzz_rounds=120,
    silifuzz_aggregate=60,
    program_scale=0.02,
    loop_scale=0.004,
)


@pytest.fixture(scope="module")
def tiny_workloads():
    return baseline_workloads(TINY)


class TestPresets:
    def test_three_presets_ordered(self):
        assert SMOKE.injections < DEFAULT.injections < FULL.injections
        assert FULL.program_scale == 1.0

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_scale() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()


class TestFig1:
    def test_three_reporters(self):
        rows = fig1.run()
        assert len(rows) == 3
        assert {row.reporter.split()[0] for row in rows} == \
            {"Meta", "Google", "Alibaba"}

    def test_alibaba_value(self):
        rows = {row.reporter.split()[0]: row.dppm for row in fig1.run()}
        assert rows["Alibaba"] == 361.0

    def test_render(self):
        assert "DPPM" in fig1.render()


class TestWorkloads:
    def test_composition(self, tiny_workloads):
        frameworks = [name for name, _ in tiny_workloads]
        assert frameworks.count("mibench") == 12
        assert frameworks.count("opendcdiag") == 6
        assert frameworks.count("silifuzz") == 1


class TestSweeps:
    def test_fig4_rows_cover_both_structures(self, tiny_workloads):
        sweep = run_fig4(TINY, tiny_workloads)
        structures = {row.structure for row in sweep.rows}
        assert structures == {"irf", "l1d"}

    def test_fig5_values_bounded(self, tiny_workloads):
        sweep = run_fig5(TINY, tiny_workloads)
        for row in sweep.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert 0.0 <= row.detection <= 1.0

    def test_fig6_fp_structures(self, tiny_workloads):
        sweep = run_fig6(TINY, tiny_workloads)
        assert {row.structure for row in sweep.rows} == \
            {"fp_add", "fp_mul"}

    def test_sweep_aggregations(self):
        sweep = SweepResult(rows=[
            WorkloadRow("fw", "p1", "s", 0.5, 0.2, 10, 10),
            WorkloadRow("fw", "p2", "s", 0.7, 0.4, 10, 10),
        ])
        assert sweep.max_detection("fw", "s") == 0.4
        assert sweep.avg_detection("fw", "s") == pytest.approx(0.3)
        assert sweep.max_coverage("fw", "s") == 0.7
        assert sweep.max_detection("other", "s") == 0.0

    def test_render(self):
        sweep = SweepResult(rows=[
            WorkloadRow("fw", "p", "s", 0.1, 0.2, 3, 4)
        ])
        text = sweep.render("title")
        assert "title" in text and "fw" in text


class TestTable1:
    def test_breakdown_sums(self):
        result = run_table1(TINY)
        step = result.step
        assert step.total_seconds == pytest.approx(
            step.mutation_seconds + step.generation_seconds
            + step.evaluation_seconds
        )
        # One iteration covers a whole step: every stage ran.
        assert step.mutation_seconds > 0
        assert step.generation_seconds > 0
        assert step.evaluation_seconds > 0
        assert step.programs > 0 and step.instructions_per_second > 0
        text = result.render()
        assert "Mutation" in text and "Compilation" not in text

    def test_counts_the_generated_offspring(self):
        """The step's instructions are its offspring's, not those of the
        evaluated population, which also holds the carried survivors."""
        loop = scaled_targets(
            program_scale=TINY.program_scale, loop_scale=TINY.loop_scale
        )["int_adder"].loop
        step = run_table1(TINY).step
        assert step.programs == min(
            loop.keep * loop.effective_offspring, loop.population - loop.keep
        )

    def test_scale_seed_picks_the_loop_seed(self, monkeypatch):
        seeds = []

        def record_seed(manager):
            seeds.append(manager.target.loop.seed)
            return LoopStep(0.0, 0.0, 0.0, 0, 0)

        monkeypatch.setattr(table1, "time_loop_step", record_seed)
        run_table1(replace(TINY, seed=7))
        assert seeds == [7]

    def test_obs_left_off_when_it_was_off(self):
        obs.reset()
        run_table1(TINY)
        assert not obs.enabled()

    def test_caller_registry_kept(self):
        obs.reset()
        obs.enable()
        try:
            obs.add_phase_time("evaluate", 100.0)
            step = run_table1(TINY).step
            assert obs.enabled()
            # The caller's seconds stay, and are not charged to the step.
            assert obs.phase_times()["evaluate"] > 100.0
            assert step.evaluation_seconds < 100.0
        finally:
            obs.reset()


class TestGenRate:
    def test_harpocrates_faster_than_silifuzz(self):
        """The §VI-A headline: the ISA-aware pipeline out-generates
        byte fuzzing (paper: 30x; any multiple > 1 at tiny scale)."""
        result = run_genrate(TINY)
        assert result.harpocrates_rate > result.silifuzz_rate
        assert result.speedup > 1.0
        assert "rate ratio" in result.render()
