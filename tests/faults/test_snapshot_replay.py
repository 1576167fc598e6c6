"""Snapshot-started, early-exit replays: the simulator's start and watch
arguments, when an injector builds its golden snapshots, and the
``last_overrides`` contract."""

import pytest

from repro.faults.injector import (
    FaultInjector,
    _Recorder as Recorder,
    snapshot_interval,
)
from repro.faults.models import RegisterPermanent
from repro.faults.outcomes import Outcome
from repro.sim.cosim import golden_run
from repro.sim.functional import FunctionalSimulator
from repro.sim.overrides import Overrides


@pytest.fixture
def run_calls(monkeypatch):
    """Every ``FunctionalSimulator.run`` call's keyword arguments."""
    calls = []
    original = FunctionalSimulator.run

    def counting(self, *args, **kwargs):
        calls.append(kwargs)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FunctionalSimulator, "run", counting)
    return calls


def _late_read(golden, fraction=0.75):
    """Overrides flipping bit 0 of every register read by the
    instruction ``fraction`` of the way through the golden run."""
    dyn = int(golden.result.dynamic_count * fraction)
    overrides = Overrides()
    for name in golden.result.records[dyn].reads:
        overrides.reg_read_xor[(dyn, name)] = 1
    assert not overrides.is_empty()
    return overrides


class TestInterval:
    @pytest.mark.parametrize(
        "count, interval",
        [(0, 32), (100, 32), (512, 32), (513, 33), (940, 59), (4800, 300)],
    )
    def test_ceil_sixteenth_with_a_floor_of_32(self, count, interval):
        assert snapshot_interval(count) == interval


class TestSimulatorStartAndWatch:
    def test_watch_visits_every_interval(self, mixed_program):
        recorder = Recorder(50)
        result = FunctionalSimulator().run(
            mixed_program, collect_records=False, watch=recorder
        )
        dyns = [snapshot.dyn for snapshot in recorder.snapshots]
        assert dyns == list(range(0, result.dynamic_count, 50))
        assert not result.converged

    def test_run_from_a_snapshot_ends_like_a_full_run(self, mixed_program):
        simulator = FunctionalSimulator()
        recorder = Recorder(50)
        full = simulator.run(
            mixed_program, collect_records=False, watch=recorder
        )
        start = recorder.snapshots[3]
        resumed = simulator.run(
            mixed_program, collect_records=False, start=start
        )
        assert resumed.output == full.output
        assert resumed.dynamic_count == full.dynamic_count - start.dyn
        # The snapshot itself is left untouched by the run.
        again = simulator.run(
            mixed_program, collect_records=False, start=start
        )
        assert again.output == full.output

    def test_a_true_visit_stops_the_run_as_converged(self, mixed_program):
        class StopAt:
            interval = 50

            def visit(self, dyn, pc, state):
                return dyn == 100

        result = FunctionalSimulator().run(
            mixed_program, collect_records=False, watch=StopAt()
        )
        assert result.converged
        assert result.output is None and not result.crashed
        assert result.dynamic_count == 100

    def test_budget_still_binds_under_a_watch(self, mixed_program):
        recorder = Recorder(7)
        result = FunctionalSimulator().run(
            mixed_program, collect_records=False, max_dynamic=30,
            watch=recorder,
        )
        assert result.crash.kind == "hang"
        assert result.dynamic_count == 30
        assert [s.dyn for s in recorder.snapshots] == [0, 7, 14, 21, 28]


class TestLazySnapshots:
    def test_golden_run_takes_no_snapshots(self, mixed_program, run_calls):
        golden_run(mixed_program)
        assert len(run_calls) == 1
        assert run_calls[0].get("watch") is None

    def test_one_shot_injector_runs_the_simulator_once(
        self, mixed_golden, run_calls
    ):
        injector = FaultInjector(mixed_golden)
        injector._rerun(_late_read(mixed_golden), None)
        assert len(run_calls) == 1
        assert run_calls[0].get("start") is None

    def test_second_replay_builds_the_pass_and_starts_late(
        self, mixed_golden, run_calls
    ):
        injector = FaultInjector(mixed_golden)
        overrides = _late_read(mixed_golden)
        first = injector._rerun(overrides, None)
        second = injector._rerun(overrides, None)
        third = injector._rerun(overrides, None)
        # replay, snapshot pass, two snapshot-started replays
        assert len(run_calls) == 4
        assert run_calls[1].get("watch") is not None
        assert run_calls[2]["start"].dyn > 0
        assert run_calls[3]["start"].dyn == run_calls[2]["start"].dyn
        assert (first.outcome, first.crash_kind) == \
            (second.outcome, second.crash_kind) == \
            (third.outcome, third.crash_kind)

    def test_replays_that_cannot_gain_skip_the_pass(
        self, mixed_golden, run_calls
    ):
        """An override at instruction 0 with an output-time override
        pending can neither start late nor stop early."""
        injector = FaultInjector(mixed_golden)
        name = mixed_golden.result.records[0].reads[0]
        overrides = Overrides(
            reg_read_xor={(0, name): 1}, final_reg_xor={"rax": 1}
        )
        injector._rerun(overrides, None)
        injector._rerun(overrides, None)
        assert len(run_calls) == 2
        assert all(call.get("start") is None for call in run_calls)


class TestLastOverrides:
    def test_masked_replay_leaves_none(self, mixed_golden):
        injector = FaultInjector(mixed_golden)
        masked = replayed = 0
        for preg in range(40):
            for bit in (0, 63):
                result = injector.inject(
                    RegisterPermanent(preg=preg, bit=bit, stuck_value=0)
                )
                if injector._replays > replayed:
                    replayed = injector._replays
                    if result.outcome is Outcome.MASKED:
                        masked += 1
                        assert injector.last_overrides is None
                    else:
                        assert injector.last_overrides is not None
        assert masked > 0

    def test_converged_replay_leaves_none(self, mixed_golden):
        injector = FaultInjector(mixed_golden)
        injector._rerun(Overrides(load_xor={0: 0}), None)
        # A zero mask is no perturbation: the replay reconverges at the
        # first boundary after it.
        overrides = Overrides(load_xor={40: 0})
        calls = []
        original = injector._simulator.run

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        injector._simulator.run = spy
        injector.last_overrides = None  # as inject() leaves it
        result = injector._rerun(overrides, None)
        assert calls[-1].converged
        assert result.outcome is Outcome.MASKED
        assert injector.last_overrides is None

    def test_detected_replay_sets_them(self, mixed_golden):
        injector = FaultInjector(mixed_golden)
        overrides = Overrides(
            reg_read_xor={(1, mixed_golden.result.records[1].reads[0]): 1},
            final_reg_xor={"rax": 1},
        )
        result = injector._rerun(overrides, None)
        assert result.outcome.detected
        assert injector.last_overrides is overrides
