"""Failure-mode integration tests: dead workers, flaky workers, and
straggler stealing.

The fleet's contract under fire: a lost host costs its in-flight tasks
once (re-dispatched to survivors), flaky evaluations stay contained by
the per-host quarantine machinery, and slow hosts get their stragglers
speculatively duplicated — in every case the campaign completes with
the same ranking a local run would produce.
"""

import threading

import pytest

from repro.core.evaluator import QUARANTINE_FITNESS, Evaluator
from repro.core.generator import Generator
from repro.core.targets import scaled_targets
from repro.dist.evaluator import DistributedEvaluator
from repro.dist.worker import WorkerServer
from tests.core.flaky import FlakyEvaluator, slow_factory

SCALES = (0.03, 0.008)
TARGET_KEY = "int_adder"


@pytest.fixture(scope="module")
def spec():
    return scaled_targets(*SCALES)[TARGET_KEY]


def flaky_factory(fail_pct):
    def factory(spec, slots, eval_timeout, max_retries):
        return FlakyEvaluator(
            spec.metric, spec.machine, workers=slots,
            eval_timeout=eval_timeout, max_retries=max_retries,
            fail_pct=fail_pct, hang_pct=0,
        )
    return factory


def make_distributed(spec, endpoints, **overrides):
    kwargs = dict(
        endpoints=endpoints,
        target_key=TARGET_KEY,
        program_scale=SCALES[0],
        loop_scale=SCALES[1],
        heartbeat_interval=0.3,
        heartbeat_misses=2,
        connect_timeout=2.0,
    )
    kwargs.update(overrides)
    return DistributedEvaluator(spec.metric, spec.machine, **kwargs)


class TestDeadWorker:
    def test_killed_worker_tasks_are_redispatched(self, spec):
        """Kill the slow worker mid-generation: its in-flight task is
        re-dispatched to the survivor and the ranking still matches a
        local run exactly."""
        healthy = WorkerServer(slots=2).start()
        doomed = WorkerServer(
            slots=2, evaluator_factory=slow_factory(30.0)
        ).start()
        endpoints = [
            ("127.0.0.1", healthy.port), ("127.0.0.1", doomed.port)
        ]
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=3)
        local = Evaluator(spec.metric, spec.machine).rank(population)

        # Steal disabled: recovery must come from failure detection
        # plus re-dispatch, not from speculation papering over it.
        distributed = make_distributed(spec, endpoints, steal=False)
        killer = threading.Timer(0.6, doomed.close)
        killer.start()
        try:
            remote = distributed.rank(population)
            health = distributed.take_health()
        finally:
            killer.cancel()
            distributed.close()
            healthy.close()
            doomed.close()

        assert [(e.name, e.fitness) for e in local] == \
               [(e.name, e.fitness) for e in remote]
        assert health.workers_lost == 1
        assert health.redispatched >= 1

    def test_fleet_survivor_carries_next_generation(self, spec):
        """After a loss, the same evaluator keeps working: the dead
        endpoint sits out its cooldown and the survivor carries the
        following generations alone."""
        healthy = WorkerServer(slots=2).start()
        doomed = WorkerServer(
            slots=2, evaluator_factory=slow_factory(30.0)
        ).start()
        endpoints = [
            ("127.0.0.1", healthy.port), ("127.0.0.1", doomed.port)
        ]
        generator = Generator(spec.generation)
        first = generator.initial_population(6, base_seed=11)
        second = generator.initial_population(6, base_seed=12)
        local = Evaluator(spec.metric, spec.machine)
        expected = [
            [(e.name, e.fitness) for e in local.rank(population)]
            for population in (first, second)
        ]

        distributed = make_distributed(spec, endpoints, steal=False)
        killer = threading.Timer(0.6, doomed.close)
        killer.start()
        try:
            got_first = distributed.rank(first)
            got_second = distributed.rank(second)
            health = distributed.take_health()
        finally:
            killer.cancel()
            distributed.close()
            healthy.close()
            doomed.close()

        assert [(e.name, e.fitness) for e in got_first] == expected[0]
        assert [(e.name, e.fitness) for e in got_second] == expected[1]
        assert health.workers_lost == 1


class TestFlakyWorker:
    def test_injected_faults_stay_contained(self, spec):
        """Workers running the fault-injecting evaluator double keep
        their quarantine semantics: scheduled failures come back as
        quarantined results, everything else matches a healthy run."""
        servers = [
            WorkerServer(
                slots=2, evaluator_factory=flaky_factory(40)
            ).start()
            for _ in range(2)
        ]
        endpoints = [("127.0.0.1", s.port) for s in servers]
        generator = Generator(spec.generation)
        population = generator.initial_population(12, base_seed=9)
        probe = FlakyEvaluator(
            spec.metric, spec.machine, fail_pct=40, hang_pct=0
        )
        faulty = set(probe.expected_faulty(population))
        assert faulty, "schedule must fault at least one candidate"
        local = {
            e.name: e.fitness
            for e in Evaluator(spec.metric, spec.machine)
            .evaluate(population)
        }

        distributed = make_distributed(spec, endpoints)
        try:
            evaluated = distributed.evaluate(population)
            health = distributed.take_health()
        finally:
            distributed.close()
            for server in servers:
                server.close()

        for entry in evaluated:
            if entry.name in faulty:
                assert entry.quarantined
                assert entry.fitness == QUARANTINE_FITNESS
            else:
                assert not entry.quarantined
                assert entry.fitness == local[entry.name]
        assert set(health.quarantined) == faulty
        assert health.workers_lost == 0


class TestWorkSteal:
    def test_idle_worker_steals_straggler(self, spec):
        """An idle worker duplicates a straggler's task after the
        steal delay; the first copy to finish wins, so the ranking is
        unchanged and nobody is declared dead."""
        fast = WorkerServer(slots=2).start()
        slow = WorkerServer(
            slots=2, evaluator_factory=slow_factory(3.0)
        ).start()
        endpoints = [
            ("127.0.0.1", fast.port), ("127.0.0.1", slow.port)
        ]
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=4)
        local = Evaluator(spec.metric, spec.machine).rank(population)

        distributed = make_distributed(
            spec, endpoints,
            steal=True, steal_delay=0.2,
            # The straggler keeps pinging back, so give the driver
            # enough heartbeat patience not to declare it dead.
            heartbeat_interval=0.5, heartbeat_misses=20,
        )
        try:
            remote = distributed.rank(population)
            health = distributed.take_health()
        finally:
            distributed.close()
            fast.close()
            slow.close()

        assert [(e.name, e.fitness) for e in local] == \
               [(e.name, e.fitness) for e in remote]
        assert health.stolen >= 1
        assert health.workers_lost == 0
