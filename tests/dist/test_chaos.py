"""Chaos suite: the campaign's output survives transport faults.

A :class:`~repro.testing.chaos.ChaosProxy` sits between coordinator
and worker, injecting seeded frame faults — duplication, garbage,
mid-frame truncation, drops.  The invariant under test is the
project's strongest: whatever the transport does, the evaluated
rankings (and a whole campaign's fitness curve) stay **identical** to
a clean local run — faults cost time, never correctness.
"""

import random

import pytest

from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig
from repro.core.targets import scaled_targets
from repro.dist.evaluator import DistributedEvaluator
from repro.dist.worker import WorkerServer
from repro.testing.chaos import FAULTS, ChaosProxy, FaultPlan
from tests.core.flaky import slow_factory

SCALES = (0.03, 0.008)
TARGET_KEY = "int_adder"
#: Seconds the extra clean worker sleeps per evaluation.  The coordinator
#: hands it one batch per generation, which it holds this long, so the
#: proxied worker carries the rest of the generation's batches.
CLEAN_WORKER_DELAY = 0.5


@pytest.fixture(scope="module")
def spec():
    return scaled_targets(*SCALES)[TARGET_KEY]


def make_distributed(spec, endpoints, **overrides):
    kwargs = dict(
        endpoints=endpoints,
        target_key=TARGET_KEY,
        program_scale=SCALES[0],
        loop_scale=SCALES[1],
        heartbeat_interval=0.3,
        heartbeat_misses=4,
        connect_timeout=2.0,
    )
    kwargs.update(overrides)
    return DistributedEvaluator(spec.metric, spec.machine, **kwargs)


def signature(evaluated):
    return [
        (e.name, e.fitness, e.total_cycles, e.crashed) for e in evaluated
    ]


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = FaultPlan(
            truncate=0.2, drop=0.2, duplicate=0.2,
            handshake_grace_frames=0,
        )
        first = [
            plan.pick(random.Random(42), index) for index in range(200)
        ]
        second = [
            plan.pick(random.Random(42), index) for index in range(200)
        ]
        assert first == second
        assert any(fault is not None for fault in first)

    def test_constant_rng_consumption_per_frame(self):
        """Faulted and clean frames draw the same number of randoms,
        so one fault never shifts the rest of the schedule."""
        plan = FaultPlan(drop=1.0, handshake_grace_frames=0)
        rng_a, rng_b = random.Random(7), random.Random(7)
        assert plan.pick(rng_a, 0) == "drop"
        FaultPlan(handshake_grace_frames=0).pick(rng_b, 0)
        assert rng_a.random() == rng_b.random()

    def test_handshake_grace_protects_early_frames(self):
        plan = FaultPlan(
            drop=1.0, truncate=1.0, handshake_grace_frames=4
        )
        rng = random.Random(0)
        assert [plan.pick(rng, index) for index in range(4)] == [None] * 4
        assert plan.pick(rng, 4) is not None

    def test_all_faults_reachable(self):
        plan = FaultPlan(
            drop=0.2, duplicate=0.2, truncate=0.2, garbage=0.2,
            delay=0.2, handshake_grace_frames=0,
        )
        rng = random.Random(3)
        seen = {plan.pick(rng, index) for index in range(500)}
        assert seen == set(FAULTS) | {None}


class TestCleanPassthrough:
    def test_proxy_forwards_faithfully(self, spec):
        """With an all-zero plan the proxy is an invisible relay."""
        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(("127.0.0.1", worker.port)).start()
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=7)
        local = Evaluator(spec.metric, spec.machine).rank(population)
        distributed = make_distributed(
            spec, [("127.0.0.1", proxy.port)]
        )
        try:
            remote = distributed.rank(population)
        finally:
            distributed.close()
            proxy.close()
            worker.close()
        assert signature(local) == signature(remote)
        assert proxy.counters["connections"] >= 1
        assert proxy.faults_injected() == 0


class TestFaultedTransport:
    def _assert_chaotic_rank_matches_local(
        self, spec, plan, extra_clean_worker=True, generations=2,
        population_size=10, **overrides,
    ):
        """Shared harness: rank ``generations`` populations through a
        chaotic proxy and require byte-identical outcomes.

        The extra clean worker, there to absorb what a torn connection
        loses, is slow: a fast one would take most batches, leaving
        the proxied connection inside its handshake grace."""
        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(("127.0.0.1", worker.port), plan).start()
        endpoints = [("127.0.0.1", proxy.port)]
        clean = None
        if extra_clean_worker:
            clean = WorkerServer(
                slots=2,
                evaluator_factory=slow_factory(CLEAN_WORKER_DELAY),
            ).start()
            endpoints.append(("127.0.0.1", clean.port))
        generator = Generator(spec.generation)
        populations = [
            generator.initial_population(
                population_size, base_seed=100 + index
            )
            for index in range(generations)
        ]
        local = Evaluator(spec.metric, spec.machine)
        expected = [
            signature(local.rank(population))
            for population in populations
        ]
        distributed = make_distributed(spec, endpoints, **overrides)
        # Chaos tears connections down often; let the coordinator
        # redial immediately instead of sitting out generations.
        distributed.coordinator.reconnect_cooldown = 0
        try:
            got = [
                signature(distributed.rank(population))
                for population in populations
            ]
        finally:
            distributed.close()
            proxy.close()
            worker.close()
            if clean is not None:
                clean.close()
        assert got == expected
        return proxy

    def test_survives_duplicated_frames(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(seed=11, duplicate=0.35),
            extra_clean_worker=False,
        )
        assert proxy.counters["duplicate"] >= 1

    # On the first proxied connection these schedules fault no frame
    # before result frame 7-9 (batch 6-8 after the two handshake
    # frames), so four generations give the proxied worker up to 16
    # batches to reach one.

    def test_survives_garbage_bodies(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec, FaultPlan(seed=5, garbage=0.25), generations=4
        )
        assert proxy.counters["garbage"] >= 1

    def test_survives_mid_frame_truncation(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec, FaultPlan(seed=23, truncate=0.25), generations=4
        )
        assert proxy.counters["truncate"] >= 1

    def test_survives_dropped_frames(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(seed=2, drop=0.2),
            steal=True, steal_delay=0.3,
            generations=4,
        )
        assert proxy.counters["drop"] >= 1

    def test_survives_mixed_chaos(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(
                seed=9, drop=0.08, duplicate=0.08, truncate=0.08,
                garbage=0.08, delay=0.08, delay_seconds=0.05,
            ),
            steal=True, steal_delay=0.3,
            generations=3,
        )
        assert proxy.faults_injected() >= 1


class TestCampaignUnderChaos:
    def test_full_campaign_identical_to_local(self, spec):
        """A whole GA campaign through a chaotic transport produces
        the exact fitness curve and elite of the clean local run."""
        config = LoopConfig(
            population=6, keep=2, offspring_per_parent=2,
            iterations=3, seed=5,
        )
        reference = HarpocratesLoop(
            Generator(spec.generation),
            Evaluator(spec.metric, spec.machine),
            config=config,
        ).run()

        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(
            ("127.0.0.1", worker.port),
            FaultPlan(
                seed=31, duplicate=0.1, truncate=0.1, garbage=0.05,
            ),
        ).start()
        clean = WorkerServer(slots=2).start()
        distributed = make_distributed(
            spec,
            [("127.0.0.1", proxy.port), ("127.0.0.1", clean.port)],
        )
        distributed.coordinator.reconnect_cooldown = 0
        try:
            chaotic = HarpocratesLoop(
                Generator(spec.generation), distributed, config=config
            ).run()
        finally:
            distributed.close()
            proxy.close()
            worker.close()
            clean.close()

        assert chaotic.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in chaotic.best] == \
            [e.name for e in reference.best]
        assert [e.program.to_asm() for e in chaotic.best] == \
            [e.program.to_asm() for e in reference.best]


class TestChaosCli:
    def test_bad_upstream_rejected(self):
        from repro.testing.chaos import main

        with pytest.raises(SystemExit):
            main(["--upstream", "no-port"])
        with pytest.raises(SystemExit):
            main(["--upstream", "host:70000"])
