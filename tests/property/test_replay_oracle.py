"""The snapshot-replay differential oracle.

:class:`~repro.faults.injector.FaultInjector` replays a fault from the
last golden snapshot at or before its first override and stops as
Masked once the replay's pc and state equal a golden snapshot after its
last override.  Both shortcuts claim exactness; this sweep holds them to
it.  Every sampled fault of all six fault models is graded by one
long-lived injector (so its later replays take the shortcuts) and by a
reference that replays the same overrides with a plain
:meth:`FunctionalSimulator.run` from instruction 0 and compares the
final output — the ``--paranoid`` pattern.  The ``(outcome,
crash_kind)`` pairs must agree for every fault.
"""

import random
from dataclasses import replace

import pytest

from repro.faults.injector import (
    FaultInjector,
    _Reconvergence,
    snapshot_interval,
)
from repro.faults.models import (
    CacheTransient,
    GateIntermittent,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.faults.outcomes import InjectionResult, Outcome
from repro.core.targets import SCALED_L1D_MACHINE
from repro.isa import Program, imm, make, mem, reg, rel
from repro.isa.instructions import FUClass
from repro.microprobe import GenerationConfig, Synthesizer
from repro.microprobe.policies import MemoryAccessMode
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.cosim import golden_run
from repro.sim.functional import FunctionalSimulator
from repro.sim.overrides import Overrides

#: Faults sampled per program and fault model.
FAULTS_PER_MODEL = 40

#: Unit classes with a gate-level model.
GRADED_UNITS = (
    FUClass.INT_ADDER, FUClass.INT_MUL, FUClass.FP_ADD, FUClass.FP_MUL,
)


class FullReplayInjector(FaultInjector):
    """The reference: every replay runs from instruction 0 to the end."""

    def _rerun(self, overrides: Overrides, fault) -> InjectionResult:
        result = FunctionalSimulator(self._simulator.machine).run(
            self.golden.program, overrides, collect_records=False
        )
        if result.crashed:
            return InjectionResult(
                fault, Outcome.CRASH, crash_kind=result.crash.kind
            )
        if result.output != self.golden_output:
            return InjectionResult(fault, Outcome.SDC)
        return InjectionResult(fault, Outcome.MASKED)


class CountingSimulator(FunctionalSimulator):
    """Counts replays that started from a snapshot or reconverged."""

    def __init__(self, machine):
        super().__init__(machine)
        self.started = 0
        self.converged = 0

    def run(self, *args, **kwargs):
        result = super().run(*args, **kwargs)
        self.started += kwargs.get("start") is not None
        self.converged += result.converged
        return result


def _injector(golden) -> FaultInjector:
    injector = FaultInjector(golden)
    injector._simulator = CountingSimulator(injector._simulator.machine)
    return injector


def _sample_faults(golden, rng):
    """``FAULTS_PER_MODEL`` faults of each of the six models."""
    cycles = max(1, golden.total_cycles)
    machine = golden.schedule.machine
    pregs = machine.core.num_int_pregs
    cache = machine.cache
    used = {
        event.fu_class for event in golden.schedule.fu_events
        if event.op is not None
    }
    units = [fu_class for fu_class in GRADED_UNITS if fu_class in used]
    faults = []
    for _ in range(FAULTS_PER_MODEL):
        faults.append(RegisterTransient(
            rng.randrange(pregs), rng.randrange(64), rng.randrange(cycles)
        ))
        faults.append(RegisterIntermittent(
            rng.randrange(pregs), rng.randrange(64),
            start_cycle=rng.randrange(cycles), duration=cycles // 8 + 1,
        ))
        faults.append(RegisterPermanent(
            rng.randrange(pregs), rng.randrange(64), rng.randrange(2)
        ))
        faults.append(CacheTransient(
            rng.randrange(cache.num_sets), rng.randrange(cache.associativity),
            rng.randrange(cache.line_size * 8), rng.randrange(cycles),
        ))
    return faults, units


def _gate_faults(injector, units, rng):
    faults = []
    for fu_class in units:
        sites = injector.unit_for(fu_class).fault_sites()
        for _ in range(FAULTS_PER_MODEL // 4):
            stuck = rng.choice(sites)
            faults.append(GatePermanent(fu_class, 0, stuck))
            faults.append(GateIntermittent(
                fu_class, 0, stuck,
                start_cycle=rng.randrange(max(1, injector.total_cycles)),
                duration=injector.total_cycles // 4 + 1,
            ))
    return faults


def _verdict(result: InjectionResult):
    return (result.outcome, result.crash_kind)


def _assert_agrees(golden, faults, exact_gates=False):
    """Grade ``faults`` both ways; return the snapshot injector."""
    injector = _injector(golden)
    reference = FullReplayInjector(golden)
    for fault in faults:
        if exact_gates and isinstance(fault, GatePermanent):
            got = injector.inject_gate_permanent(fault, exact=True)
            want = reference.inject_gate_permanent(fault, exact=True)
        else:
            got = injector.inject(fault)
            want = reference.inject(fault)
        assert _verdict(got) == _verdict(want), fault
    return injector


def _program(config: GenerationConfig, seed: int) -> Program:
    return Synthesizer(config=config).synthesize_random(seed)


SSE_POOL = (
    "movaps_x_m", "movaps_m_x", "mulps_x_x", "mulps_x_m", "mulss_x_x",
    "addps_x_x", "addss_x_x", "subps_x_x", "movaps_x_x",
)

#: ``kind -> (generation config, machine)``.  ``memory`` runs on the
#: 2 KiB cache of the scaled L1D target, so cache faults hit live data.
PROGRAMS = {
    "mixed": (
        GenerationConfig(num_instructions=300, data_size=2048),
        DEFAULT_MACHINE,
    ),
    "memory": (
        GenerationConfig(
            num_instructions=300, data_size=2048, stride=8,
            memory_mode=MemoryAccessMode.SEQUENTIAL,
        ),
        SCALED_L1D_MACHINE,
    ),
    "sse": (
        GenerationConfig(
            num_instructions=300, data_size=2048, pool_names=SSE_POOL,
        ),
        DEFAULT_MACHINE,
    ),
}


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
@pytest.mark.parametrize("seed", [3, 11])
def test_every_fault_model_matches_full_replay(kind, seed):
    config, machine = PROGRAMS[kind]
    golden = golden_run(_program(config, seed), machine)
    assert not golden.crashed
    rng = random.Random(seed)
    faults, units = _sample_faults(golden, rng)
    faults.extend(_gate_faults(FaultInjector(golden), units, rng))
    injector = _assert_agrees(golden, faults)
    # The sweep only proves something if the shortcuts were taken.
    assert injector._simulator.started > 0
    if kind != "sse":  # FP corruption seldom washes out of XMM state
        assert injector._simulator.converged > 0


@pytest.mark.parametrize(
    "fu_class, count", [(FUClass.INT_ADDER, 60), (FUClass.INT_MUL, 20)]
)
def test_exact_gate_model_matches_full_replay(mixed_golden, fu_class, count):
    """``fu_dynamic`` overrides bound their span by their first and last
    nonzero golden-input diff; cascades re-evaluate the netlist."""
    injector = FaultInjector(mixed_golden)
    sites = injector.unit_for(fu_class).fault_sites()
    rng = random.Random(5)
    faults = [
        GatePermanent(fu_class, 0, rng.choice(sites)) for _ in range(count)
    ]
    injector = _assert_agrees(mixed_golden, faults, exact_gates=True)
    assert injector._simulator.started > 0


def _early_and_late_adds(isa) -> Program:
    """An add whose result dies at once, a long idle stretch, then an
    add whose result reaches the output: an adder fault perturbs both,
    and the state reconverges on the golden one in between."""
    instructions = [
        make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx")),
        make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(7, 64)),
        *[make(isa.by_name("nop"))] * 100,
        make(isa.by_name("add_r64_r64"), reg("rcx"), reg("rdx")),
        *[make(isa.by_name("nop"))] * 10,
    ]
    return Program(
        instructions=tuple(instructions), name="early_late", init_seed=4,
        data_size=2048, source="test",
    )


@pytest.mark.parametrize("exact", [False, True])
def test_reconvergence_between_two_perturbations(isa, exact):
    """Every adder stuck-at site, static and live unit model: a replay
    may stop only after the unit's *last* perturbing operation."""
    golden = golden_run(_early_and_late_adds(isa), DEFAULT_MACHINE)
    sites = FaultInjector(golden).unit_for(FUClass.INT_ADDER).fault_sites()
    faults = [GatePermanent(FUClass.INT_ADDER, 0, site) for site in sites]
    injector = _assert_agrees(golden, faults, exact_gates=exact)
    assert injector._simulator.converged > 0


def _looping_program(isa) -> Program:
    """A counted loop: dynamic indices run far past static ones."""
    body = [
        make(isa.by_name("add_r64_r64"), reg("rax"), reg("rcx")),
        make(isa.by_name("mov_m64_r64"), mem("rbp", 64), reg("rax")),
        make(isa.by_name("mov_r64_m64"), reg("rdx"), mem("rbp", 64)),
        make(isa.by_name("imul_r64_r64"), reg("rdx"), reg("rax")),
        make(isa.by_name("add_r64_r64"), reg("rsi"), reg("rdx")),
        make(isa.by_name("dec_r64"), reg("rcx")),
    ]
    instructions = [
        make(isa.by_name("mov_r64_imm64"), reg("rcx"), imm(40, 64)),
        make(isa.by_name("mov_r64_imm64"), reg("rsi"), imm(0, 64)),
        *body,
        make(isa.by_name("jnz_rel"), rel(-(len(body) + 1))),
        make(isa.by_name("mov_m64_r64"), mem("rbp", 128), reg("rsi")),
    ]
    return Program(
        instructions=tuple(instructions), name="loop", init_seed=9,
        data_size=2048, source="test",
    )


def test_backward_branch_program_matches_full_replay(isa):
    """Snapshots carry their pc: in a loop, dyn != pc.  A stuck loop
    counter hangs, so the budget is kept small."""
    machine = replace(DEFAULT_MACHINE, max_dynamic_instructions=2000)
    golden = golden_run(_looping_program(isa), machine)
    assert not golden.crashed
    assert golden.result.dynamic_count > 4 * len(golden.program)
    rng = random.Random(2)
    faults, units = _sample_faults(golden, rng)
    faults.extend(_gate_faults(FaultInjector(golden), units, rng))
    injector = _assert_agrees(golden, faults)
    assert injector._simulator.started > 0
    snapshots = injector._golden_snapshots()
    assert any(s.dyn != s.pc for s in snapshots)


def _read_overrides(golden, dyn: int) -> Overrides:
    """Flip bit 0 of every register instruction ``dyn`` reads."""
    record = golden.result.records[dyn]
    overrides = Overrides()
    for name in record.reads:
        overrides.reg_read_xor[(dyn, name)] = 1
    return overrides


def test_override_on_a_snapshot_boundary(mixed_golden):
    """A first or last override exactly at a boundary: the replay starts
    at that boundary's snapshot, and converges no earlier than the next
    one."""
    interval = snapshot_interval(mixed_golden.result.dynamic_count)
    injector = _injector(mixed_golden)
    reference = FullReplayInjector(mixed_golden)
    injector._rerun(Overrides(load_xor={0: 1}), None)  # first replay
    checked = 0
    for boundary in (interval, 2 * interval, 3 * interval):
        for dyn in (boundary - 1, boundary, boundary + 1):
            overrides = _read_overrides(mixed_golden, dyn)
            if overrides.is_empty():
                continue
            got = injector._rerun(overrides, None)
            want = reference._rerun(overrides, None)
            assert _verdict(got) == _verdict(want), dyn
            checked += 1
    assert checked >= 6
    start, _watch = injector._replay_plan(
        _read_overrides(mixed_golden, interval)
    )
    assert start.dyn == interval


def test_reconvergence_waits_for_a_boundary_after_the_last_override(
    mixed_golden,
):
    injector = _injector(mixed_golden)
    snapshots = injector._golden_snapshots()
    interval = injector._interval
    golden_state = snapshots[1].state
    watch = _Reconvergence(snapshots, interval, after=interval)
    # Equal to the golden state, but at (not after) the last override.
    assert not watch.visit(interval, snapshots[1].pc, golden_state)
    watch = _Reconvergence(snapshots, interval, after=interval - 1)
    assert watch.visit(interval, snapshots[1].pc, golden_state)
    assert not watch.visit(interval, snapshots[1].pc + 1, golden_state)
