"""Unit tests for fault localization (golden-vs-faulty diffing)."""

import pytest

from repro.explain.localize import (
    _corrupted_outputs,
    fault_site,
    fault_structure,
    localize,
)
from repro.faults.injector import FaultInjector, campaign_gate_permanent
from repro.faults.models import (
    CacheTransient,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.gatelevel.netlist import StuckAt
from repro.isa import Program, imm, make, mem, reg
from repro.isa.instructions import FUClass
from repro.sim.cache import residency_intervals
from repro.sim.cosim import golden_run
from repro.sim.functional import FunctionalSimulator


def _golden(isa, instructions, seed=1):
    program = Program(
        instructions=tuple(instructions), name="loc", init_seed=seed,
        data_size=4096, source="test",
    )
    golden = golden_run(program)
    assert not golden.crashed
    return golden


class TestNaming:
    def test_structures(self):
        assert fault_structure(
            RegisterTransient(preg=3, bit=7, cycle=11)
        ) == "int_register_file"
        assert fault_structure(
            CacheTransient(set_index=1, way=0, bit_in_line=5, cycle=2)
        ) == "l1d_cache"
        assert fault_structure(
            GatePermanent(FUClass.INT_ADDER, 0, StuckAt(346, 0))
        ) == "int_adder#0"

    def test_sites(self):
        assert fault_site(
            RegisterTransient(preg=3, bit=7, cycle=11)
        ) == "irf p3[7]@c11"
        assert fault_site(
            RegisterPermanent(preg=2, bit=1, stuck_value=1)
        ) == "irf p2[1]=sa1"
        assert fault_site(
            RegisterIntermittent(preg=4, bit=0, start_cycle=5,
                                 duration=3)
        ) == "irf p4[0]@c5+3"
        assert fault_site(
            GatePermanent(FUClass.INT_ADDER, 0, StuckAt(346, 0))
        ) == "int_adder#0 wire346@sa0"

    def test_unsupported_fault_raises(self):
        with pytest.raises(TypeError):
            fault_structure(object())


class TestLocalize:
    def test_masked_fault_yields_empty_diagnosis(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(1, 64)),
            make(isa.by_name("nop")),
        ])
        fault = GatePermanent(FUClass.FP_ADD, 0, StuckAt(0, 0))
        diagnosis = localize(golden, fault)
        assert diagnosis.outcome == "masked"
        assert diagnosis.propagation == ()
        assert diagnosis.corrupted_outputs == ()
        assert diagnosis.first_divergence_dyn is None

    def test_fast_path_sdc_names_the_output_register(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(1, 64)),
            make(isa.by_name("nop")),
        ])
        version = golden.schedule.int_rename.mapping["rax"]
        fault = RegisterTransient(
            preg=version.preg, bit=7, cycle=version.ready_cycle
        )
        # Confirm the fixture takes the no-rerun SDC fast path.
        assert FaultInjector(golden).inject(fault).outcome.value == "sdc"
        diagnosis = localize(golden, fault)
        assert diagnosis.outcome == "sdc"
        assert "rax" in diagnosis.corrupted_outputs
        # Nothing consumes the flip before the output dump.
        assert diagnosis.first_divergence_dyn is None
        assert diagnosis.structure == "int_register_file"

    def test_gate_fault_has_divergence_and_chain(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(5, 64)),
            make(isa.by_name("add_r64_r64"), reg("rbx"), reg("rax")),
            make(isa.by_name("add_r64_r64"), reg("rsi"), reg("rbx")),
            make(isa.by_name("nop")),
        ])
        report = campaign_gate_permanent(
            golden, FUClass.INT_ADDER, num_injections=40, seed=0
        )
        faults = report.top_detections(1)
        assert faults
        diagnosis = localize(golden, faults[0])
        assert diagnosis.outcome in ("sdc", "crash")
        assert diagnosis.structure == "int_adder#0"
        assert diagnosis.site.startswith("int_adder#0 wire")
        assert diagnosis.first_divergence_dyn is not None
        assert diagnosis.first_divergence_cycle is not None
        assert diagnosis.propagation
        first = diagnosis.propagation[0]
        assert first.kind in ("value", "memory", "load", "control")
        assert diagnosis.total_cycles == golden.total_cycles

    def test_chain_is_capped(self, isa):
        instructions = [
            make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(5, 64)),
        ]
        for _ in range(20):
            instructions.append(
                make(isa.by_name("add_r64_r64"), reg("rbx"),
                     reg("rax"))
            )
        golden = _golden(isa, instructions)
        report = campaign_gate_permanent(
            golden, FUClass.INT_ADDER, num_injections=40, seed=0
        )
        faults = report.top_detections(1)
        assert faults
        diagnosis = localize(golden, faults[0], max_chain=3)
        assert len(diagnosis.propagation) <= 3

    def test_memory_only_corruption_names_memory(self, isa):
        data_word = 0x100000 + 128
        golden = _golden(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 128),
                 reg("rax")),
        ] + [make(isa.by_name("nop"))] * 20 + [
            make(isa.by_name("mov_r64_m64"), reg("rbx"), mem("rbp", 128)),
            make(isa.by_name("mov_r64_imm64"), reg("rbx"), imm(0, 64)),
        ] + [make(isa.by_name("nop"))] * 5)
        schedule = golden.schedule
        interval = next(
            i for i in residency_intervals(
                schedule.cache_events, schedule.machine.cache,
                golden.total_cycles,
            ) if i.address == data_word - data_word % 64
        )
        store_cycle = next(
            e.cycle for e in schedule.cache_events if e.kind == "store"
        )
        fault = CacheTransient(
            set_index=interval.set_index, way=interval.way,
            bit_in_line=(128 % 64) * 8, cycle=store_cycle + 1,
        )
        injector = FaultInjector(golden)
        assert injector.inject(fault).outcome.value == "sdc"
        faulty = FunctionalSimulator(
            schedule.machine.for_program(golden.program.data_size)
        ).run(golden.program, injector.last_overrides)
        assert _corrupted_outputs(
            golden.result.output, faulty.output
        ) == ("memory",)
        assert localize(golden, fault).corrupted_outputs == ("memory",)
