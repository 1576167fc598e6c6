"""Unit tests for L1D transient fault injection."""


from repro.faults.injector import FaultInjector, campaign_cache_transient
from repro.faults.models import CacheTransient
from repro.faults.outcomes import Outcome
from repro.isa import Program, imm, make, mem, reg
from repro.sim.cache import residency_intervals
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.cosim import golden_run

SMALL = MachineConfig(
    cache=CacheConfig(size=1024, line_size=64, associativity=2)
)


def _golden(isa, instructions, machine=SMALL):
    program = Program(
        instructions=tuple(instructions), name="cfi", init_seed=4,
        data_size=4096, source="test",
    )
    golden = golden_run(program, machine)
    assert not golden.crashed
    return golden


def _locate(golden, address):
    """Find (set, way, fill_cycle) where ``address``'s line resides."""
    intervals = residency_intervals(
        golden.schedule.cache_events,
        golden.schedule.machine.cache,
        golden.total_cycles,
    )
    line = address - address % 64
    for interval in intervals:
        if interval.address == line:
            return interval
    raise AssertionError("line never resident")


class TestCacheTransient:
    def test_empty_slot_masked(self, isa):
        golden = _golden(isa, [make(isa.by_name("nop"))] * 10)
        injector = FaultInjector(golden)
        result = injector.inject_cache_transient(
            CacheTransient(set_index=0, way=0, bit_in_line=0, cycle=1)
        )
        assert result.outcome is Outcome.MASKED

    def test_flip_before_load_corrupts_it(self, isa):
        base = 0x100000
        golden = _golden(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 0), reg("rax")),
        ] + [make(isa.by_name("nop"))] * 30 + [
            make(isa.by_name("mov_r64_m64"), reg("rbx"), mem("rbp", 0)),
        ])
        interval = _locate(golden, base)
        injector = FaultInjector(golden)
        store_cycle = next(
            e.cycle for e in golden.schedule.cache_events
            if e.kind == "store"
        )
        result = injector.inject_cache_transient(
            CacheTransient(
                set_index=interval.set_index,
                way=interval.way,
                bit_in_line=0,  # byte 0, bit 0 of the line
                cycle=store_cycle + 1,
            )
        )
        assert result.outcome.detected

    def test_flip_then_overwrite_masked(self, isa):
        base = 0x100000
        golden = _golden(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 0), reg("rax")),
            # overwrite the same word before anything reads it
            make(isa.by_name("mov_m64_r64"), mem("rbp", 0), reg("rbx")),
        ] + [make(isa.by_name("nop"))] * 5 + [
            # a clean re-read keeps the line from mattering at flush...
            make(isa.by_name("mov_r64_m64"), reg("rcx"), mem("rbp", 0)),
        ])
        interval = _locate(golden, base)
        injector = FaultInjector(golden)
        store_events = [
            e for e in golden.schedule.cache_events if e.kind == "store"
        ]
        first_store = store_events[0]
        second_store = store_events[1]
        # Flip strictly between the two stores (only possible when they
        # land on different cycles).
        if second_store.cycle > first_store.cycle:
            result = injector.inject_cache_transient(
                CacheTransient(
                    set_index=interval.set_index,
                    way=interval.way,
                    bit_in_line=0,
                    cycle=first_store.cycle + 1,
                )
            )
            assert result.outcome is Outcome.MASKED

    def test_dirty_data_detected_via_signature(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 128),
                 reg("rax")),
        ] + [make(isa.by_name("nop"))] * 20)
        interval = _locate(golden, 0x100000 + 128)
        injector = FaultInjector(golden)
        store_cycle = next(
            e.cycle for e in golden.schedule.cache_events
            if e.kind == "store"
        )
        result = injector.inject_cache_transient(
            CacheTransient(
                set_index=interval.set_index,
                way=interval.way,
                bit_in_line=(128 % 64) * 8,
                cycle=store_cycle + 1,
            )
        )
        # dirty word, no reader: the writeback corrupts the data region
        # and the wrapper's signature flags it.
        assert result.outcome is Outcome.SDC

    def test_dirty_flip_read_then_dead_is_sdc_via_rerun(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 128),
                 reg("rax")),
        ] + [make(isa.by_name("nop"))] * 20 + [
            make(isa.by_name("mov_r64_m64"), reg("rbx"), mem("rbp", 128)),
            # the loaded (faulty) value dies: only memory can show it
            make(isa.by_name("mov_r64_imm64"), reg("rbx"), imm(0, 64)),
        ] + [make(isa.by_name("nop"))] * 5)
        interval = _locate(golden, 0x100000 + 128)
        injector = FaultInjector(golden)
        store_cycle = next(
            e.cycle for e in golden.schedule.cache_events
            if e.kind == "store"
        )
        result = injector.inject_cache_transient(
            CacheTransient(
                set_index=interval.set_index,
                way=interval.way,
                bit_in_line=(128 % 64) * 8,
                cycle=store_cycle + 1,
            )
        )
        overrides = injector.last_overrides
        # The load saw the flip, so the verdict came from a re-run whose
        # output differs from the golden one in one data byte only.
        assert overrides.load_xor
        assert overrides.final_mem_xor == {0x100000 + 128: 1}
        assert result.outcome is Outcome.SDC

    def test_clean_line_fault_with_no_reader_masked(self, isa):
        golden = _golden(isa, [
            make(isa.by_name("mov_r64_m64"), reg("rax"), mem("rbp", 0)),
        ] + [make(isa.by_name("nop"))] * 20)
        interval = _locate(golden, 0x100000)
        injector = FaultInjector(golden)
        # Fault in a different word of the same (clean) line, after the
        # only load: discarded at flush, memory has the golden copy.
        result = injector.inject_cache_transient(
            CacheTransient(
                set_index=interval.set_index,
                way=interval.way,
                bit_in_line=32 * 8,
                cycle=interval.start_cycle + 1,
            )
        )
        assert result.outcome is Outcome.MASKED


class TestCacheCampaign:
    def test_reproducible(self, mixed_golden):
        a = campaign_cache_transient(mixed_golden, 40, seed=5)
        b = campaign_cache_transient(mixed_golden, 40, seed=5)
        assert a.breakdown() == b.breakdown()

    def test_structure_label(self, mixed_golden):
        report = campaign_cache_transient(mixed_golden, 10, seed=5)
        assert report.structure == "l1d_cache"
        assert report.total == 10
