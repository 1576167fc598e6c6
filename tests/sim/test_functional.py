"""Unit tests for the functional simulator and override machinery."""


from dataclasses import replace

from repro.isa import Program, make, mem, reg
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.functional import FunctionalSimulator
from repro.sim.overrides import Overrides
from repro.sim.state import ProgramOutput, initial_state


def _program(isa, instructions, **kwargs):
    defaults = dict(name="t", init_seed=1, data_size=4096, source="test")
    defaults.update(kwargs)
    return Program(instructions=tuple(instructions), **defaults)


class TestDeterminism:
    def test_same_program_same_output(self, isa, mixed_program):
        sim = FunctionalSimulator()
        a = sim.run(mixed_program, collect_records=False)
        b = sim.run(mixed_program, collect_records=False)
        assert a.output == b.output

    def test_different_seed_different_output(self, isa, mixed_program):
        from dataclasses import replace

        sim = FunctionalSimulator()
        a = sim.run(mixed_program, collect_records=False)
        b = sim.run(
            replace(mixed_program, init_seed=mixed_program.init_seed + 1),
            collect_records=False,
        )
        assert a.output != b.output

    def test_nondet_salt_changes_rdtsc_output(self, isa):
        program = _program(isa, [make(isa.by_name("rdtsc"))])
        sim = FunctionalSimulator()
        a = sim.run(program, Overrides(nondet_salt=1))
        b = sim.run(program, Overrides(nondet_salt=2))
        assert a.output != b.output

    def test_nondet_salt_no_effect_on_deterministic_code(
        self, isa, mixed_program
    ):
        sim = FunctionalSimulator()
        a = sim.run(mixed_program, Overrides(nondet_salt=1))
        b = sim.run(mixed_program, Overrides(nondet_salt=2))
        assert a.output == b.output


class TestRecords:
    def test_reads_and_writes_recorded(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx"))],
        )
        result = FunctionalSimulator().run(program)
        record = result.records[0]
        assert "rax" in record.reads and "rbx" in record.reads
        assert record.writes == ["rax"]

    def test_implicit_operands_recorded(self, isa):
        program = _program(
            isa, [make(isa.by_name("mul1_r64"), reg("rbx"))]
        )
        record = FunctionalSimulator().run(program).records[0]
        assert "rax" in record.reads
        assert set(record.writes) == {"rax", "rdx"}

    def test_memory_access_recorded(self, isa):
        program = _program(
            isa,
            [
                make(isa.by_name("mov_m64_r64"), mem("rbp", 16),
                     reg("rax")),
                make(isa.by_name("mov_r64_m64"), reg("rbx"),
                     mem("rbp", 16)),
            ],
        )
        records = FunctionalSimulator().run(program).records
        assert records[0].mem_write is not None
        assert records[0].mem_write.size == 8
        assert records[1].mem_read is not None
        assert records[1].mem_read.address == \
            records[0].mem_write.address

    def test_fu_op_recorded_for_adder(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("sub_r64_r64"), reg("rax"), reg("rbx"))],
        )
        record = FunctionalSimulator().run(program).records[0]
        assert record.fu_op is not None
        a, b_eff, cin = record.fu_op.inputs
        assert cin == 1  # subtraction = a + ~b + 1

    def test_collect_records_false_is_lighter(self, isa, mixed_program):
        result = FunctionalSimulator().run(
            mixed_program, collect_records=False
        )
        assert result.records == []
        assert result.output is not None


class TestOverrides:
    def test_reg_read_xor_changes_value(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx"))],
        )
        sim = FunctionalSimulator()
        golden = sim.run(program)
        faulty = sim.run(
            program,
            Overrides(reg_read_xor={(0, "rbx"): 1 << 5}),
        )
        assert dict(faulty.output.gprs)["rax"] == \
            dict(golden.output.gprs)["rax"] ^ (1 << 5)

    def test_reg_read_xor_targets_one_instruction(self, isa):
        program = _program(
            isa,
            [
                make(isa.by_name("mov_r64_r64"), reg("rcx"), reg("rbx")),
                make(isa.by_name("mov_r64_r64"), reg("rsi"), reg("rbx")),
            ],
        )
        sim = FunctionalSimulator()
        faulty = sim.run(
            program, Overrides(reg_read_xor={(1, "rbx"): 1})
        )
        gprs = dict(faulty.output.gprs)
        assert gprs["rcx"] == gprs["rbx"]          # instr 0 clean
        assert gprs["rsi"] == gprs["rbx"] ^ 1      # instr 1 corrupted

    def test_load_xor(self, isa):
        program = _program(
            isa,
            [
                make(isa.by_name("mov_m64_r64"), mem("rbp", 0),
                     reg("rax")),
                make(isa.by_name("mov_r64_m64"), reg("rbx"),
                     mem("rbp", 0)),
            ],
        )
        sim = FunctionalSimulator()
        faulty = sim.run(program, Overrides(load_xor={1: 0xFF}))
        gprs = dict(faulty.output.gprs)
        assert gprs["rbx"] == gprs["rax"] ^ 0xFF

    def test_fu_int_override_replaces_result(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx"))],
        )
        sim = FunctionalSimulator()
        faulty = sim.run(program, Overrides(fu_int={0: 1234}))
        assert dict(faulty.output.gprs)["rax"] == 1234

    def test_final_reg_xor(self, isa):
        program = _program(isa, [make(isa.by_name("nop"))])
        sim = FunctionalSimulator()
        golden = sim.run(program)
        faulty = sim.run(program, Overrides(final_reg_xor={"r9": 1}))
        assert dict(faulty.output.gprs)["r9"] == \
            dict(golden.output.gprs)["r9"] ^ 1

    def test_final_mem_xor_changes_signature(self, isa):
        program = _program(isa, [make(isa.by_name("nop"))])
        sim = FunctionalSimulator()
        golden = sim.run(program)
        base = golden.program.data_size  # any in-region address offset
        address = 0x100000 + 10
        faulty = sim.run(program, Overrides(final_mem_xor={address: 1}))
        assert faulty.output.memory_signature != \
            golden.output.memory_signature

    def test_reg_read_force_stuck_at(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("mov_r64_r64"), reg("rax"), reg("rbx"))],
        )
        sim = FunctionalSimulator()
        mask64 = (1 << 64) - 1
        faulty = sim.run(
            program,
            Overrides(reg_read_force={(0, "rbx"): (mask64 ^ 0xFF, 0x55)}),
        )
        assert dict(faulty.output.gprs)["rax"] & 0xFF == 0x55

    def test_corrupted_base_register_can_crash(self, isa):
        program = _program(
            isa,
            [make(isa.by_name("mov_r64_m64"), reg("rax"),
                  mem("rbp", 0))],
        )
        sim = FunctionalSimulator()
        faulty = sim.run(
            program, Overrides(reg_read_xor={(0, "rbp"): 1 << 40})
        )
        assert faulty.crashed
        assert faulty.crash.kind == "memory_fault"


class TestInitialStateTemplate:
    """Runs on one simulator share a built initial state but never
    each other's changes to it."""

    @staticmethod
    def _writer(isa, **kwargs):
        # Stores to memory, writes registers and flags.
        return _program(isa, [
            make(isa.by_name("mov_m64_r64"), mem("rbp", 8), reg("rax")),
            make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx")),
            make(isa.by_name("mov_m64_r64"), mem("rbp", 16), reg("rax")),
        ], **kwargs)

    @staticmethod
    def _pristine(program):
        layout = DEFAULT_MACHINE.for_program(program.data_size).memory
        return ProgramOutput.from_state(
            initial_state(program.init_seed, layout)
        )

    def test_runs_start_from_pristine_state(self, isa):
        writer = self._writer(isa)
        nop = _program(isa, [make(isa.by_name("nop"))])
        sim = FunctionalSimulator()
        first = sim.run(writer)
        faulty = sim.run(
            writer, Overrides(final_mem_xor={0x100000 + 8: 0xFF})
        )
        second = sim.run(writer)
        fresh = FunctionalSimulator().run(writer)
        assert first.output == second.output == fresh.output
        assert faulty.output != first.output
        flipped = [
            i for i, (a, b) in enumerate(
                zip(first.output.data, faulty.output.data)
            ) if a != b
        ]
        assert flipped == [8]
        # A nop run after all of them sees the untouched initial state.
        assert sim.run(nop).output == self._pristine(nop)

    def test_seed_and_layout_changes_rebuild(self, isa):
        writer = self._writer(isa)
        programs = [
            writer,
            replace(writer, init_seed=2),
            replace(writer, data_size=2048),
            writer,
        ]
        sim = FunctionalSimulator()
        for program in programs:
            assert sim.run(program).output == \
                FunctionalSimulator().run(program).output
