"""Tests for pooled evaluation and table formatting."""


from repro.util.tables import format_table


class TestEvaluatorParallel:
    def test_process_pool_evaluation_matches_sequential(self):
        """Programs and metrics must be picklable: the 96-thread paper
        setup maps onto a process pool here."""
        from repro.core.evaluator import Evaluator
        from repro.core.generator import Generator
        from repro.coverage.metrics import IbrCoverage
        from repro.isa.instructions import FUClass
        from repro.microprobe.policies import GenerationConfig

        generator = Generator(GenerationConfig(num_instructions=40))
        programs = generator.initial_population(4)
        metric = IbrCoverage(FUClass.INT_ADDER)
        sequential = Evaluator(metric, workers=1).evaluate(programs)
        parallel = Evaluator(metric, workers=2).evaluate(programs)
        assert [e.fitness for e in sequential] == \
            [e.fitness for e in parallel]


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 22]],
        )
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_title(self):
        text = format_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.1235" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "| a" in text
