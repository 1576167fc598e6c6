"""§VI-A — effective instruction generation rate comparison.

The paper measures 1,200 runnable instructions/second for SiliFuzz's
fuzz-then-filter pipeline against ~36,000 for Harpocrates' generate-
and-evaluate loop: a 30× advantage for the ISA-aware generator, whose
every emitted instruction is valid by construction while byte fuzzing
discards the majority of its work.  This experiment reproduces both
rates and the ratio on the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.silifuzz import FuzzStats, SiliFuzz, SiliFuzzConfig
from repro.experiments.presets import DEFAULT, ExperimentScale
from repro.experiments.table1 import LoopStep
from repro.experiments.table1 import run as run_table1
from repro.util.tables import format_table


@dataclass
class GenRateResult:
    silifuzz: FuzzStats
    harpocrates: LoopStep

    @property
    def silifuzz_rate(self) -> float:
        return self.silifuzz.instructions_per_second

    @property
    def harpocrates_rate(self) -> float:
        return self.harpocrates.instructions_per_second

    @property
    def speedup(self) -> float:
        if self.silifuzz_rate == 0:
            return float("inf")
        return self.harpocrates_rate / self.silifuzz_rate

    def render(self) -> str:
        rows = [
            [
                "silifuzz",
                f"{self.silifuzz_rate:,.0f}",
                f"{self.silifuzz.discard_fraction:.0%} discarded",
            ],
            [
                "harpocrates",
                f"{self.harpocrates_rate:,.0f}",
                "valid by construction",
            ],
        ]
        table = format_table(
            ["pipeline", "runnable instr/s", "notes"],
            rows,
            title="§VI-A — effective instruction generation rate",
        )
        return table + (
            f"\nHarpocrates / SiliFuzz rate ratio: {self.speedup:.1f}x "
            "(paper: ~30x)"
        )


def run(scale: ExperimentScale = DEFAULT) -> GenRateResult:
    fuzzer = SiliFuzz(
        SiliFuzzConfig(rounds=scale.silifuzz_rounds, seed=scale.seed)
    )
    fuzz_result = fuzzer.fuzz()
    return GenRateResult(
        silifuzz=fuzz_result.stats, harpocrates=run_table1(scale).step
    )
