"""E-RATE — §VI-A: effective instruction generation rate.

Reproduced claim: Harpocrates' valid-by-construction pipeline generates
and evaluates runnable instructions at a large multiple of the byte-
fuzzing pipeline's rate (paper: 30×), because the fuzzer discards the
majority of its inputs (paper: >2/3).  Harpocrates' rate is one loop
iteration's instructions over its ``mutate`` / ``generate`` /
``evaluate`` observability phases (``experiments.table1``).
"""

from repro.experiments.genrate import run as run_genrate


def test_generation_rate(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_genrate, args=(bench_scale,), rounds=1, iterations=1
    )
    print()
    print(result.render())

    assert result.silifuzz.discard_fraction > 0.5
    assert result.speedup > 2.0  # paper: ~30x at full scale
