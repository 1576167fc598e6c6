"""E-TAB1 — Table I: single loop-step duration breakdown.

Reproduced shape: mutation is nearly free next to generation and
evaluation, and the derived runnable-instruction throughput is the
input to the §VI-A rate comparison.  The stages are the loop's own
``mutate`` / ``generate`` / ``evaluate`` observability phases.
"""

from repro.experiments.table1 import run as run_table1


def test_table1_loop_step(benchmark, bench_scale, bench_artifact):
    result = benchmark.pedantic(
        run_table1, args=(bench_scale,), rounds=1, iterations=1
    )
    print()
    print(result.render())
    step = result.step

    # Stage shape (Table I): mutation << generation; every stage ran.
    assert step.mutation_seconds < step.generation_seconds
    assert step.generation_seconds > 0
    assert step.evaluation_seconds > 0
    assert step.instructions_per_second > 0
    bench_artifact("table1_loop_step", {
        "mean_seconds": benchmark.stats["mean"],
        "phases_seconds": {
            "generation": step.generation_seconds,
            "mutation": step.mutation_seconds,
            "evaluation": step.evaluation_seconds,
        },
        "ops_per_second": step.instructions_per_second,
        "unit": "runnable instr/s",
    })
