"""Drive one workload: rounds, checks, metrics and the JSON result.

Untraced (``--trace 0``): run :meth:`Workload.rounds` rounds, each with
its own derived loop seed, check every round's outputs, and report
each end-to-end metric over all of them.  Traced (``--trace 1``): run
the first round untraced, then again under the :class:`Ledger`; both
must report identical outputs, and the per-layer metrics come from the
traced one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from typing import Callable, List

from campaignbench.campaign import (
    RoundResult,
    build_manager,
    build_target,
    campaign_metrics,
    peak_rss_mb,
    run_round,
)
from campaignbench.checks import (
    CheckFailure,
    check_same_outputs,
    verify_round,
)
from campaignbench.hostclock import HostClock, normalise, probe
from campaignbench.ledger import LAYER_METRICS, Ledger
from campaignbench.workloads import WORKLOADS, round_seed

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "loop_instr_per_s": "instr/s",
    "injections_per_s": "inj/s",
    "detection": "fraction",
    "peak_rss_mb": "MB",
}

#: The set-up has a single probe to normalise it, so a longer one.
SETUP_PROBE_REPEATS = 15

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _describe(seed: int, rnd: RoundResult) -> str:
    figures = campaign_metrics([rnd])
    health = rnd.loop.health
    return (
        f"loop seed {seed}: campaign {figures['campaign_s']:.3f} s "
        f"(raw {sum(rnd.raw_s.values()):.3f} s), "
        f"loop {figures['loop_instr_per_s']:.0f} instr/s, "
        f"{figures['injections_per_s']:.1f} inj/s, "
        f"detected {rnd.detected}/{rnd.injected}, "
        f"graded {rnd.graded} (cache hits {health.cache_hits}, "
        f"screened {health.static_skips})"
    )


def _untraced(workload, seed, seconds, target, manager, setup_raw):
    rounds: List[RoundResult] = []
    setup_probe = probe(SETUP_PROBE_REPEATS)
    setup_s = normalise(setup_raw, setup_probe)
    _log(f"set-up {setup_s:.3f} s (raw {setup_raw:.3f} s, probe "
         f"{setup_probe * 1e3:.2f} ms)")
    for index in range(workload.rounds(seconds)):
        if index:
            target = build_target(workload, round_seed(seed, index))
            manager = build_manager(workload, target)
        rnd = run_round(workload, target, manager, HostClock())
        _log(_describe(target.loop.seed, rnd))
        verify_round(target, rnd, workload.generations)
        rounds.append(rnd)
    metrics = campaign_metrics(rounds)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = max(
        [peak_rss_mb()] + [rnd.worker_rss_mb for rnd in rounds]
    )
    return rounds, {
        name: (metrics[name], unit)
        for name, unit in END_TO_END_UNITS.items()
    }


def _traced(workload, target, manager):
    reference = run_round(workload, target, manager, HostClock())
    _log(_describe(target.loop.seed, reference) + " [untraced]")
    verify_round(target, reference, workload.generations)
    untraced_s = sum(reference.norm_s.values())
    ledger = Ledger()
    before = probe()
    ledger.install()
    try:
        traced = run_round(
            workload, target, build_manager(workload, target),
            HostClock(normalise=False),
        )
    finally:
        ledger.uninstall()
    after = probe()
    check_same_outputs(
        reference.outputs(), traced.outputs(), "traced against untraced"
    )
    traced_raw = sum(traced.raw_s.values())
    traced_s = normalise(traced_raw, (before + after) / 2)
    _log(ledger.table(traced_raw))
    _log(
        f"campaign traced {traced_s:.3f} s, untraced {untraced_s:.3f} s "
        f"(normalised): tracing overhead {traced_s / untraced_s - 1:+.1%} "
        f"over {len(ledger.spans)} spans"
    )
    path = os.path.join(
        OUT_DIR, f"trace-{workload.name}-seed{target.loop.seed}.jsonl"
    )
    ledger.write_spans(path, f"{workload.name}/{target.loop.seed}")
    _log(f"spans written to {path}")
    metrics = ledger.metrics()
    return [reference, traced], {
        name: (metrics[name], unit) for name, unit in LAYER_METRICS
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    process_age: Callable[[], float],
) -> int:
    """Run one workload; print the result line; return the exit code."""
    workload = WORKLOADS[workload_name]
    target = build_target(workload, round_seed(seed, 0))
    manager = build_manager(workload, target)
    setup_raw = process_age()
    try:
        if trace:
            rounds, metrics = _traced(workload, target, manager)
        else:
            rounds, metrics = _untraced(
                workload, seed, seconds, target, manager, setup_raw
            )
    except CheckFailure as failure:
        _log(f"campaignbench: output check failed: {failure}")
        return 1
    finally:
        # Closed pools shut down without waiting; wait for every
        # worker process here so none outlives the run.
        for child in multiprocessing.active_children():
            child.join(timeout=30)
    for rnd in rounds:
        for campaign in rnd.campaigns:
            if campaign.error:
                _log(f"campaign on {campaign.entry.name} raised: "
                     f"{campaign.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, sort_keys=True))
    return 0
