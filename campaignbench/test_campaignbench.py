"""Tests of the benchmark itself: every output check fails on a planted
wrong value, the ledger reports every per-layer metric and leaves the
program as it found it, and the command prints every metric that
``BENCHMARK.json`` names.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q campaignbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.core.evaluator as evaluator_module
from repro.core.loop import HarpocratesLoop
from repro.faults.outcomes import InjectionResult, Outcome
from repro.sim.functional import FunctionalSimulator

from campaignbench.campaign import (
    build_manager,
    build_target,
    campaign_metrics,
    run_round,
)
from campaignbench.checks import (
    CheckFailure,
    check_cycle_bound,
    check_same_outputs,
    check_static_bound,
    verify_round,
)
from campaignbench.hostclock import HostClock
from campaignbench.ledger import LAYER_METRICS, Ledger
from campaignbench.workloads import (
    MAX_ROUNDS,
    WORKLOADS,
    Workload,
    round_seed,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: A few-second stand-in with every stage a workload can have.
TINY = Workload(
    name="tiny",
    target="int_adder",
    preset="smoke",
    generations=3,
    injections=16,
    explain_top=1,
)


def _round(ledger=None):
    target = build_target(TINY, 7)
    manager = build_manager(TINY, target)
    if ledger is None:
        return target, run_round(TINY, target, manager, HostClock(False))
    ledger.install()
    try:
        return target, run_round(TINY, target, manager, HostClock(False))
    finally:
        ledger.uninstall()


@pytest.fixture(scope="module")
def tiny():
    return _round()


def _fails(target, rnd, match):
    with pytest.raises(CheckFailure, match=match):
        verify_round(target, rnd, TINY.generations)


def test_tiny_round_passes_every_check(tiny):
    target, rnd = tiny
    verify_round(target, rnd, TINY.generations)
    assert rnd.witnesses, "the tiny round must exercise the witness check"
    assert rnd.failed == 0
    assert all(value > 0 for value in campaign_metrics([rnd]).values())


def test_regrade_catches_fitness_off_by_1e6(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    planted.loop.best[1].fitness += 1e-6
    _fails(target, planted, "re-graded")


def test_regrade_catches_wrong_cycles(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    planted.loop.best[0].total_cycles += 1
    _fails(target, planted, "re-simulated")


def test_elitism_catches_falling_best(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    history = planted.loop.history
    history[-1].best_fitness = history[0].best_fitness - 0.01
    _fails(target, planted, "best fitness fell")


def test_graded_count_catches_missing_candidate(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    planted.graded -= 1
    _fails(target, planted, "graded")


def test_reinjection_catches_flipped_verdict(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    injections = planted.campaigns[0].report.injections
    first = injections[0]
    flipped = Outcome.MASKED if first.outcome.detected else Outcome.SDC
    injections[0] = InjectionResult(first.fault, flipped)
    _fails(target, planted, "campaign verdict")


def test_witness_check_catches_wrong_outcome(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    witness = planted.witnesses[0]
    wrong = "crash" if witness.outcome == "sdc" else "sdc"
    planted.witnesses[0] = dataclasses.replace(witness, outcome=wrong)
    _fails(target, planted, "re-detects")


def test_witness_check_catches_longer_witness(tiny):
    target, rnd = tiny
    planted = copy.deepcopy(rnd)
    witness = planted.witnesses[0]
    original = planted.campaigns[0].entry.program
    longer = original.with_instructions(
        original.instructions + witness.minimized.instructions
    )
    planted.witnesses[0] = dataclasses.replace(witness, minimized=longer)
    _fails(target, planted, "witness has")


def test_static_bound_check():
    check_static_bound("p", 0.25, 0.25)
    with pytest.raises(CheckFailure):
        check_static_bound("p", 0.25 + 1e-6, 0.25)
    with pytest.raises(CheckFailure):
        check_static_bound("p", -1e-6, 0.25)
    with pytest.raises(CheckFailure):
        check_static_bound("p", 0.0, None)


def test_static_bound_check_in_round(tiny, monkeypatch):
    target, rnd = tiny
    monkeypatch.setattr(
        "campaignbench.checks.static_bound", lambda *args: 0.0
    )
    _fails(target, rnd, "outside")


def test_cycle_bound_check():
    check_cycle_bound("p", 25, 100, 4)
    with pytest.raises(CheckFailure):
        check_cycle_bound("p", 24, 100, 4)


def test_same_outputs_check(tiny):
    _, rnd = tiny
    check_same_outputs(rnd.outputs(), copy.deepcopy(rnd).outputs(), "x")
    planted = copy.deepcopy(rnd)
    planted.campaigns[0].report.injections.pop()
    with pytest.raises(CheckFailure):
        check_same_outputs(rnd.outputs(), planted.outputs(), "x")


def test_traced_round_matches_untraced_and_restores_program(tiny):
    _, untraced = tiny

    def bound():
        return (
            vars(FunctionalSimulator)["run"],
            vars(HarpocratesLoop)["run"],
            vars(evaluator_module)["static_bound"],
        )

    originals = bound()
    ledger = Ledger()
    _, traced = _round(ledger)
    check_same_outputs(untraced.outputs(), traced.outputs(), "traced")
    assert bound() == originals
    metrics = ledger.metrics()
    assert [name for name, _ in LAYER_METRICS] == list(metrics)
    for name in ("functional.golden_s", "faults.replay_s",
                 "gatelevel.diff_s", "explain.minimize_s",
                 "generator.realize_s", "screen.bound_s"):
        assert metrics[name] > 0, name
    assert metrics["faults.injections"] >= untraced.injected
    assert metrics["loop.generations"] == TINY.generations


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        LAYER_METRICS
    )
    assert SPEC["paths"] == ["campaignbench"]


def test_rounds_share_no_initial_program():
    population = max(
        build_target(workload, 0).loop.population
        for workload in WORKLOADS.values()
    )
    synthesis_seeds = [
        round_seed(seed, index) + offset
        for seed in range(-20, 20)
        for index in range(MAX_ROUNDS)
        for offset in range(population)
    ]
    assert len(set(synthesis_seeds)) == len(synthesis_seeds)


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "campaignbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_every_end_to_end_metric():
    done = _run(ROOT, "--workload", "inject-int_adder", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(metric["value"] > 0
               for metric in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "campaignbench"),
        tmp_path / "campaignbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = _run(tmp_path, "--workload", "evolve-l1d", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
