"""The benchmark's own tests: measuring must not change what is measured.

Run from the repository root::

    python3 -m pytest perfbench -q

Short durations and a capped ``tcpxfer`` search keep this cheap.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from layertrace import LAYERS, LayerTrace  # noqa: E402
from repro.check import Budget, Explorer, build_world  # noqa: E402
from repro.harness.results import metrics_digest  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

SHORT = {"gw_chaos_perchar": 30.0, "gw_tcp_frame": 120.0}


def short_scenario(workload, seed=3):
    scenario = workloads.gateway_scenario(workload, seed)
    return replace(scenario, duration_seconds=SHORT[workload])


def traced_gateway(scenario):
    trace = LayerTrace()
    trace.install()
    try:
        run = workloads.build_scenario(scenario)
        trace.attach(run.sim)
        trace.start()
        metrics = workloads.run_sliced(
            run, workloads.SliceTimer(calibrate=False))
        trace.stop()
        return metrics, trace.metrics()
    finally:
        trace.remove()


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_sliced_and_traced_runs_match_the_plain_run(workload):
    scenario = short_scenario(workload)
    plain = workloads.build_scenario(scenario).run()
    timer = workloads.SliceTimer()
    sliced = workloads.run_sliced(workloads.build_scenario(scenario), timer)
    traced, layers = traced_gateway(scenario)
    assert len(timer.raw) == len(timer.normalised) == int(SHORT[workload])
    assert metrics_digest(sliced) == metrics_digest(plain)
    assert metrics_digest(traced) == metrics_digest(plain)
    assert layers["sim.events"] == plain["events_executed"]


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_layer_self_times_account_for_the_traced_wall(workload):
    _metrics, layers = traced_gateway(short_scenario(workload))
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert sum(layers[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert all(layers[f"check.{part}"] == 0 for part in
               ("capture_s", "restore_s", "fingerprint_s", "invariants_s",
                "step_s", "captures", "restores", "revisit_frac"))


def test_bypass_predictions():
    _chaos, chaos = traced_gateway(short_scenario("gw_chaos_perchar"))
    _tcp, tcp = traced_gateway(short_scenario("gw_tcp_frame"))
    assert chaos["kiss.push_byte_calls"] > 0
    assert tcp["kiss.push_byte_calls"] == 0
    assert chaos["obs.self_s"] == 0 and chaos["obs.sightings"] == 0
    assert tcp["obs.sightings"] > 0


def test_seed_reaches_the_scenario():
    first = workloads.build_scenario(short_scenario("gw_chaos_perchar", 0)).run()
    second = workloads.build_scenario(short_scenario("gw_chaos_perchar", 1)).run()
    assert metrics_digest(first) != metrics_digest(second)


def explore(name, budget, trace=None):
    world = build_world(name)
    explorer = Explorer(lambda: world, por=True, budget=budget)
    if trace is not None:
        trace.attach(world.sim, explorer.capturer)
        trace.start()
    result = explorer.run()
    if trace is not None:
        trace.stop()
    return result.summary()


def counts(summary):
    return {key: value for key, value in summary.items()
            if key not in ("elapsed_s", "states_per_second")}


def test_traced_exploration_matches_untraced():
    budgets = {"lapb2": Budget(), "tcpxfer": Budget(max_states=150)}
    for name, budget in budgets.items():
        untraced = explore(name, budget)
        trace = LayerTrace()
        trace.install()
        try:
            traced = explore(name, budget, trace)
        finally:
            trace.remove()
        assert counts(traced) == counts(untraced)
        assert trace.metrics()["check.captures"] > 0


def test_remove_restores_every_entry_point():
    before = dict(vars(Simulator))
    trace = LayerTrace()
    trace.install()
    assert vars(Simulator)["at"] is not before["at"]
    trace.remove()
    assert dict(vars(Simulator)) == before


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "gw_tcp_frame",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
