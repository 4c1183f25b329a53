"""Tests for the experiment harness (repro.harness).

Covers the three load-bearing guarantees:

* statistics -- :func:`repro.metrics.stats.aggregate` computes the
  Student-t 95% CI the sweep reports;
* determinism across worker layouts -- the same (params, seed) cell
  yields identical metrics whether the sweep runs inline or fanned
  across ``multiprocessing`` workers;
* a stable BENCH_*.json schema for the perf-trajectory artifacts.

Sweeps here use the cheap ``a3`` bench pinned to a single grid point so
the whole file stays fast.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.faults import FaultPlan, chaos_plan

from repro.harness import (
    EXPERIMENTS,
    SweepSpec,
    bench_json_path,
    run_sweep,
    write_bench_json,
)
from repro.harness.experiments import (
    OBS_MIX,
    chaos_scenario,
    chaos_targets,
    obs_scenario,
    scaled_mix,
    with_chaos,
)
from repro.harness.runner import params_key, seeds_from_count
from repro.metrics.stats import aggregate, t_critical_95
from repro.workload.scenario import Scenario

#: One cheap grid point for sweep-mechanics tests.
A3_POINT = ({"persistence": 0.25},)


def test_aggregate_mean_stdev_ci():
    stats = aggregate([2.0, 4.0, 6.0])
    assert stats.count == 3
    assert stats.mean == pytest.approx(4.0)
    assert stats.stdev == pytest.approx(2.0)
    # t(df=2, 95%) = 4.303; CI = t * s / sqrt(n).
    assert stats.ci95 == pytest.approx(4.303 * 2.0 / 3 ** 0.5, rel=1e-3)
    assert stats.minimum == 2.0 and stats.maximum == 6.0
    assert "±" in stats.render()


def test_aggregate_single_value_and_empty():
    stats = aggregate([7.5])
    assert stats.mean == 7.5 and stats.stdev == 0.0 and stats.ci95 == 0.0
    with pytest.raises(ValueError):
        aggregate([])


def test_t_critical_table():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(30) == pytest.approx(2.042)
    # Beyond the table the normal approximation takes over.
    assert t_critical_95(1000) == pytest.approx(1.96)


def test_seeds_from_count():
    assert seeds_from_count(3) == (1, 2, 3)
    assert seeds_from_count(2, base=100) == (100, 101)
    with pytest.raises(ValueError):
        seeds_from_count(0)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(bench="a3", seeds=())
    with pytest.raises(ValueError):
        SweepSpec(bench="a3", seeds=(1,), procs=0)
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(bench="no-such-bench", seeds=(1,)))


def test_sweep_inline_runs_grid_and_aggregates():
    spec = SweepSpec(bench="a3", seeds=(1, 2), grid=A3_POINT, procs=1)
    result = run_sweep(spec)
    assert len(result.records) == 2
    assert [record.seed for record in result.records] == [1, 2]
    (key, params), = result.grid_points()
    assert params == {"persistence": 0.25}
    stats = result.aggregates[key]
    assert stats["delivered"].count == 2
    assert stats["offered"].mean == 40.0  # 5 stations x 8 frames


def test_parallel_sweep_metrics_identical_to_inline():
    # The determinism contract the whole harness rests on: metrics are
    # a pure function of (params, seed), so the multiprocessing path
    # must reproduce the inline path exactly.
    seeds = (1, 2, 3)
    inline = run_sweep(SweepSpec(bench="a3", seeds=seeds,
                                 grid=A3_POINT, procs=1))
    fanned = run_sweep(SweepSpec(bench="a3", seeds=seeds,
                                 grid=A3_POINT, procs=2))
    assert fanned.workers_used > 1
    assert [(r.params, r.seed, r.metrics) for r in inline.records] == \
           [(r.params, r.seed, r.metrics) for r in fanned.records]


def test_experiment_registry_shape():
    for name, experiment in EXPERIMENTS.items():
        assert experiment.name == name
        assert experiment.grid, f"{name} has an empty default grid"
        assert experiment.description
    assert {"e3", "a3", "soak"} <= set(EXPERIMENTS)


def test_bench_json_roundtrip(tmp_path):
    result = run_sweep(SweepSpec(bench="a3", seeds=(1, 2),
                                 grid=A3_POINT, procs=1))
    path = write_bench_json(bench_json_path("a3", tmp_path), result)
    assert path == tmp_path / "BENCH_a3.json"
    document = json.loads(path.read_text())
    assert document["bench"] == "a3" and document["schema"] == 1
    assert document["spec"]["seeds"] == [1, 2]
    assert len(document["runs"]) == 2
    run = document["runs"][0]
    assert run["params"] == {"persistence": 0.25} and run["seed"] == 1
    assert run["metrics"]["offered"] == 40.0
    (aggregated,) = document["aggregates"]
    assert set(aggregated["metrics"]["delivered"]) == {
        "n", "mean", "stdev", "ci95", "min", "max",
    }
    # Deterministic serialisation: same result, same bytes.
    again = tmp_path / "again.json"
    write_bench_json(again, result)
    assert again.read_text() == path.read_text()


def test_bench_json_preshaped_dict(tmp_path):
    # The form the pytest perf microbench uses.
    path = write_bench_json(
        tmp_path / "BENCH_perf.json",
        {"runs": [{"params": {"case": "x"}, "seed": 0,
                   "metrics": {"events_per_s": 1e6}}]},
        bench="perf",
    )
    document = json.loads(path.read_text())
    assert document["bench"] == "perf" and document["schema"] == 1


def test_params_key_ignores_insertion_order_and_stringifies():
    assert params_key({"b": 2, "a": (1, 2)}) == params_key({"a": [1, 2], "b": 2})
    assert params_key({"plan": FaultPlan(())}) == params_key(
        {"plan": str(FaultPlan(()))})


# The three constructions obs_scenario replaced, as they were written:
# run_obs, sanitize_scenario and ``report`` without ``--bench``.

def _old_run_obs(seed, variant, stations, duration_seconds):
    scenario = Scenario(
        name=f"obs-{variant}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=OBS_MIX, seed=seed,
        observe=True,
    )
    if variant == "chaos":
        scenario = with_chaos(scenario)
    return scenario


def _old_sanitize_scenario(seed, variant, stations, duration_seconds):
    scenario = Scenario(
        name=f"sanitize-{variant}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=OBS_MIX, seed=seed,
        sanitize=True,
    )
    return with_chaos(scenario) if variant == "chaos" else scenario


def _old_single_report(seed, variant, stations, duration, no_observe):
    scenario = Scenario(
        name=f"report-{variant}", topology="gateway",
        stations=stations, duration_seconds=duration,
        mix=OBS_MIX, seed=seed, observe=not no_observe,
    )
    if variant == "chaos":
        scenario = with_chaos(scenario)
    return scenario


def _fields(scenario):
    return {field.name: getattr(scenario, field.name)
            for field in dataclasses.fields(scenario)}


@pytest.mark.parametrize("variant", ["e3", "chaos"])
def test_obs_scenario_is_what_each_old_construction_built(variant):
    for seed, stations, duration in ((0, 8, 150.0), (3, 10, 60.0)):
        args = (seed, variant, stations, duration)
        assert _fields(obs_scenario(*args, observe=True)) == _fields(
            _old_run_obs(*args))
        assert _fields(obs_scenario(*args, prefix="sanitize",
                                    sanitize=True)) == _fields(
            _old_sanitize_scenario(*args))
        for no_observe in (False, True):
            assert _fields(obs_scenario(*args, prefix="report",
                                        observe=not no_observe)) == _fields(
                _old_single_report(*args, no_observe))
    assert (obs_scenario(0, variant, 8, 150.0).fault_plan is None) == (
        variant == "e3")


def test_obs_scenario_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown sanitize variant"):
        obs_scenario(0, "storm", 8, 150.0, prefix="sanitize")


def _old_chaos_scenario(seed=0, stations=50, duration_seconds=240.0,
                        mix="mixed", rate_scale=0.25, watchdog=True,
                        shed_threshold_bytes=2048):
    """``chaos_scenario`` as it was written before it used ``with_chaos``."""
    scenario = Scenario(
        name=f"chaos-{mix}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=scaled_mix(mix, rate_scale),
        seed=seed, watchdog=watchdog,
        shed_threshold_bytes=shed_threshold_bytes,
    )
    plan = chaos_plan(int(duration_seconds), gateway="gateway",
                      stations=chaos_targets(scenario, 2))
    return dataclasses.replace(scenario, fault_plan=plan)


@pytest.mark.parametrize("params", [
    {},
    {"seed": 3, "stations": 8, "duration_seconds": 90.0},
    {"mix": "bursty", "rate_scale": 1.0, "watchdog": False,
     "shed_threshold_bytes": 0},
    {"stations": 2, "duration_seconds": 30.5},
], ids=("default", "gate-quick-drive", "bursty-no-watchdog", "one-ip"))
def test_chaos_scenario_is_what_its_old_construction_built(params):
    assert _fields(chaos_scenario(**params)) == _fields(
        _old_chaos_scenario(**params))
