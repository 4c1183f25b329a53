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

import json

import pytest

from repro.harness import (
    EXPERIMENTS,
    SweepSpec,
    bench_json_path,
    run_sweep,
    write_bench_json,
)
from repro.harness.runner import seeds_from_count
from repro.metrics.stats import aggregate, t_critical_95

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
