"""reprocheck performance microbenchmark.

The mc gate runs on every CI push, so exploration throughput matters:
a checker that slows from hundreds of states/s to single digits stops
being a gate and becomes a timeout.  Two columns are tracked through
``BENCH_mcperf.json``: raw exploration rate on the lapb2 preset, and
the partial-order-reduction ratio on the lapb2 execution tree (the
quantity the acceptance bar pins at >= 2x; it actually sits far
higher).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.check import Budget, Explorer
from repro.check.worlds import Lapb2World
from repro.harness.results import bench_json_path, write_bench_json

#: Floor for exploration throughput, states/second.  Typical runs do
#: well over a thousand; the floor catches an accidentally quadratic
#: fingerprint or a snapshot blow-up, not normal variance.
STATES_PER_SECOND_FLOOR = 50.0

#: Floor for the POR ratio on the lapb2 execution tree (acceptance bar).
POR_RATIO_FLOOR = 2.0

#: State allowance handed to the unreduced baseline walk; reaching it
#: proves the ratio's floor without paying for the full 50k-node tree.
NAIVE_STATE_CAP = 8000

_RESULTS: Dict[str, Dict[str, float]] = {}


def test_exploration_rate_above_floor(benchmark):
    def run():
        explorer = Explorer(Lapb2World, por=True,
                            budget=Budget(max_wall_seconds=120))
        return explorer.run()

    result = benchmark(run)
    assert result.complete and result.violations == []

    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        mean = float(stats.stats.mean)
    else:  # --benchmark-disable: fall back to one timed run
        started = time.perf_counter()
        result = run()
        mean = time.perf_counter() - started
    rate = result.states / mean if mean else 0.0
    assert rate > STATES_PER_SECOND_FLOOR, (
        f"lapb2 exploration ran at {rate:.0f} states/s, floor "
        f"{STATES_PER_SECOND_FLOOR}")
    _RESULTS["lapb2_explore"] = {
        "states": float(result.states),
        "transitions": float(result.transitions),
        "mean_seconds": mean,
        "states_per_s": rate,
        "floor_states_per_s": STATES_PER_SECOND_FLOOR,
    }


def test_por_ratio_above_floor():
    tree = Explorer(Lapb2World, por=True, dedup=False,
                    budget=Budget(max_wall_seconds=120)).run()
    assert tree.complete, "POR tree walk must reach fixpoint"
    naive = Explorer(Lapb2World, por=False, dedup=False,
                     budget=Budget(max_states=NAIVE_STATE_CAP,
                                   max_wall_seconds=120)).run()
    ratio = naive.states / tree.states if tree.states else 0.0
    assert ratio >= POR_RATIO_FLOOR, (
        f"POR ratio {ratio:.2f}x below the {POR_RATIO_FLOOR}x floor "
        f"({naive.states} naive vs {tree.states} reduced states)")
    _RESULTS["lapb2_por_ratio"] = {
        "por_states": float(tree.states),
        "por_transitions": float(tree.transitions),
        "naive_states": float(naive.states),
        "naive_transitions": float(naive.transitions),
        "ratio": round(ratio, 2),
        # 1.0 when the baseline hit its cap: the true ratio is higher.
        "ratio_is_lower_bound": 0.0 if naive.complete else 1.0,
        "floor_ratio": POR_RATIO_FLOOR,
    }


def test_emit_bench_json():
    """Write BENCH_mcperf.json from whatever ran above."""
    assert _RESULTS, "mc bench must run before the JSON emitter"
    runs = [
        {"params": {"case": case}, "seed": 0, "metrics": metrics}
        for case, metrics in sorted(_RESULTS.items())
    ]
    write_bench_json(
        bench_json_path("mcperf"),
        {"bench": "mcperf",
         "spec": {"source": "benchmarks/test_mc_perf.py"},
         "runs": runs},
    )
    assert bench_json_path("mcperf").exists()
