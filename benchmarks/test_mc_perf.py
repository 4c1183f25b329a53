"""reprocheck performance microbenchmark.

The mc gate runs on every CI push, so exploration throughput matters:
a checker that slows from hundreds of states/s to single digits stops
being a gate and becomes a timeout.  Two columns are tracked through
``BENCH_mcperf.json``: raw exploration rate on the lapb2 preset, and
the partial-order-reduction ratio on the lapb2 execution tree (the
quantity the acceptance bar pins at >= 2x; it actually sits far
higher).  A module-teardown fixture writes the file, and only when both
cases ran with benchmarking on.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.check import Budget, Explorer, por_ratio
from repro.check.worlds import Lapb2World

from benchmarks.conftest import mean_seconds, write_cases

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


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write BENCH_mcperf.json after both cases have run timed."""
    yield
    write_cases("mcperf", "benchmarks/test_mc_perf.py", _RESULTS, __name__)


def test_exploration_rate_above_floor(benchmark):
    def run():
        explorer = Explorer(Lapb2World, por=True,
                            budget=Budget(max_wall_seconds=120))
        return explorer.run()

    result = benchmark(run)
    assert result.complete and result.violations == []

    mean = mean_seconds(benchmark, run)
    rate = result.states / mean if mean else 0.0
    assert rate > STATES_PER_SECOND_FLOOR, (
        f"lapb2 exploration ran at {rate:.0f} states/s, floor "
        f"{STATES_PER_SECOND_FLOOR}")
    if benchmark.disabled:
        return
    _RESULTS["lapb2_explore"] = {
        "states": float(result.states),
        "transitions": float(result.transitions),
        "mean_seconds": mean,
        "states_per_s": rate,
        "floor_states_per_s": STATES_PER_SECOND_FLOOR,
    }


def test_por_ratio_above_floor(benchmark):
    por, ratio, complete = benchmark.pedantic(
        por_ratio, args=(Budget(max_wall_seconds=120), NAIVE_STATE_CAP),
        rounds=1, iterations=1)
    assert complete, "POR tree walk must reach fixpoint"
    assert ratio >= POR_RATIO_FLOOR, (
        f"POR ratio {ratio:.2f}x below the {POR_RATIO_FLOOR}x floor "
        f"({por['naive_states']} naive vs {por['por_states']} reduced "
        f"states)")
    if benchmark.disabled:
        return
    _RESULTS["lapb2_por_ratio"] = {
        **{key: float(por[key]) for key in (
            "por_states", "por_transitions", "naive_states",
            "naive_transitions", "ratio")},
        # 1.0 when the baseline hit its cap: the true ratio is higher.
        "ratio_is_lower_bound": float(por["lower_bound"]),
        "floor_ratio": POR_RATIO_FLOOR,
    }

