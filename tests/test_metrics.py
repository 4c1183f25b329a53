"""Tests for metrics helpers."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.metrics.counters import CounterSet, delta
from repro.metrics.stats import percentile


def test_counterset_bump_and_get():
    counters = CounterSet()
    counters.bump("x")
    counters.bump("x", 4)
    assert counters["x"] == 5
    assert counters["missing"] == 0


def test_counterset_get_absent_returns_zero_not_none():
    # Regression: the docstring used to claim "None when absent", but
    # the method has always returned 0 (callers do arithmetic on it).
    counters = CounterSet()
    assert counters.get("never-bumped") == 0
    assert counters.get("never-bumped") is not None
    assert "0 when" in CounterSet.get.__doc__


def test_counterset_snapshot_delta():
    counters = CounterSet()
    counters.bump("a", 3)
    snapshot = counters.snapshot()
    counters.bump("a", 2)
    counters.bump("b")
    assert counters.delta(snapshot) == {"a": 2, "b": 1}


def test_plain_dict_delta():
    assert delta({"a": 5, "b": 1}, {"a": 3}) == {"a": 2, "b": 1}


def test_percentile_interpolates():
    assert percentile([0, 10], 0.5) == 5
    assert percentile([0, 10, 20], 0.25) == 5


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_summary_invariants(values):
    """``percentile`` keeps min <= p50 <= p90 <= p99 <= max.

    p50 stays inside the sample exactly, which the lerp form guarantees
    even for denormal values; the rest of the chain holds up to float
    rounding.
    """
    ordered = sorted(values)
    p50, p90, p99 = (percentile(ordered, fraction)
                     for fraction in (0.50, 0.90, 0.99))
    tolerance = 1e-6 * max(1.0, abs(ordered[0]), abs(ordered[-1]))
    assert ordered[0] <= p50 <= ordered[-1]
    assert p50 <= p90 + tolerance
    assert p90 <= p99 + tolerance
    assert p99 <= ordered[-1] + tolerance
