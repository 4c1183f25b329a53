"""Tests for the tracer."""

from __future__ import annotations

import pytest

from repro.obs.spans import FlightRecorder
from repro.sim.trace import NULL_TRACER, NullTracer, TraceRecord


def test_records_carry_sim_time(sim, tracer):
    sim.schedule(500, tracer.log, "radio.tx", "A", "keyed")
    sim.run_until_idle()
    assert tracer.records[0].time == 500


def test_select_by_category_prefix(sim, tracer):
    tracer.log("radio.tx", "A", "one")
    tracer.log("radio.rx", "B", "two")
    tracer.log("tcp.rexmit", "C", "three")
    assert len(tracer.select(category="radio")) == 2
    assert len(tracer.select(category="radio.tx")) == 1
    assert len(tracer.select(category="tcp")) == 1


def test_select_by_source_and_since(sim, tracer):
    tracer.log("x", "A", "early")
    sim.schedule(100, tracer.log, "x", "A", "late")
    sim.run_until_idle()
    assert len(tracer.select(source="A")) == 2
    assert len(tracer.select(source="A", since=50)) == 1
    assert tracer.select(source="B") == []


def test_count(sim, tracer):
    for _ in range(3):
        tracer.log("a.b", "S", "m")
    assert tracer.count(category="a") == 3
    assert tracer.count(source="S") == 3
    assert tracer.count(source="T") == 0


def test_subscribe_live_tap(sim, tracer):
    seen = []
    tracer.subscribe(lambda record: seen.append(record.message))
    tracer.log("x", "A", "hello", extra=1)
    assert seen == ["hello"]


def test_render_includes_details(sim, tracer):
    tracer.log("radio.tx", "N7AKR", "keyed", bytes=42)
    text = tracer.render()
    assert "radio.tx" in text and "N7AKR" in text and "bytes=42" in text


def test_null_tracer_discards(sim):
    tracer = NULL_TRACER
    tracer.log("x", "A", "m")
    assert list(tracer.records) == []
    assert tracer.select() == [] and tracer.count() == 0
    assert tracer.render() == ""


def test_null_tracer_log_is_a_true_noop(sim):
    tracer = NULL_TRACER
    assert tracer.log("x", "A", "m", extra=1) is None
    assert list(tracer.records) == [] and tracer.flight is None


def test_the_null_tracer_keeps_no_state_and_takes_no_recorder():
    assert isinstance(NULL_TRACER, NullTracer)
    with pytest.raises(AttributeError):
        NULL_TRACER.flight = object()
    with pytest.raises(AttributeError):
        FlightRecorder(NULL_TRACER)
    with pytest.raises(AttributeError):
        NULL_TRACER.subscribe(lambda record: None)
    assert NULL_TRACER.flight is None


def test_subscribers_fire_in_subscription_order(sim, tracer):
    calls = []
    tracer.subscribe(lambda record: calls.append("first"))
    tracer.subscribe(lambda record: calls.append("second"))
    tracer.log("x", "A", "m")
    assert calls == ["first", "second"]


def test_select_prefix_still_matches_with_exact_category_index(sim, tracer):
    # "radio" must keep matching "radio.tx" even though an exact
    # "radio" category also exists (the index fast path must not
    # swallow prefix semantics).
    tracer.log("radio", "A", "bare")
    tracer.log("radio.tx", "A", "keyed")
    tracer.log("radiometer", "A", "unrelated prefix-alike")
    assert len(tracer.select(category="radio")) == 3
    assert len(tracer.select(category="radio.tx")) == 1
    assert [r.message for r in tracer.select(category="radio.tx")] == ["keyed"]


def test_select_since_uses_time_order(sim, tracer):
    for delay in (10, 20, 30, 40):
        sim.schedule(delay, tracer.log, "cat.x", "A", f"t{delay}")
    sim.run_until_idle()
    assert [r.message for r in tracer.select(category="cat.x", since=25)] == \
        ["t30", "t40"]
    assert [r.message for r in tracer.select(since=35)] == ["t40"]
    assert tracer.select(category="cat.x", since=999) == []


def test_log_returns_the_record_and_line_it_always_did(sim, tracer):
    """Field values, equality and the rendered line are pinned.

    The lines were read from the frozen-dataclass record this slotted
    one replaced; the second ``radio.tx`` record joins an existing
    category index, the first starts one.
    """
    sim.schedule(1_234_567, lambda: None)
    sim.run_until_idle()
    first = tracer.log("radio.tx", "N7AKR-2", "keyed", bytes=42,
                       airtime=483_333)
    other = tracer.log("tcp.rexmit", "44.24.0.28", "rto", seq=7)
    second = tracer.log("radio.tx", "KB7DZ", "keyed")
    assert first == TraceRecord(1_234_567, "radio.tx", "N7AKR-2", "keyed",
                                {"bytes": 42, "airtime": 483_333})
    assert second == TraceRecord(1_234_567, "radio.tx", "KB7DZ", "keyed")
    assert second != TraceRecord(1_234_567, "radio.tx", "KB7DZ", "keyed",
                                 {"bytes": 0})
    assert [record.render() for record in (first, other, second)] == [
        "[1.234567s] radio.tx         N7AKR-2      keyed bytes=42 "
        "airtime=483333",
        "[1.234567s] tcp.rexmit       44.24.0.28   rto seq=7",
        "[1.234567s] radio.tx         KB7DZ        keyed",
    ]
    assert tracer.records == [first, other, second]
    assert tracer.select(category="radio.tx") == [first, second]
    assert tracer.select(category="tcp") == [other]
