"""Tests for the runtime sim sanitizer (repro.sim.sanitizer).

The sanitizer is the dynamic half of the PR 5 deep static passes, so
the tests mirror that pairing: the order shuffle must catch an injected
same-timestamp ordering dependence (RACE001's bug class) and the
stale-span census must catch a deliberately uncounted drop (CONS001's
bug class) -- while a clean seeded scenario stays green under both.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.results import comparable_metrics
from repro.inet.ip import IPv4Address, IPv4Datagram
from repro.obs.spans import FlightRecorder
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.sanitizer import (
    OrderShuffleSimulator,
    SanitizerError,
    SimSanitizer,
)
from repro.sim.trace import Tracer
from repro.workload.scenario import GeneratorMix, Scenario, build_scenario


def _datagram(ident: int) -> IPv4Datagram:
    return IPv4Datagram(
        source=IPv4Address.parse("44.24.0.28"),
        destination=IPv4Address.parse("44.24.0.5"),
        protocol=17,
        identification=ident,
        ttl=15,
        payload=b"payload",
    )


# ----------------------------------------------------------------------
# the order-shuffle simulator
# ----------------------------------------------------------------------

def _tie_order(sim: Simulator) -> list:
    """Registration pattern with a cross-instant equal-fire-time tie.

    Ten timers all fire at t=1000, each registered in its *own* instant
    (a chain of setup events), so FIFO order and shuffled order may
    legitimately differ.
    """
    order: list = []

    def register(index: int) -> None:
        sim.at(1000, order.append, index)
        if index + 1 < 10:
            sim.at(sim.now + 1, register, index + 1)

    sim.at(0, register, 0)
    sim.run_until_idle()
    return order


def test_shuffle_catches_injected_cross_instant_ordering_dependence():
    # A model whose result depends on the FIFO accident: under the stock
    # simulator the tie always resolves in registration order, and some
    # salt must expose the dependence by resolving it differently.
    fifo = _tie_order(Simulator())
    assert fifo == list(range(10))
    shuffled_orders = {tuple(_tie_order(OrderShuffleSimulator(salt)))
                       for salt in range(8)}
    assert any(order != tuple(fifo) for order in shuffled_orders)


def test_shuffle_is_deterministic_per_salt():
    assert _tie_order(OrderShuffleSimulator(7)) == \
        _tie_order(OrderShuffleSimulator(7))


def test_shuffle_preserves_same_instant_fifo():
    # call_soon semantics ("runs after work already queued for this
    # instant") are engine guarantees, so same-instant registrations
    # must keep FIFO order under every salt.
    for salt in range(5):
        sim = OrderShuffleSimulator(salt)
        order: list = []
        for index in range(20):
            sim.at(1000, order.append, index)
        sim.run_until_idle()
        assert order == list(range(20))


# ----------------------------------------------------------------------
# live conservation checks
# ----------------------------------------------------------------------

def test_sanitizer_green_on_conserved_recorder():
    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim))
    sanitizer = SimSanitizer(sim, recorder, strict=True)
    datagram = _datagram(1)
    recorder.born_datagram("gw", datagram)
    recorder.deliver_key((datagram.source.value, 1), "peer")
    assert sanitizer.check_now()
    assert sanitizer.finalize_metrics()["sanitizer_conservation_failures"] == 0


def test_sanitizer_catches_contradictory_terminals():
    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim))
    datagram = _datagram(2)
    key = (datagram.source.value, 2)
    recorder.born_datagram("gw", datagram)
    recorder.deliver_key(key, "peer")
    recorder.drop_key(key, "ip.rx", "peer", "bad_header")  # contradiction
    sanitizer = SimSanitizer(sim, recorder)
    assert not sanitizer.check_now()
    assert sanitizer.conservation_failures == 1
    strict = SimSanitizer(sim, recorder, strict=True)
    with pytest.raises(SanitizerError):
        strict.check_now()


def test_periodic_checks_run_on_schedule():
    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim))
    sanitizer = SimSanitizer(sim, recorder, check_interval=SECOND)
    sanitizer.start()
    sanitizer.start()  # idempotent
    sim.run(until=5 * SECOND)
    assert sanitizer.checks == 5


# ----------------------------------------------------------------------
# the stale-span census (the deliberately uncounted drop)
# ----------------------------------------------------------------------

def test_census_catches_deliberately_uncounted_drop():
    # A layer that swallows a packet without bumping a counter or
    # emitting a terminal leaves the span in flight forever; once the
    # last sighting is older than stale_after, the census flags it.
    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim))
    recorder.born_datagram("gw", _datagram(3))
    sim.at(60 * SECOND, lambda: None)
    sim.run_until_idle()
    sanitizer = SimSanitizer(sim, recorder, stale_after=30 * SECOND)
    metrics = sanitizer.finalize_metrics()
    assert metrics["sanitizer_stale_spans"] == 1
    assert any("stale span" in line for line in sanitizer.diagnostics)

    strict = SimSanitizer(sim, recorder, stale_after=30 * SECOND,
                          strict=True)
    with pytest.raises(SanitizerError):
        strict.finalize()


def test_census_tolerates_recent_and_settled_spans():
    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim))
    settled = _datagram(4)
    recorder.born_datagram("gw", settled)
    recorder.drop_key((settled.source.value, 4), "ip.rx", "gw", "no_route")
    recorder.born_datagram("gw", _datagram(5))  # genuinely mid-air
    sim.at(10 * SECOND, lambda: None)
    sim.run_until_idle()
    sanitizer = SimSanitizer(sim, recorder, stale_after=30 * SECOND,
                             strict=True)
    assert sanitizer.finalize_metrics()["sanitizer_stale_spans"] == 0


# ----------------------------------------------------------------------
# scenario integration
# ----------------------------------------------------------------------

_SMOKE = Scenario(
    name="sanitize-smoke", topology="gateway", stations=4,
    duration_seconds=30.0, seed=0, sanitize=True,
    mix=(GeneratorMix("ping", rate_per_minute=6),
         GeneratorMix("udp", rate_per_minute=4)),
)


def test_scenario_sanitize_flag_wires_and_reports():
    run = build_scenario(_SMOKE)
    assert run.sanitizer is not None and run.recorder is not None
    metrics = run.run()
    assert metrics["sanitizer_checks"] > 0
    assert metrics["sanitizer_conservation_failures"] == 0
    assert metrics["sanitizer_stale_spans"] == 0
    assert metrics["sanitizer_order_salted"] == 0.0
    assert metrics["obs_born_total"] > 0


def test_scenario_shuffle_agreement_end_to_end():
    base = build_scenario(_SMOKE).run()
    salted = build_scenario(replace(_SMOKE, order_salt=7)).run()
    assert salted["sanitizer_order_salted"] == 1.0
    assert comparable_metrics(base) == comparable_metrics(salted)


def test_ordering_comparable_excludes_queue_bookkeeping():
    comparable = comparable_metrics(
        {"events_executed": 1.0, "sanitizer_checks": 2.0,
         "sanitizer_order_salted": 1.0, "pings_received": 3.0})
    assert comparable == {"pings_received": 3.0}
