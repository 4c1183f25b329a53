"""Tests for the pluggable recovery layer: congestion policies and the
policy-tournament experiment.

Policy objects are exercised both as pure units (integer arithmetic,
state transitions) and on the wire through the same two-stack pipe
harness the TCP tests use, so fast retransmit and pacing are observed
as actual segment behaviour rather than just method calls.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import TOURNAMENT_PLANS, tournament_plan
from repro.harness.experiments import run_tournament
from repro.inet.sockets import TcpSocket
from repro.inet.tcp import (
    FixedRto,
    NoCongestion,
    PacedRate,
    Reno,
    UNBOUNDED_WINDOW,
)
from repro.sim.clock import MS, SECOND
from repro.workload.scenario import Scenario
from tests.test_inet_tcp import B_IP, TcpHarness

MSS = 512


@pytest.fixture
def net(sim):
    return TcpHarness(sim)


# ----------------------------------------------------------------------
# NoCongestion: the storm baseline
# ----------------------------------------------------------------------

def test_no_congestion_never_reacts():
    policy = NoCongestion()
    policy.on_ack(MSS, MSS, 0)
    policy.on_timeout(8 * MSS, MSS)
    assert not policy.on_dup_ack(MSS)
    assert policy.window() == UNBOUNDED_WINDOW
    assert policy.send_delay(0, MSS) == 0


# ----------------------------------------------------------------------
# Reno: slow start, avoidance, fast retransmit/recovery
# ----------------------------------------------------------------------

def test_reno_slow_start_then_linear_growth():
    policy = Reno(MSS, initial_ssthresh=4 * MSS)
    assert policy.cwnd == MSS
    policy.on_ack(MSS, MSS, 0)
    policy.on_ack(MSS, MSS, 0)
    policy.on_ack(MSS, MSS, 0)
    # exponential below ssthresh: one MSS per ACK
    assert policy.cwnd == 4 * MSS
    before = policy.cwnd
    policy.on_ack(MSS, MSS, 0)
    # at/above ssthresh: additive increase, well under one MSS
    assert 0 < policy.cwnd - before <= MSS * MSS // before + 1


def test_reno_timeout_collapses_window_and_halves_ssthresh():
    policy = Reno(MSS)
    for _ in range(7):
        policy.on_ack(MSS, MSS, 0)
    flight = policy.cwnd
    policy.on_timeout(flight, MSS)
    assert policy.cwnd == MSS
    assert policy.ssthresh == max(2 * MSS, flight // 2)


def test_reno_third_dup_ack_enters_fast_recovery():
    policy = Reno(MSS)
    policy.cwnd = 8 * MSS
    assert not policy.on_dup_ack(MSS)
    assert not policy.on_dup_ack(MSS)
    assert policy.on_dup_ack(MSS)          # the third one retransmits
    assert policy.in_recovery
    assert policy.ssthresh == 4 * MSS
    # window inflation while further duplicates arrive
    inflated = policy.cwnd
    assert not policy.on_dup_ack(MSS)
    assert policy.cwnd == inflated + MSS
    # the recovering ACK deflates back to ssthresh
    policy.on_ack(MSS, MSS, 0)
    assert not policy.in_recovery
    assert policy.cwnd == policy.ssthresh


def test_reno_fast_retransmit_on_the_wire(sim, net):
    """One lost segment in a multi-segment flight is repaired by dup
    ACKs well before the (deliberately huge) retransmission timer."""
    received = []

    def on_accept(conn):
        TcpSocket(conn).on_data = received.append

    net.b.tcp.listen(7, on_accept=on_accept)
    reno = Reno(MSS)
    reno.cwnd = 8 * MSS                    # pre-grown: flight > 3 segments
    client = TcpSocket.connect(net.a, B_IP, 7,
                               rto_policy=FixedRto(rto=60 * SECOND),
                               cc_policy=reno)
    sim.run(until=1 * SECOND)

    state = {"dropped": False}

    def drop_first_data(packet):
        if len(packet) > 60 and not state["dropped"]:
            state["dropped"] = True
            return True
        return False

    net.a_if.drop_predicate = drop_first_data
    client.send(bytes(5 * MSS))
    sim.run(until=30 * SECOND)
    stats = client.connection.stats
    assert sum(len(chunk) for chunk in received) == 5 * MSS
    assert stats["fast_retransmits"] == 1
    assert stats["dup_acks_received"] >= 3
    assert stats["timeouts"] == 0          # the RTO never had to fire


# ----------------------------------------------------------------------
# PacedRate: delivery-rate estimation and the pacing gate
# ----------------------------------------------------------------------

def test_paced_rate_gate_spaces_segments():
    policy = PacedRate(MSS, initial_rate=1024)
    assert policy.send_delay(0, MSS) == 0
    policy.on_send(0, MSS)
    delay = policy.send_delay(0, MSS)
    # 512 bytes at 1024*10/8 = 1280 B/s = 400 ms of airtime
    assert delay == 400 * MS
    assert policy.send_delay(delay, MSS) == 0


def test_paced_rate_learns_delivery_rate():
    policy = PacedRate(MSS, initial_rate=1024)
    policy.on_rtt_sample(1 * SECOND)
    policy.on_ack(0, MSS, 0)               # opens the measurement epoch
    policy.on_ack(4096, MSS, 1 * SECOND)   # 4096 B in 1 s
    assert policy.pacing_rate == 4096
    # cwnd tracks twice the bandwidth-delay product
    assert policy.cwnd == max(4 * MSS, 2 * 4096)


def test_paced_rate_timeout_halves_rate_not_window_collapse():
    policy = PacedRate(MSS, initial_rate=2048)
    policy.cwnd = 16 * MSS
    policy.on_timeout(8 * MSS, MSS)
    assert policy.pacing_rate == 1024
    assert policy.cwnd == 8 * MSS          # halved, never below 4 MSS
    policy.on_quench(MSS)
    assert policy.pacing_rate == 512


def test_paced_sender_defers_segments_on_the_wire(sim, net):
    def on_accept(conn):
        TcpSocket(conn)

    net.b.tcp.listen(7, on_accept=on_accept)
    client = TcpSocket.connect(net.a, B_IP, 7,
                               cc_policy=PacedRate(MSS, initial_rate=1024))
    sim.run(until=1 * SECOND)
    client.send(bytes(4 * MSS))
    sim.run(until=30 * SECOND)
    stats = client.connection.stats
    assert stats["pacing_deferrals"] >= 1
    assert client.connection.snd_una == client.connection.snd_nxt


# ----------------------------------------------------------------------
# tournament experiment plumbing
# ----------------------------------------------------------------------

def test_scenario_rejects_unknown_policies():
    with pytest.raises(ValueError):
        Scenario(tcp_rto="bogus")
    with pytest.raises(ValueError):
        Scenario(tcp_cc="bogus")
    with pytest.raises(ValueError):
        Scenario(lapb_timer="bogus")


def test_tournament_plan_names_and_validation():
    for name in TOURNAMENT_PLANS:
        plan = tournament_plan(name, 60)
        assert len(plan) >= 1
        assert plan.last_clear_time <= 60 * SECOND
    with pytest.raises(ValueError):
        tournament_plan("hurricane", 60)


def test_run_tournament_deterministic_and_conserving():
    kwargs = dict(seed=1, rto="adaptive", cc="reno", link_timer="adaptive",
                  plan="storm", bit_rate=1200, duration_seconds=45.0)
    first = run_tournament(**kwargs)
    second = run_tournament(**kwargs)
    assert first == second
    assert first["obs_conservation_ok"] == 1.0
    assert "goodput_bytes_per_s" in first
    assert "tcp_retransmissions" in first


def test_run_tournament_policies_change_behaviour():
    fixed = run_tournament(seed=1, rto="fixed", cc="none", plan="storm",
                           duration_seconds=45.0)
    adaptive = run_tournament(seed=1, rto="adaptive", cc="reno", plan="storm",
                              duration_seconds=45.0)
    # the fixed-RTO baseline storms: strictly more retransmissions
    assert fixed["tcp_retransmissions"] > adaptive["tcp_retransmissions"]
