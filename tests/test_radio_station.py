"""Tests for the CSMA radio station and modem timing."""

from __future__ import annotations

import hashlib

import pytest

from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.sim.clock import MS, SECOND
from repro.sim.rand import RandomStreams


# ----------------------------------------------------------------------
# modem profile
# ----------------------------------------------------------------------

def test_modem_airtime_1200bps():
    modem = ModemProfile(bit_rate=1200, txdelay=300 * MS, txtail=50 * MS)
    assert modem.data_airtime(150) == 1 * SECOND  # 150 bytes = 1200 bits
    assert modem.frame_airtime(150) == 1 * SECOND + 350 * MS


def test_modem_kiss_parameter_updates():
    modem = ModemProfile()
    assert modem.with_kiss_txdelay(25).txdelay == 250 * MS
    assert modem.with_kiss_txtail(3).txtail == 30 * MS


def test_modem_validation():
    with pytest.raises(ValueError):
        ModemProfile(bit_rate=0)
    with pytest.raises(ValueError):
        ModemProfile(txdelay=-1)
    with pytest.raises(ValueError):
        ModemProfile(bit_error_rate=1.0)


# ----------------------------------------------------------------------
# CSMA parameters
# ----------------------------------------------------------------------

def test_csma_from_kiss_bytes():
    params = CsmaParameters.from_kiss(63, 10)
    assert params.persistence == 64 / 256
    assert params.slot_time == 100 * MS


def test_csma_validation():
    with pytest.raises(ValueError):
        CsmaParameters(persistence=0.0)
    with pytest.raises(ValueError):
        CsmaParameters(slot_time=-1)
    with pytest.raises(ValueError):
        CsmaParameters.from_kiss(256, 1)


# ----------------------------------------------------------------------
# station behaviour
# ----------------------------------------------------------------------

def make_pair(sim, streams, **kwargs):
    channel = RadioChannel(sim, streams)
    received = []
    a = RadioStation(sim, channel, "A", **kwargs)
    b = RadioStation(sim, channel, "B", on_frame=received.append)
    return channel, a, b, received


def test_frame_delivered_after_csma_and_airtime(sim, streams):
    _ch, a, _b, received = make_pair(
        sim, streams, csma=CsmaParameters(persistence=1.0),
        modem=ModemProfile(bit_rate=1200),
    )
    a.send_frame(b"x" * 30)
    sim.run_until_idle()
    assert received == [b"x" * 30]
    # p=1 means immediate key-up: exactly the frame airtime.
    assert sim.now == a.modem.frame_airtime(30)


def test_station_defers_while_channel_busy(sim, streams):
    channel = RadioChannel(sim, streams)
    received = []
    a = RadioStation(sim, channel, "A", csma=CsmaParameters(persistence=1.0))
    RadioStation(sim, channel, "B", on_frame=received.append)
    blocker = channel.attach("X", lambda p: None)
    blocker.transmit(b"noise", airtime=2 * SECOND)
    # Offer the frame after the carrier is detectable (DCD settled).
    sim.schedule(channel.carrier_detect_delay + 1, a.send_frame, b"polite")
    sim.run_until_idle()
    assert received == [b"noise", b"polite"]  # waited, then sent cleanly
    assert channel.total_collisions == 0
    assert sim.now >= 2 * SECOND


def test_queue_limit_drops(sim, streams):
    _ch, a, _b, _received = make_pair(sim, streams, queue_limit=2)
    assert a.send_frame(b"1")
    # Station may have started on frame 1 already; fill the queue.
    a.send_frame(b"2")
    a.send_frame(b"3")
    results = [a.send_frame(b"overflow") for _ in range(3)]
    assert not all(results)
    assert a.queue_drops >= 1


def test_fifo_ordering(sim, streams):
    _ch, a, _b, received = make_pair(sim, streams)
    for index in range(5):
        a.send_frame(bytes([index]))
    sim.run_until_idle()
    assert received == [bytes([i]) for i in range(5)]


def test_full_duplex_ignores_carrier(sim, streams):
    channel = RadioChannel(sim, streams)
    a = RadioStation(sim, channel, "A",
                     csma=CsmaParameters(persistence=1.0, full_duplex=True))
    channel.attach("B", lambda p: None)
    blocker = channel.attach("X", lambda p: None)
    blocker.transmit(b"noise", airtime=10 * SECOND)
    a.send_frame(b"now")
    sim.run_until_idle()
    # A keyed immediately despite the busy channel: collision happened.
    assert channel.total_collisions >= 1
    assert sim.now <= 11 * SECOND


def test_two_contending_stations_both_eventually_deliver(sim, streams):
    channel = RadioChannel(sim, streams)
    got_a, got_b = [], []
    a = RadioStation(sim, channel, "A", on_frame=got_a.append,
                     csma=CsmaParameters(persistence=0.4))
    b = RadioStation(sim, channel, "B", on_frame=got_b.append,
                     csma=CsmaParameters(persistence=0.4))
    for index in range(5):
        a.send_frame(b"from-a-%d" % index)
        b.send_frame(b"from-b-%d" % index)
    sim.run_until_idle(max_events=500_000)
    assert len(got_b) == 5   # everything from A arrived at B
    assert len(got_a) == 5


def test_deterministic_with_same_seed():
    def run(seed):
        from repro.sim.engine import Simulator
        sim = Simulator()
        streams = RandomStreams(seed=seed)
        channel = RadioChannel(sim, streams)
        got = []
        a = RadioStation(sim, channel, "A", csma=CsmaParameters(persistence=0.3))
        RadioStation(sim, channel, "B",
                     on_frame=lambda p: got.append(sim.now))
        for _ in range(3):
            a.send_frame(b"frame")
        sim.run_until_idle()
        return got

    assert run(5) == run(5)
    assert run(5) != run(6)


# ----------------------------------------------------------------------
# CSMA exactness: every poll at the same time, key and label
# ----------------------------------------------------------------------

class _Dispatched:
    """Profiler hook that keeps each dispatched event's key and label."""

    def __init__(self):
        self.events = []

    def count(self, event):
        self.events.append((event.time, event.seq, event.label))


def _draws(streams, name):
    """How many numbers ``streams``' stream ``name`` has handed out."""
    fresh = RandomStreams(seed=streams.seed).stream(name)
    target = streams.stream(name).getstate()
    drawn = 0
    while fresh.getstate() != target:
        fresh.random()
        drawn += 1
    return drawn


def _csma_run(case):
    """One small contended channel; returns its dispatch log and draws.

    Four stations offer three frames each at staggered times (two
    stations in ``own_keyed``), so stations poll a busy channel, lose
    and win p-persistence rolls, and queue frames behind their own
    transmissions.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    streams = RandomStreams(seed=2024)
    unit, modem = MS, ModemProfile()
    csma = CsmaParameters(persistence=0.3, slot_time=40 * MS,
                          full_duplex=case == "full_duplex")
    if case == "slot_time_0":
        # A busy station re-polls every microsecond: keep frames short.
        unit, modem = 1, ModemProfile(bit_rate=1_000_000, txdelay=100,
                                      txtail=0)
        csma = CsmaParameters(persistence=0.3, slot_time=0)
    channel = RadioChannel(sim, streams, carrier_detect_delay=20 * unit)
    names = ("A", "B", "C", "D")
    got = {name: [] for name in names}
    stations = {name: RadioStation(sim, channel, name, modem=modem,
                                   csma=csma, on_frame=got[name].append)
                for name in names}
    if case == "hidden":
        # A and C hear only B; D hears only C.
        channel.add_link("A", "B")
        channel.add_link("B", "C")
        channel.add_link("C", "D")
    elif case == "partition":
        # C is deaf to A and B to D, but not the other way round.
        channel.blocked_pairs.update({("C", "A"), ("B", "D")})
    elif case == "partition_mid_run":
        # The same partition opens while the first frames contend, a
        # third pair joins it, and it heals while the last ones do.
        blocked = channel.blocked_pairs
        sim.schedule(150 * unit, blocked.update, {("C", "A"), ("B", "D")})
        sim.schedule(700 * unit, blocked.add, ("A", "C"))
        sim.schedule(1100 * unit, blocked.difference_update,
                     {("C", "A"), ("A", "C")})
        sim.schedule(1500 * unit, blocked.clear)
    profiler = _Dispatched()
    sim.profiler = profiler
    if case == "own_keyed":
        # A's later frames arrive while A's own transmitter is keyed
        # and its queue is empty; B's arrives under A's carrier.
        a = stations["A"]
        airtime = a.modem.frame_airtime(40)
        a.send_frame(b"a" * 40)
        sim.schedule(airtime // 2, a.send_frame, b"b" * 40)
        sim.schedule(airtime // 3, stations["B"].send_frame, b"c" * 20)
        sim.schedule(airtime + airtime // 2, a.send_frame, b"d" * 10)
    else:
        for index, name in enumerate(names):
            for frame in range(3):
                sim.schedule((index * 70 + frame * 450) * unit,
                             stations[name].send_frame,
                             bytes([65 + index]) * (20 + 10 * frame))
    sim.run_until_idle(max_events=100_000)
    events = profiler.events
    digest = hashlib.sha256(repr(events).encode()).hexdigest()[:16]
    draws = {name: _draws(streams, f"csma/{name}") for name in names}
    delivered = {name: len(frames) for name, frames in got.items()}
    return len(events), digest, draws, delivered


#: ``_csma_run(case)`` for each case, read before the poll was made one
#: call, so they hold the poll to what it did then.
CSMA_PINS = {
    "connected": (230, "e932753e3ff6e4b5", {"A": 5, "B": 12, "C": 3, "D": 6},
                  {"A": 7, "B": 5, "C": 6, "D": 6}),
    "hidden": (136, "e8a57b5a2aee1752", {"A": 5, "B": 12, "C": 3, "D": 6},
               {"A": 3, "B": 0, "C": 0, "D": 3}),
    "partition": (222, "4a1f1256580da98e", {"A": 5, "B": 12, "C": 3, "D": 6},
                  {"A": 2, "B": 4, "C": 1, "D": 3}),
    "full_duplex": (58, "88bcbceeacce8f52",
                    {"A": 5, "B": 12, "C": 3, "D": 6},
                    {"A": 0, "B": 0, "C": 0, "D": 0}),
    "slot_time_0": (1535, "57ed329a5f0be661",
                    {"A": 5, "B": 12, "C": 3, "D": 6},
                    {"A": 0, "B": 1, "C": 1, "D": 1}),
    "own_keyed": (59, "04ac7d7b5096da1b", {"A": 5, "B": 7, "C": 0, "D": 0},
                  {"A": 1, "B": 3, "C": 4, "D": 4}),
    # Read before full-mesh hearing became an identity test: the loops
    # must see each edit of ``blocked_pairs`` from the next event on.
    "partition_mid_run": (212, "c6987a29037ba5ef",
                          {"A": 5, "B": 12, "C": 3, "D": 6},
                          {"A": 5, "B": 3, "C": 6, "D": 4}),
}


@pytest.mark.parametrize("case", sorted(CSMA_PINS))
def test_csma_polls_keep_their_time_key_label_and_draws(case):
    """Every dispatched event of a contended channel is pinned.

    A poll that reads carrier, rolls p-persistence or reschedules
    differently moves an event's time, tie-break key or label, or a
    station's ``csma/NAME`` draw count.
    """
    assert _csma_run(case) == CSMA_PINS[case]
