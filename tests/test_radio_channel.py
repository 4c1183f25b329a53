"""Tests for the shared radio channel: delivery, collisions, propagation."""

from __future__ import annotations

from repro.radio.channel import RadioChannel
from repro.sim.clock import MS, SECOND

import pytest


@pytest.fixture
def channel(sim, streams):
    return RadioChannel(sim, streams)


def _attach(channel, name):
    received = []
    port = channel.attach(name, received.append)
    return port, received


def test_clean_transmission_delivered_to_all_hearers(sim, channel):
    a, _ = _attach(channel, "A")
    _b, b_got = _attach(channel, "B")
    _c, c_got = _attach(channel, "C")
    a.transmit(b"frame", airtime=100 * MS)
    sim.run_until_idle()
    assert b_got == [b"frame"]
    assert c_got == [b"frame"]


def test_sender_does_not_hear_itself(sim, channel):
    received = []
    a = channel.attach("A", received.append)
    a.transmit(b"self", airtime=10 * MS)
    sim.run_until_idle()
    assert received == []


def test_delivery_happens_at_end_of_airtime(sim, channel):
    a, _ = _attach(channel, "A")
    times = []
    channel.attach("B", lambda _p: times.append(sim.now))
    a.transmit(b"x", airtime=250 * MS)
    sim.run_until_idle()
    assert times == [250 * MS]


def test_overlapping_transmissions_collide_everywhere(sim, channel):
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    _c, c_got = _attach(channel, "C")
    a.transmit(b"one", airtime=100 * MS)
    sim.schedule(50 * MS, b.transmit, b"two", 100 * MS)
    sim.run_until_idle()
    assert c_got == []
    assert channel.total_collisions >= 1
    assert channel.ports["C"].frames_corrupted == 2


def test_non_overlapping_transmissions_both_arrive(sim, channel):
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    _c, c_got = _attach(channel, "C")
    a.transmit(b"one", airtime=100 * MS)
    sim.schedule(150 * MS, b.transmit, b"two", 100 * MS)
    sim.run_until_idle()
    assert c_got == [b"one", b"two"]
    assert channel.total_collisions == 0


def test_half_duplex_transmitter_misses_concurrent_frame(sim, channel):
    a, a_got = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    a.transmit(b"mine", airtime=200 * MS)
    sim.schedule(50 * MS, b.transmit, b"theirs", 50 * MS)
    sim.run_until_idle()
    assert a_got == []  # A was keyed while B's frame was on the air


@pytest.mark.parametrize("key_up, heard", [(999, False), (1000, True)])
def test_half_duplex_miss_uses_the_half_open_frame_interval(sim, channel,
                                                            key_up, heard):
    """A frame occupies [start, end): a port that keys up at ``end``
    overlapped none of it and still receives it, and one that keys up
    a microsecond earlier misses it.  B's key-up is registered first,
    so at t=1000 it fires before A's frame completes."""
    a, a_got = _attach(channel, "A")
    b, b_got = _attach(channel, "B")
    sim.at(key_up, b.transmit, b"reply", 500)
    a.transmit(b"frame", airtime=1000)
    sim.run_until_idle()
    assert b_got == ([b"frame"] if heard else [])
    assert a_got == ([b"reply"] if heard else [])


def test_carrier_sense(sim, channel):
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    a.transmit(b"x", airtime=100 * MS)
    sensed = []
    sim.schedule(50 * MS, lambda: sensed.append(b.carrier_sensed()))
    sim.schedule(150 * MS, lambda: sensed.append(b.carrier_sensed()))
    sim.run_until_idle()
    assert sensed == [True, False]


def test_own_transmission_senses_busy(sim, channel):
    a, _ = _attach(channel, "A")
    a.transmit(b"x", airtime=100 * MS)
    assert a.carrier_sensed()


def test_hidden_terminal_topology(sim, channel):
    """A and C cannot hear each other; both hear B (the classic setup)."""
    a, a_got = _attach(channel, "A")
    _b, b_got = _attach(channel, "B")
    c, c_got = _attach(channel, "C")
    channel.add_link("A", "B")
    channel.add_link("B", "C")
    # A transmits; C does not hear it at all.
    a.transmit(b"from-a", airtime=100 * MS)
    sim.run_until_idle()
    assert b_got == [b"from-a"]
    assert c_got == []
    # Hidden collision: A and C transmit together; B loses both.
    b_got.clear()
    a.transmit(b"one", airtime=100 * MS)
    c.transmit(b"two", airtime=100 * MS)
    sim.run_until_idle()
    assert b_got == []
    assert not a.carrier_sensed() or True  # sense is instantaneous only


def test_explicit_links_carrier_sense_respects_hearing(sim, channel):
    a, _ = _attach(channel, "A")
    c, _ = _attach(channel, "C")
    channel.use_explicit_links()
    # no links: C cannot sense A's carrier
    a.transmit(b"x", airtime=100 * MS)
    sensed = []
    sim.schedule(50 * MS, lambda: sensed.append(c.carrier_sensed()))
    sim.run_until_idle()
    assert sensed == [False]


def test_duplicate_attach_rejected(sim, channel):
    channel.attach("A", lambda p: None)
    with pytest.raises(ValueError):
        channel.attach("A", lambda p: None)


def test_utilisation_accounting(sim, channel):
    a, _ = _attach(channel, "A")
    _b, _got = _attach(channel, "B")
    a.transmit(b"x", airtime=250 * MS)
    sim.run(until=1 * SECOND)
    assert channel.busy_time() == 250 * MS
    assert abs(channel.utilisation() - 0.25) < 1e-9


def test_utilisation_with_overlap_counts_wall_time_once(sim, channel):
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    a.transmit(b"x", airtime=200 * MS)
    sim.schedule(100 * MS, b.transmit, b"y", 200 * MS)
    sim.run(until=1 * SECOND)
    assert channel.busy_time() == 300 * MS


def test_ber_corruption_drops_frames(sim, streams):
    channel = RadioChannel(sim, streams)
    a, _ = _attach(channel, "A")
    received = []
    port_b = channel.attach("B", received.append)
    port_b.bit_error_rate = 0.5  # essentially guaranteed frame loss
    for _ in range(5):
        a.transmit(b"data-" + bytes(20), airtime=10 * MS)
        sim.run_until_idle()
    assert received == []
    assert port_b.frames_corrupted == 5


def test_capture_effect_strong_first_signal_survives(sim, streams):
    channel = RadioChannel(sim, streams, carrier_detect_delay=0)
    channel.capture_ratio = 4.0
    strong, _ = _attach(channel, "STRONG")
    weak, _ = _attach(channel, "WEAK")
    _rx, got = _attach(channel, "RX")
    strong.signal_strength = 10.0
    weak.signal_strength = 1.0
    strong.transmit(b"strong frame", airtime=100 * MS)
    sim.schedule(10 * MS, weak.transmit, b"weak frame", 50 * MS)
    sim.run_until_idle()
    assert got == [b"strong frame"]   # captured; the weak frame died


def test_capture_effect_weak_latecomer_does_not_capture(sim, streams):
    channel = RadioChannel(sim, streams, carrier_detect_delay=0)
    channel.capture_ratio = 4.0
    strong, _ = _attach(channel, "STRONG")
    weak, _ = _attach(channel, "WEAK")
    _rx, got = _attach(channel, "RX")
    strong.signal_strength = 10.0
    weak.signal_strength = 1.0
    # the weak station transmits FIRST; the strong one tramples it --
    # the receiver was locked to the weak signal, both frames die
    weak.transmit(b"weak frame", airtime=100 * MS)
    sim.schedule(10 * MS, strong.transmit, b"strong frame", 50 * MS)
    sim.run_until_idle()
    assert got == []


def test_capture_disabled_by_default(sim, streams):
    channel = RadioChannel(sim, streams)
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    _rx, got = _attach(channel, "RX")
    a.signal_strength = 100.0
    a.transmit(b"x", airtime=100 * MS)
    sim.schedule(10 * MS, b.transmit, b"y", 50 * MS)
    sim.run_until_idle()
    assert got == []   # no capture: both destroyed


def test_capture_near_equal_signals_both_die(sim, streams):
    channel = RadioChannel(sim, streams, carrier_detect_delay=0)
    channel.capture_ratio = 4.0
    a, _ = _attach(channel, "A")
    b, _ = _attach(channel, "B")
    _rx, got = _attach(channel, "RX")
    a.signal_strength = 1.0
    b.signal_strength = 2.0   # stronger, but under the 4x ratio
    a.transmit(b"x", airtime=100 * MS)
    sim.schedule(10 * MS, b.transmit, b"y", 50 * MS)
    sim.run_until_idle()
    assert got == []
