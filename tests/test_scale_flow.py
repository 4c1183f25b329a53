"""Flow-level background stations (repro.scale.flow).

The cloud must load the channel like a population -- occupying
airtime, colliding with overlapping real frames, deferring to sensed
carrier -- without ever delivering a frame of its own, and all of it
as a pure function of (parameters, seed).
"""

from __future__ import annotations

import pytest

from repro.radio.channel import RadioChannel
from repro.scale.flow import FlowStationCloud
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams


def _build(seed=0, **kwargs):
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    channel = RadioChannel(sim, streams)
    kwargs.setdefault("stations", 200)
    kwargs.setdefault("rate_per_minute", 1.0)
    cloud = FlowStationCloud(sim, channel, streams, **kwargs)
    return sim, channel, cloud


def test_cloud_occupies_channel_but_delivers_nothing():
    sim, channel, cloud = _build(seed=3)
    heard = []
    channel.attach("LISTEN", heard.append)
    cloud.start()
    sim.run(until=120 * SECOND)
    metrics = cloud.metrics()
    assert metrics["flow_served"] > 0
    assert metrics["flow_airtime_us"] > 0
    assert channel.busy_time() > 0
    # Carrier-only bursts are never delivered as frames to anyone.
    assert heard == []
    assert channel.total_transmissions >= metrics["flow_served"] > 0


def test_cloud_is_deterministic_per_seed():
    def run(seed):
        sim, _channel, cloud = _build(seed=seed)
        cloud.start()
        sim.run(until=300 * SECOND)
        return cloud.metrics()

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_cloud_burst_corrupts_overlapping_real_frame():
    """A real frame transmitted inside a flow burst is lost at hearers."""
    sim = Simulator()
    streams = RandomStreams(seed=1)
    channel = RadioChannel(sim, streams)
    heard = []
    channel.attach("RX", heard.append)
    talker = channel.attach("TX", lambda payload: None)
    cloud = FlowStationCloud(sim, channel, streams, stations=50)

    # Key a long carrier-only burst, then transmit a real frame inside it.
    sim.at(1 * SECOND, channel.occupy, cloud.port, 5 * SECOND)
    sim.at(2 * SECOND, channel.begin_transmission, talker, b"hello", SECOND)
    sim.run(until=20 * SECOND)
    assert heard == []           # collided with the background energy
    assert channel.total_collisions > 0

    # The same frame in the clear arrives fine.
    sim.at(sim.now + SECOND, channel.begin_transmission,
           talker, b"hello", SECOND)
    sim.run(until=sim.now + 10 * SECOND)
    assert heard == [b"hello"]


def test_cloud_defers_to_sensed_carrier():
    sim = Simulator()
    streams = RandomStreams(seed=2)
    channel = RadioChannel(sim, streams)
    other = channel.attach("OTHER", lambda payload: None)
    cloud = FlowStationCloud(sim, channel, streams, stations=400,
                             rate_per_minute=2.0)
    # Hold the channel busy for a long stretch covering several epochs.
    sim.at(0, channel.occupy, other, 30 * SECOND)
    cloud.start()
    sim.run(until=25 * SECOND)
    assert cloud.metrics()["flow_deferred"] > 0


def test_cloud_backlog_is_bounded_with_drops():
    sim, channel, cloud = _build(
        seed=4, stations=2000, rate_per_minute=30.0, max_backlog=40)
    cloud.start()
    sim.run(until=600 * SECOND)
    metrics = cloud.metrics()
    assert metrics["flow_dropped"] > 0
    assert metrics["flow_backlog"] <= 40
    # Conservation: offered = served + dropped + still queued.
    assert metrics["flow_offered"] == (metrics["flow_served"]
                                       + metrics["flow_dropped"]
                                       + metrics["flow_backlog"])


def test_cloud_duty_cycle_cap_bounds_airtime():
    sim, channel, cloud = _build(
        seed=5, stations=5000, rate_per_minute=60.0, duty_cap=0.2,
        duration=100 * SECOND)
    cloud.start()
    sim.run(until=100 * SECOND)
    airtime = cloud.metrics()["flow_airtime_us"]
    # Per-epoch service is capped, so total airtime stays near the cap
    # (one extra burst can straddle the end of the window).
    assert airtime <= 0.25 * 100 * SECOND


def test_cloud_respects_duration_then_drains():
    sim, channel, cloud = _build(
        seed=6, stations=500, rate_per_minute=4.0,
        duration=60 * SECOND)
    cloud.start()
    sim.run_until_idle()
    metrics = cloud.metrics()
    assert metrics["flow_backlog"] == 0          # drained after deadline
    assert metrics["flow_offered"] > 0


def test_cloud_validates_arguments():
    sim = Simulator()
    streams = RandomStreams(seed=0)
    channel = RadioChannel(sim, streams)
    with pytest.raises(ValueError):
        FlowStationCloud(sim, channel, streams, stations=0)
    with pytest.raises(ValueError):
        FlowStationCloud(sim, channel, streams, duty_cap=1.5)
    with pytest.raises(ValueError):
        FlowStationCloud(sim, channel, streams, rate_per_minute=-1.0)


def test_large_poisson_mean_terminates():
    """Chunked Knuth sampling must survive means far beyond exp range."""
    sim, channel, cloud = _build(seed=9, stations=100_000,
                                 rate_per_minute=60.0, max_backlog=100)
    draw = cloud._poisson(cloud.mean_per_epoch)
    assert draw > 0
    # Sanity: the mean is huge and the draw lands in its vicinity.
    assert 0.5 * cloud.mean_per_epoch < draw < 2.0 * cloud.mean_per_epoch
