"""Tests for the packet flight recorder (repro.obs)."""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ping import Pinger
from repro.ax25.address import AX25Address, AX25Path
from repro.ax25.defs import PID_ARPA_IP, PID_NO_L3, FrameType
from repro.ax25.frames import AX25Frame, FrameError, _decode_frame
from repro.core.topology import build_figure1_testbed, build_gateway_testbed
from repro.inet.ip import IPv4Address, IPv4Datagram
from repro.inet.sockets import UdpSocket
from repro.obs.instruments import Gauge, Histogram, Instruments, Rate
from repro.obs.pcap import LINKTYPE_AX25_KISS, PcapWriter, read_pcap
from repro.obs.report import render_report
from repro.obs.spans import FlightRecorder, ip_flow_key, probe_ax25
from repro.sim.clock import SECOND
from repro.tools.axdump import ChannelMonitor

GOLDEN_PCAP = Path(__file__).parent / "data" / "golden_monitor.pcap"


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------

def test_histogram_is_integer_only_and_order_independent():
    values = [0, 1, 2, 3, 1000, 70, 5, 1_000_000]
    a, b = Histogram("x"), Histogram("x")
    for value in values:
        a.record(value)
    for value in reversed(values):
        b.record(value)
    assert a.metrics() == b.metrics()
    metrics = a.metrics()
    assert metrics["x_count"] == len(values)
    assert metrics["x_sum"] == sum(values)
    assert all(isinstance(v, int) for v in metrics.values())


def test_histogram_percentiles_are_bucket_upper_bounds():
    hist = Histogram("lat")
    for _ in range(99):
        hist.record(100)           # bucket 7 -> upper bound 127
    hist.record(1_000_000)
    assert hist.percentile(50) == 127
    assert hist.percentile(95) == 127
    assert hist.percentile(100) == (1 << 20) - 1


def test_gauge_and_rate_metrics():
    gauge = Gauge("depth")
    for value in (3, 1, 4):
        gauge.sample(value)
    metrics = gauge.metrics()
    assert metrics["depth_samples"] == 3
    assert metrics["depth_min"] == 1
    assert metrics["depth_max"] == 4
    assert metrics["depth_last"] == 4

    rate = Rate("born", window_us=10 * SECOND)
    for now in (0, SECOND, 11 * SECOND):
        rate.tick(now)
    metrics = rate.metrics()
    assert metrics["born_total"] == 3
    assert metrics["born_windows"] == 2
    assert metrics["born_max_per_window"] == 2


def test_instruments_registry_is_typed_and_sorted():
    instruments = Instruments()
    instruments.histogram("zz").record(1)
    instruments.gauge("aa").sample(2)
    keys = list(instruments.metrics())
    # Instruments emit in name order, so the key sequence is stable.
    assert max(i for i, k in enumerate(keys) if k.startswith("aa_")) < \
        min(i for i, k in enumerate(keys) if k.startswith("zz_"))
    try:
        instruments.gauge("zz")
    except TypeError:
        pass
    else:  # pragma: no cover - defends the registry contract
        raise AssertionError("expected TypeError on kind mismatch")


# ----------------------------------------------------------------------
# span correlation primitives
# ----------------------------------------------------------------------

def _ip_bytes(source: str, ident: int) -> bytes:
    return IPv4Datagram(
        source=IPv4Address.parse(source),
        destination=IPv4Address.parse("44.24.0.5"),
        protocol=17,
        identification=ident,
        ttl=15,
        payload=b"payload",
    ).encode()


def test_ip_flow_key_matches_header_fields():
    packet = _ip_bytes("44.24.0.28", ident=777)
    assert ip_flow_key(packet) == (IPv4Address.parse("44.24.0.28").value, 777)
    assert ip_flow_key(b"\x00" * 20) is None      # version nibble != 4
    assert ip_flow_key(packet[:10]) is None       # truncated


def test_probe_ax25_reads_destination_and_flow_key():
    packet = _ip_bytes("44.24.0.28", ident=42)
    frame = AX25Frame(
        destination=AX25Address("KB7DZ", ssid=2),
        source=AX25Address("N7AKR"),
        path=AX25Path(),
        frame_type=FrameType.UI,
        pid=PID_ARPA_IP,
        info=packet,
    )
    probe = probe_ax25(frame.encode())
    assert probe is not None
    dest, key = probe
    assert dest == "KB7DZ-2"
    assert key == ip_flow_key(packet)

    text_frame = AX25Frame(
        destination=AX25Address("KB7DZ"),
        source=AX25Address("N7AKR"),
        path=AX25Path(),
        frame_type=FrameType.UI,
        pid=PID_NO_L3,
        info=b"hello",
    )
    assert probe_ax25(text_frame.encode()) is None
    assert probe_ax25(b"\x01\x02") is None


def _probe_ax25_uncached(frame: bytes):
    """``probe_ax25``'s answer read through the uncached AX.25 decoder."""
    try:
        decoded = _decode_frame.__wrapped__(frame)
    except FrameError:
        return None
    if decoded.pid != PID_ARPA_IP:
        return None
    key = ip_flow_key(decoded.info)
    return None if key is None else (str(decoded.destination), key)


def test_probe_ax25_rejects_what_the_decoder_rejects():
    """A frame the AX.25 decoder refuses, which no driver accepts either,
    probes to None, even where its header bytes spell a destination."""
    packet = _ip_bytes("44.24.0.28", ident=42)
    good = AX25Frame.ui(AX25Address("KB7DZ"), AX25Address("N7AKR"),
                        PID_ARPA_IP, packet).encode()
    assert probe_ax25(good) == ("KB7DZ", ip_flow_key(packet))
    extension_in_callsign = bytes([good[0] | 0x01]) + good[1:]
    space_led_callsign = bytes([ord(" ") << 1]) + good[1:]
    empty_callsign = bytes(ord(" ") << 1 for _ in range(6)) + good[6:]
    for frame in (extension_in_callsign, space_led_callsign, empty_callsign):
        with pytest.raises(FrameError):
            AX25Frame.decode(frame)
        assert probe_ax25(frame) is None


_CALLSIGN_BYTES = st.lists(st.sampled_from(b"ABKNWZ0179 "),
                           min_size=6, max_size=6)
_I_CONTROL = st.integers(0, 0x7F).map(lambda n: n << 1)
_UI_CONTROL = st.sampled_from([0x03, 0x13])
_S_CONTROL = st.tuples(st.sampled_from([0x01, 0x05, 0x09, 0x0D]),
                       st.integers(0, 7)).map(lambda s: s[0] | s[1] << 5)
_U_CONTROL = st.sampled_from([0x2F, 0x3F, 0x43, 0x63, 0x87])


@st.composite
def _ax25ish_frames(draw):
    """Destination, source and 0-8 digipeaters (sometimes with no
    terminating extension bit), an I, UI, S or U control byte, a PID,
    and an IPv4 or arbitrary body; sometimes truncated anywhere."""
    blocks = 2 + draw(st.integers(0, 8))
    terminated = draw(st.sampled_from([True] * 9 + [False]))
    frame = bytearray()
    for index in range(blocks):
        frame += bytes(byte << 1 for byte in draw(_CALLSIGN_BYTES))
        ssid = (draw(st.integers(0, 0x7F)) << 1) & 0xFE
        if terminated and index == blocks - 1:
            ssid |= 0x01
        frame.append(ssid)
    frame.append(draw(st.one_of(_I_CONTROL, _UI_CONTROL, _S_CONTROL,
                                _U_CONTROL, st.integers(0, 0xFF))))
    frame.append(draw(st.sampled_from(
        [PID_ARPA_IP, PID_ARPA_IP, PID_NO_L3, 0x08])))
    if draw(st.sampled_from([True, True, True, False])):
        frame += _ip_bytes("44.24.0.28", ident=draw(st.integers(0, 0xFFFF)))
    else:
        frame += draw(st.binary(max_size=30))
    if draw(st.sampled_from([False, False, False, True])):
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame)


@settings(max_examples=300, deadline=None)
@given(_ax25ish_frames())
def test_memoised_probe_ax25_matches_the_uncached_parse(frame):
    expected = _probe_ax25_uncached(frame)
    assert probe_ax25(frame) == expected
    hits = probe_ax25.cache_info().hits
    assert probe_ax25(bytes(bytearray(frame))) == expected
    assert probe_ax25.cache_info().hits == hits + 1


# ----------------------------------------------------------------------
# end-to-end spans
# ----------------------------------------------------------------------

def test_gateway_ping_spans_conserve_and_cover_every_hop():
    testbed = build_gateway_testbed(seed=3)
    recorder = FlightRecorder(testbed.tracer)
    pinger = Pinger(testbed.ether_host)
    pinger.send(testbed.PC_IP, count=2, interval=20 * SECOND)
    testbed.sim.run(until=120 * SECOND)
    recorder.finalize()

    assert pinger.received == 2
    assert recorder.born_total >= 4          # 2 requests + 2 replies
    assert recorder.delivered >= 4
    assert recorder.conservation_ok()

    # The first request's span crosses every layer on the nominal path.
    span = recorder.span(1)
    assert span is not None and span.state == "delivered"
    stages = [event.stage for event in span.events]
    for stage in ("born", "ip.forward", "driver.tx", "tnc.tx", "radio.tx",
                  "radio.rx", "tnc.up", "driver.rx", "ipintrq", "ip.rx",
                  "ip.deliver"):
        assert stage in stages, f"missing stage {stage}: {stages}"
    assert "delivered" in recorder.why_dropped(1)

    # Per-hop histograms actually saw those transitions.
    metrics = recorder.instruments.metrics()
    assert metrics["hop_radio_tx_to_radio_rx_count"] >= 4
    assert metrics["hop_tnc_up_to_driver_rx_count"] >= 4
    assert metrics["rtt_us_count"] == 2

    report = render_report(recorder)
    assert "conservation: ok" in report
    assert "per-hop latency" in report


def test_why_dropped_names_the_shed_choke_point():
    testbed = build_gateway_testbed(seed=5, serial_baud=1200)
    recorder = FlightRecorder(testbed.tracer)
    # Make the gateway's serial line an immediate choke point: any
    # backlog sheds bulk (non-ICMP) forwards.
    testbed.gateway.radio.interface.shed_threshold_bytes = 64
    socket = UdpSocket(testbed.ether_host)
    for _ in range(8):
        socket.sendto(bytes(200), testbed.PC_IP, 9)
    testbed.sim.run(until=90 * SECOND)
    recorder.finalize()

    assert recorder.shed > 0
    assert recorder.conservation_ok()
    shed_ids = [span.pkt_id for span in map(recorder.span,
                                            range(1, recorder.born_total + 1))
                if span is not None and span.state == "shed"]
    assert shed_ids
    why = recorder.why_dropped(shed_ids[0])
    assert "shed" in why and "serial_backlog" in why
    timeline = recorder.timeline(shed_ids[0])
    assert any("serial_backlog" in line for line in timeline)


def test_obs_experiment_digest_identical_across_process_layouts():
    from repro.harness import SweepSpec
    from repro.harness.gate import Gate

    grid = ({"variant": "e3", "duration_seconds": 60.0, "stations": 4},)
    gate = Gate("obs")
    results, document = gate.sweep(SweepSpec(bench="obs", seeds=(1,),
                                              grid=grid))
    for result in results.values():
        for record in result.records:
            assert record.metrics["obs_conservation_ok"] == 1.0
            assert record.metrics["obs_born_total"] > 0
    assert gate.failures == [] and document["digests"]["identical"]


@pytest.mark.parametrize("variant", ["e3", "chaos"])
def test_recorder_does_not_perturb_the_run(variant):
    """Recorder on vs off on the obs experiment's scenarios.

    ``observe=True`` may only add ``obs_*`` metrics, and every shared
    metric must survive the comparable projection: the recorder's
    time-series snapshot events show up in ``events_executed`` alone.
    """
    from dataclasses import replace

    from repro.faults import chaos_plan
    from repro.harness.experiments import OBS_MIX
    from repro.harness.results import comparable_metrics
    from repro.workload.scenario import Scenario, run_scenario

    scenario = Scenario(name=f"obs-{variant}", topology="gateway",
                        stations=8, duration_seconds=150.0, mix=OBS_MIX,
                        seed=1)
    if variant == "chaos":
        scenario = replace(
            scenario, watchdog=True, shed_threshold_bytes=2048,
            fault_plan=chaos_plan(150, gateway="gateway", stations=["WL0"]))
    off = run_scenario(scenario)
    on = run_scenario(replace(scenario, observe=True))
    added = set(on) - set(off)
    assert added and all(key.startswith("obs_") for key in added)
    assert set(off) <= set(on)
    assert comparable_metrics({key: on[key] for key in off}) \
        == comparable_metrics(off)
    assert on["events_executed"] > off["events_executed"]


# ----------------------------------------------------------------------
# pcap export
# ----------------------------------------------------------------------

def test_pcap_roundtrip_preserves_times_and_frames():
    writer = PcapWriter()
    writer.add_frame(1_234_567, b"\x96\x86" * 8)
    writer.add_frame(2_000_001, b"hello radio")
    frames = list(read_pcap(writer.getvalue()))
    assert frames == [(1_234_567, b"\x96\x86" * 8),
                      (2_000_001, b"hello radio")]


def test_pcap_global_header_is_wireshark_compatible():
    data = PcapWriter().getvalue()
    magic, major, minor, zone, sigfigs, snaplen, network = struct.unpack(
        "<IHHiIII", data[:24])
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    assert (zone, sigfigs) == (0, 0)
    assert snaplen == 65535
    assert network == LINKTYPE_AX25_KISS == 202


def test_channel_monitor_pcap_matches_golden_capture():
    testbed = build_figure1_testbed(seed=7)
    pcap = PcapWriter()
    ChannelMonitor(testbed.channel, pcap=pcap)
    pinger = Pinger(testbed.host.stack)
    # Pin the ICMP identifier: Pinger hands them out from a process-wide
    # counter, and the golden bytes must not depend on test ordering.
    pinger.ident = 100
    pinger.send("44.24.0.5", count=2, interval=20 * SECOND)
    testbed.sim.run(until=90 * SECOND)

    produced = pcap.getvalue()
    assert produced == GOLDEN_PCAP.read_bytes()
    frames = list(read_pcap(produced))
    assert len(frames) == pcap.frames == 6
    # Every captured record decodes as an AX.25 frame carrying our traffic.
    times = [time for time, _frame in frames]
    assert times == sorted(times)


# ----------------------------------------------------------------------
# ring encoding
# ----------------------------------------------------------------------

#: timeline(1) of the seed-3 run below.  This text, and the two hashes
#: in the test, were measured when an object-per-event recorder still
#: existed beside the ring and gave identical output.
_SEED3_TIMELINE = [
    "pkt 1 icmp from wally born@0 state=delivered",
    "           0 us  enter   born         at wally",
    "         189 us  enter   ipintrq      at microvax",
    "         189 us  enter   ip.rx        at microvax",
    "         189 us  enter   ip.forward   at microvax",
    "     1817755 us  enter   driver.tx    at NT7GW",
    "     1925081 us  enter   tnc.tx       at NT7GW",
    "     1925081 us  enter   radio.tx     at NT7GW",
    "     2941748 us  enter   radio.rx     at KB7DZ",
    "     2941748 us  enter   tnc.up       at KB7DZ",
    "     3049074 us  enter   driver.rx    at KB7DZ",
    "     3049074 us  enter   ipintrq      at ibmpc",
    "     3049074 us  enter   ip.rx        at ibmpc",
    "     3049074 us  deliver ip.deliver   at ibmpc",
]


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_ring_recorder_output_is_pinned():
    """The flat ring is an encoding, not a behavior: its decoded spans,
    metrics and timeline are pinned."""
    testbed = build_gateway_testbed(seed=3)
    recorder = FlightRecorder(testbed.tracer)
    pinger = Pinger(testbed.ether_host)
    pinger.send(testbed.PC_IP, count=2, interval=20 * SECOND)
    testbed.sim.run(until=120 * SECOND)
    spans = recorder.export_spans()
    assert len(spans) == 4
    assert sum(len(span[9]) for span in spans) == 52
    assert _sha16(repr(spans)) == "868d019e8fd7b6b2"
    metrics = sorted(recorder.finalize_metrics().items())
    assert _sha16(repr(metrics)) == "bd755f9ef3ca04da"
    assert recorder.timeline(1) == _SEED3_TIMELINE


def test_ring_wrap_counts_overwritten_and_blocks_reports():
    from repro.obs.report import ReportError, require_reportable
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

    sim = Simulator()
    recorder = FlightRecorder(Tracer(sim), ring_slots=4)
    datagram = IPv4Datagram(
        source=IPv4Address.parse("44.24.0.28"),
        destination=IPv4Address.parse("44.24.0.5"),
        protocol=17, identification=9, ttl=15, payload=b"x")
    recorder.born_datagram("sta0", datagram)
    key = (IPv4Address.parse("44.24.0.28").value, 9)
    for _ in range(9):
        recorder.enter_key(key, "radio.tx", "sta0")
    recorder.finalize()
    # 10 events into 4 slots: the oldest 6 are gone, the span keeps the
    # youngest 4, and the loss is visible in the metrics.
    assert recorder.events_overwritten == 6
    span = recorder.span(recorder.born_total)
    assert span is not None and len(span.events) == 4
    with pytest.raises(ReportError, match="ring truncated"):
        require_reportable(recorder)


def test_require_reportable_rejects_unobserved_runs():
    from repro.obs.report import ReportError, require_reportable

    with pytest.raises(ReportError, match="observability is disabled"):
        require_reportable(None)


# ----------------------------------------------------------------------
# time series + profiler
# ----------------------------------------------------------------------

def test_timeseries_samples_on_cadence():
    from repro.obs.timeseries import TimeSeries
    from repro.sim.engine import Simulator

    sim = Simulator()
    state = {"delivered": 0.0}

    def work():
        state["delivered"] += 1.0
        sim.schedule(3 * SECOND, work)

    sim.schedule(0, work)
    series = TimeSeries(sim, lambda: state, cadence=10 * SECOND)
    series.start()
    series.start()  # idempotent: no doubled snapshots
    sim.run(until=35 * SECOND)
    assert [time for time, _ in series.snapshots] == [
        10 * SECOND, 20 * SECOND, 30 * SECOND]
    # work fires at 0,3,...; each snapshot event was scheduled a full
    # cadence earlier, so at t=30s it runs before the t=30s work tick.
    assert series.series("delivered") == [
        (10 * SECOND, 4.0), (20 * SECOND, 7.0), (30 * SECOND, 10.0)]
    assert series.deltas("delivered") == [
        (10 * SECOND, 4.0), (20 * SECOND, 3.0), (30 * SECOND, 3.0)]
    assert series.metrics() == {"timeseries_snapshots": 3.0,
                                "timeseries_cadence_us": float(10 * SECOND)}
    rendered = series.render(keys=("delivered",))
    assert "delivered" in rendered and "#" in rendered
    with pytest.raises(ValueError):
        TimeSeries(sim, lambda: state, cadence=0)


def test_scenario_exports_snapshot_cadence_metrics():
    from repro.workload.scenario import Scenario, run_scenario

    metrics = run_scenario(Scenario(
        name="ts", topology="gateway", stations=2,
        duration_seconds=45.0, seed=4, observe=True))
    assert metrics["obs_timeseries_snapshots"] >= 4.0
    assert metrics["obs_timeseries_cadence_us"] == float(10 * SECOND)


def test_profiler_attributes_events_to_layers():
    from repro.obs.profile import SimProfiler, attribute
    from repro.sim.engine import Simulator

    sim = Simulator()
    profiler = SimProfiler()
    sim.profiler = profiler
    assert profiler.render_flame() == "profile: no events counted"

    recorder = []  # drive a bound method and a closure through the loop
    gauge = Gauge("g")
    for _ in range(3):
        sim.schedule(10, gauge.sample, 7)
    sim.schedule(20, lambda: recorder.append(1))
    sim.run_until_idle()

    assert profiler.events == 4
    layer, component, site = attribute(gauge.sample)
    assert (layer, component) == ("obs", "instruments")
    folded = profiler.folded()
    assert f"obs;instruments;{site} 3" in folded
    assert profiler.by_layer()["obs"] == 3
    assert profiler.metrics() == {"profile_events": 4.0,
                                  "profile_sites": 2.0}
    assert "obs;instruments" in profiler.render_flame()
