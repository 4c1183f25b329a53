"""Simulator performance microbenchmarks.

Unlike the experiment benches (which reproduce the paper and run one
deterministic round), these measure the reproduction itself as
software: event-loop throughput, codec speed, and end-to-end simulation
cost.  They exist so a change that makes the simulator 10x slower is
caught by the same `pytest benchmarks/ --benchmark-only` run that
checks the science.

Each test records its headline rate (events/sec, frames/sec, ...) and a
module-teardown fixture writes them to ``BENCH_perf.json`` through the
harness's results writer, so the repo's performance trajectory is
tracked across PRs alongside the ``python -m repro sweep`` outputs.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.ax25.address import AX25Address, AX25Path
from repro.ax25.defs import PID_ARPA_IP
from repro.ax25.frames import AX25Frame
from repro.inet.ip import IPv4Address, IPv4Datagram, PROTO_TCP
from repro.inet.tcp import FLAG_ACK, TcpSegment
from repro.kiss.framing import KissDeframer, frame as kiss_frame
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

from benchmarks.conftest import mean_seconds, write_cases

#: case name -> metrics dict, filled in as the benches run.
_PERF_RESULTS: Dict[str, Dict[str, float]] = {}


def _record(case: str, mean: float, **rates: float) -> None:
    """Stash one bench's rates, and the mean round they come from, for
    the module-level JSON artifact."""
    _PERF_RESULTS[case] = dict(rates, mean_seconds_per_round=mean)


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write BENCH_perf.json after the module's benches have run."""
    yield
    if _PERF_RESULTS:
        write_cases("perf", "benchmarks/test_perf_microbench.py", _PERF_RESULTS)


def test_perf_event_loop_throughput(benchmark):
    """Schedule and dispatch 10k chained events."""
    def run():
        sim = Simulator()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < 10_000:
                sim.schedule(10, tick)

        sim.schedule(1, tick)
        sim.run_until_idle()
        return state["count"]

    assert benchmark(run) == 10_000
    mean = mean_seconds(benchmark, run)
    _record("event_loop", mean, events_per_s=10_000 / mean)


def test_perf_engine_fanout(benchmark):
    """One 100-byte KISS record written to 22 per-char lines at once.

    A frame that every promiscuous TNC passes up reaches each hearer's
    host line at the same instant, baud and length, so at every byte
    time the 22 lines' bytes tie in the event queue: this case times
    what the engine pays per byte of such a fan-out.  Each line feeds a
    ``KissDeframer``, and 50 unrelated events wait later in the queue,
    as a gateway's timers do.  A round builds the lines and runs until
    the record has landed everywhere.
    """
    record = kiss_frame(0, bytes(range(97)))
    assert len(record) == 100

    def run():
        sim = Simulator()
        lines = [SerialLine(sim, baud=9600, name=f"tty{index}")
                 for index in range(22)]
        deframers = [KissDeframer() for _ in lines]
        for line, deframer in zip(lines, deframers):
            line.b.on_receive(deframer.push_byte)
        landed = [line.a.write(record) for line in lines][-1]
        for index in range(50):
            sim.at(landed + SECOND + index, lambda: None, label="unrelated")
        sim.run(until=landed)
        return sim.events_executed, deframers

    executed, deframers = benchmark(run)
    assert executed == 22 * len(record)
    assert all(deframer.frames == [(0, bytes(range(97)))]
               for deframer in deframers)
    mean = mean_seconds(benchmark, run)
    _record("engine_fanout", mean,
            ns_per_byte=mean / executed * 1e9,
            events_per_s=executed / mean)


def test_perf_kiss_deframe_64k_stream(benchmark):
    """Per-byte deframing of a 64 KiB KISS stream (the driver's hot path)."""
    payload = bytes(range(256)) * 1
    record = kiss_frame(0, payload)
    stream = record * (65536 // len(record) + 1)

    def run():
        deframer = KissDeframer()
        for byte in stream:
            deframer.push_byte(byte)
        return len(deframer.frames)

    frames = benchmark(run)
    assert frames > 200
    mean = mean_seconds(benchmark, run)
    _record("kiss_deframe", mean,
            bytes_per_s=len(stream) / mean,
            mb_per_s=len(stream) / mean / 1e6,
            frames_per_s=frames / mean)


def test_perf_kiss_deframe_per_record(benchmark):
    """The same stream pushed one record per call, as a line delivers it.

    Each record's payload holds a FEND and a FESC, so every push goes
    through ``unescape``.
    """
    record = kiss_frame(0, bytes(range(256)))
    count = 65536 // len(record) + 1

    def run():
        deframer = KissDeframer()
        for _ in range(count):
            deframer.push(record)
        return len(deframer.frames)

    assert benchmark(run) == count
    mean = mean_seconds(benchmark, run)
    size = len(record) * count
    before = _PERF_RESULTS.get("kiss_deframe", {}).get("mb_per_s")
    rates = {"bytes_per_s": size / mean, "mb_per_s": size / mean / 1e6,
             "frames_per_s": count / mean}
    if before is not None:
        rates["per_byte_mb_per_s"] = before        # "before" column
        rates["speedup_vs_per_byte"] = rates["mb_per_s"] / before
    _record("kiss_deframe_per_record", mean, **rates)


def test_perf_ax25_codec(benchmark):
    """Encode+decode round trips of a digipeated UI frame."""
    frame = AX25Frame.ui(
        AX25Address("KB7DZ"), AX25Address("N7AKR", 2), PID_ARPA_IP,
        bytes(200), AX25Path.of("WB7DIG", "K3MC-7"),
    )

    def run():
        total = 0
        for _ in range(500):
            decoded = AX25Frame.decode(frame.encode())
            total += len(decoded.info)
        return total

    assert benchmark(run) == 500 * 200
    mean = mean_seconds(benchmark, run)
    _record("ax25_codec", mean, frames_per_s=500 / mean)


def test_perf_ip_tcp_codec(benchmark):
    """Encode+decode of TCP-in-IP (checksums included)."""
    src = IPv4Address.parse("44.24.0.5")
    dst = IPv4Address.parse("128.95.1.2")
    segment = TcpSegment(1024, 23, 1000, 2000, FLAG_ACK, 4096, bytes(512))

    def run():
        total = 0
        for _ in range(300):
            wire = IPv4Datagram(
                source=src, destination=dst, protocol=PROTO_TCP,
                payload=segment.encode(src, dst), identification=7,
            ).encode()
            datagram = IPv4Datagram.decode(wire)
            decoded = TcpSegment.decode(datagram.payload, src, dst)
            total += len(decoded.payload)
        return total

    assert benchmark(run) == 300 * 512
    mean = mean_seconds(benchmark, run)
    _record("ip_tcp_codec", mean, segments_per_s=300 / mean)


def test_perf_full_gateway_session(benchmark):
    """Cost of simulating the whole §2.3 ping exchange, end to end."""
    from repro.apps.ping import Pinger
    from repro.core.topology import build_gateway_testbed

    state = {"events": 0}

    def run():
        tb = build_gateway_testbed(seed=1)
        pinger = Pinger(tb.pc.stack)
        pinger.send("128.95.1.2", count=2, interval=30 * SECOND)
        tb.sim.run(until=200 * SECOND)
        state["events"] = tb.sim.events_executed
        return pinger.received

    assert benchmark(run) == 2
    mean = mean_seconds(benchmark, run)
    _record("full_gateway_session", mean,
            sim_events_per_s=state["events"] / mean,
            sim_events=float(state["events"]))


def test_perf_obs_overhead(benchmark):
    """Flight-recorder cost: it must stay under the 10% budget.

    Measured with interleaved paired rounds (disabled / enabled /
    disabled, each round's overhead taken against its own bracketing
    disabled baseline) rather than batch A/B timing -- the session is
    short enough that CPU frequency and cache drift between batches
    used to dominate, reporting nonsense like negative overhead.  See
    ``repro.obs.overhead``.  The disabled-vs-disabled column is the
    noise floor the overhead should be read against.  All columns land
    in BENCH_perf.json.
    """
    from repro.obs.overhead import measure

    metrics = benchmark.pedantic(
        measure, kwargs={"rounds": 7}, rounds=1, iterations=1)
    noise = abs(metrics["obs_disabled_overhead_pct"])
    # Gate on the median round: a single preempted round would drag the
    # mean over budget without the recorder having gotten any slower.
    ring = metrics["obs_enabled_overhead_median_pct"]
    assert ring < 10.0, (
        f"recorder overhead {ring:.1f}% (median round) "
        f"exceeds the 10% budget (noise floor {noise:.1f}%)")
    _PERF_RESULTS["obs_overhead"] = dict(metrics)
