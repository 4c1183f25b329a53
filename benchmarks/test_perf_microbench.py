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
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

from benchmarks.conftest import write_cases

#: case name -> metrics dict, filled in as the benches run.
_PERF_RESULTS: Dict[str, Dict[str, float]] = {}


def _record(case: str, benchmark, **rates: float) -> None:
    """Stash one bench's rates for the module-level JSON artifact."""
    metrics = dict(rates)
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        metrics["mean_seconds_per_round"] = float(stats.stats.mean)
    _PERF_RESULTS[case] = metrics


def _mean_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    if stats is None:  # e.g. --benchmark-disable
        return float("nan")
    return float(stats.stats.mean)


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
    _record("event_loop", benchmark,
            events_per_s=10_000 / _mean_seconds(benchmark))


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
    mean = _mean_seconds(benchmark)
    _record("kiss_deframe", benchmark,
            bytes_per_s=len(stream) / mean,
            mb_per_s=len(stream) / mean / 1e6,
            frames_per_s=frames / mean)


def _deframe_rates(benchmark, size: int, frames: int) -> Dict[str, float]:
    """Rates of a deframing bench, against the per-byte case's MB/s."""
    mean = _mean_seconds(benchmark)
    metrics = {
        "bytes_per_s": size / mean,
        "mb_per_s": size / mean / 1e6,
        "frames_per_s": frames / mean,
    }
    before = _PERF_RESULTS.get("kiss_deframe", {}).get("mb_per_s")
    if before is not None:
        metrics["per_byte_mb_per_s"] = before        # "before" column
        metrics["speedup_vs_per_byte"] = metrics["mb_per_s"] / before
    return metrics


def test_perf_kiss_deframe_vectorized(benchmark):
    """The same 64 KiB stream as one ``push`` call.

    No simulated line writes such a buffer: a frame-fidelity line
    delivers one record per burst.  ``push`` decodes one whole record
    in one step and feeds any other buffer, this one included, to
    ``push_byte`` a byte at a time, so this case runs at per-byte
    speed.  ``kiss_deframe_per_record`` below times the shape the
    simulator does push.
    """
    payload = bytes(range(256)) * 1
    record = kiss_frame(0, payload)
    stream = record * (65536 // len(record) + 1)

    def run():
        deframer = KissDeframer()
        deframer.push(stream)
        return len(deframer.frames)

    frames = benchmark(run)
    assert frames > 200
    # Differential sanity right here: same result as the per-byte path.
    reference = KissDeframer()
    for byte in stream:
        reference.push_byte(byte)
    assert frames == len(reference.frames)
    _record("kiss_deframe_vectorized", benchmark,
            **_deframe_rates(benchmark, len(stream), frames))


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
    _record("kiss_deframe_per_record", benchmark,
            **_deframe_rates(benchmark, len(record) * count, count))


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
    _record("ax25_codec", benchmark,
            frames_per_s=500 / _mean_seconds(benchmark))


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
    _record("ip_tcp_codec", benchmark,
            segments_per_s=300 / _mean_seconds(benchmark))


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
    _record("full_gateway_session", benchmark,
            sim_events_per_s=state["events"] / _mean_seconds(benchmark),
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
