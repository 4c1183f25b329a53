"""End-to-end determinism: same seed, same universe.

The whole reproduction promises that a seed fully determines a run.
These tests execute a busy multi-protocol scenario twice and require
byte-identical traces -- the property every experiment in
EXPERIMENTS.md silently relies on.
"""

from __future__ import annotations

import hashlib

from repro.apps.ftp import FileStore, FtpClient, FtpServer
from repro.apps.ping import Pinger
from repro.core.topology import build_gateway_testbed
from repro.harness.experiments import obs_scenario, run_chaos
from repro.harness.results import metrics_digest
from repro.scale.regions import ScaleLayout
from repro.scale.shard import run_sharded
from repro.sim.clock import SECOND
from repro.workload.scenario import build_scenario


def run_busy_scenario(seed):
    tb = build_gateway_testbed(seed=seed)
    FtpServer(tb.ether_host, FileStore({"f": bytes(600)}))
    client = FtpClient(tb.pc.stack, tb.ETHER_HOST_IP)
    client.get("f")
    pinger = Pinger(tb.ether_host)
    pinger.send(tb.PC_IP, count=3, interval=60 * SECOND)
    tb.sim.run(until=900 * SECOND)
    trace = tb.tracer.render()
    summary = (
        pinger.received,
        tuple(pinger.rtts_us),
        len(client.retrieved.get("f", b"")),
        tb.gateway.stack.counters["ip_forwarded"],
        tb.channel.total_transmissions,
        tb.channel.total_collisions,
        tb.sim.events_executed,
    )
    return trace, summary


def test_same_seed_identical_trace_and_counters():
    trace_a, summary_a = run_busy_scenario(seed=77)
    trace_b, summary_b = run_busy_scenario(seed=77)
    assert summary_a == summary_b
    assert trace_a == trace_b


def test_busy_scenario_trace_is_pinned():
    """Every line the busy scenario traces, read before trace records
    were slotted.  The test above compares two runs of one build with
    each other, so it cannot see a line that changed in both."""
    trace, summary = run_busy_scenario(seed=77)
    assert len(trace.splitlines()) == 494
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "22461f3fd989d9c2fa52f7870aab6dd282c3c30f93da03d86743a8f95658c60a")
    assert summary == (3, (10_388_468, 4_304_694, 2_662_804), 600, 45, 55,
                       0, 9_732)


def test_different_seed_diverges():
    _trace_a, summary_a = run_busy_scenario(seed=77)
    _trace_b, summary_b = run_busy_scenario(seed=78)
    # CSMA timing differs, so the event count virtually always differs;
    # compare the full tuple to avoid flakiness on any single field.
    assert summary_a != summary_b


def test_per_char_chaos_digest_is_pinned():
    """A busy per-character run under the chaos fault plan keeps its metrics.

    20 stations for 120 s: 44,279 events, most of them serial bytes.
    Engine and serial-path speedups must leave this digest alone.
    """
    metrics = run_chaos(seed=0, stations=20, duration_seconds=120.0)
    assert metrics["events_executed"] == 44_279
    assert metrics_digest(metrics) == (
        "6fdac25914dfadea86c100a190170c3c3f469ee35dca9edfb667e523e55d209d")


def test_salted_order_digest_is_pinned():
    """The sanitizer's salted run, the one path whose ``seq`` is a tuple."""
    scenario = obs_scenario(seed=0, variant="chaos", stations=8,
                            duration_seconds=120.0, prefix="sanitize",
                            sanitize=True, order_salt=0xD1CE)
    metrics = build_scenario(scenario).run()
    assert metrics["events_executed"] == 70_278
    assert metrics_digest(metrics) == (
        "590c52eb33d7d382e1960d35787a12fffd245a19eb3cc56a0bd5c1898ad1fdd2")


def test_sharded_scale_digest_is_pinned():
    """The scale gate's seed-1 layout, run inline, keeps its merged metrics.

    Two regions with a flow cloud and cross-region pingers: the one pin
    on the regional defaults (modem and serial rates, ping rate and
    payload, flow-cloud rate and frame size).  The value equals
    BENCH_scale.json's ``digests.procs1["seed=1"]``.
    """
    layout = ScaleLayout(regions=2, stations_per_region=2,
                         flow_stations=1000, duration_seconds=60.0,
                         fidelity="per_char", seed=1)
    assert metrics_digest(run_sharded(layout, procs=1)) == (
        "5b2b988a851bd74bd22ba4f37b7981569af7d882299cac3cef72d08c5de80f56")
