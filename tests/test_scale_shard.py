"""Sharded regional execution (repro.scale.regions + .shard).

The contract under test: a :class:`ScaleLayout` run is a pure function
of (layout, seed) no matter how many worker processes execute it --
procs=1 (inline), 2 and 4 must produce byte-identical merged metric
digests, including when a fault plan partitions a gateway, and the
traffic must genuinely cross regions (pings answered by the *next*
region's gateway over the windowed link).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.results import metrics_digest
from repro.obs.merge import merge_pcaps
from repro.obs.pcap import PcapWriter, read_pcap
from repro.scale.regions import (
    RegionGatewayLink,
    ScaleLayout,
    build_region,
    derive_region_seed,
    region_metrics,
)
from repro.scale.shard import (
    merge_metrics,
    run_sharded,
    run_sharded_full,
    window_count,
)
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

#: Golden merged two-region capture (layout OBS_LAYOUT below, procs=1).
GOLDEN_SHARD_PCAP = Path(__file__).parent / "data" / "golden_shard_capture.pcap"

#: Small but real: cross-region pings plus flow background in each
#: region, short enough for CI, long enough for several sync windows.
LAYOUT = ScaleLayout(regions=2, stations_per_region=2, flow_stations=40,
                     duration_seconds=40.0, drain_seconds=20.0, seed=13)

#: The observed/captured chaos layout: faults in region 0, a
#: FlightRecorder and pcap monitor in every region.
OBS_LAYOUT = ScaleLayout(
    regions=2, stations_per_region=2, duration_seconds=40.0,
    drain_seconds=20.0, seed=17, observe=True, capture=True,
    fault_plan=FaultPlan((
        FaultSpec(kind="partition", target="GW0", peer="WL0",
                  at=5 * SECOND, duration=15 * SECOND),
        FaultSpec(kind="serial_noise", target="gateway",
                  at=8 * SECOND, duration=10 * SECOND, probability=0.05),
    )))


@pytest.fixture(scope="module")
def obs_run():
    """One inline run of the observed chaos layout, shared by the tests."""
    return run_sharded_full(OBS_LAYOUT, procs=1)


def test_region_seeds_are_layout_independent():
    assert derive_region_seed(13, 0) != derive_region_seed(13, 1)
    assert derive_region_seed(13, 1) == derive_region_seed(13, 1)
    assert derive_region_seed(14, 1) != derive_region_seed(13, 1)


def test_layout_validation():
    with pytest.raises(ValueError):
        ScaleLayout(regions=0)
    with pytest.raises(ValueError):
        ScaleLayout(stations_per_region=0)
    with pytest.raises(ValueError):
        ScaleLayout(fidelity="flow")  # not a line fidelity
    with pytest.raises(ValueError):
        ScaleLayout(link_latency=0)


def test_layout_addressing_is_disjoint():
    layout = ScaleLayout(regions=3, stations_per_region=4)
    table = layout.ip_to_region()
    # gateway + link + stations per region, no collisions across regions
    assert len(table) == 3 * (1 + 1 + 4)
    assert table[layout.gateway_ip(2)] == 2
    assert sum(layout.flow_share(r) for r in range(3)) == 0


def test_flow_share_splits_remainder():
    layout = ScaleLayout(regions=3, stations_per_region=1, flow_stations=10)
    shares = [layout.flow_share(r) for r in range(3)]
    assert sum(shares) == 10
    assert shares == [4, 3, 3]


def test_window_count_covers_horizon():
    layout = ScaleLayout(duration_seconds=10.0, drain_seconds=5.0)
    assert window_count(layout) * layout.link_latency >= 15 * SECOND


def test_gateway_link_stamps_and_drains():
    sim = Simulator()
    link = RegionGatewayLink(sim, region=0)
    assert link.if_output(b"abc", "44.25.0.28")
    assert link.if_output(b"def", "44.25.0.28")
    first = link.drain_outbox()
    assert [(entry[1], entry[2], entry[3]) for entry in first] == [
        (1, "44.25.0.28", b"abc"), (2, "44.25.0.28", b"def")]
    # Without a recorder the span-context slot stays empty.
    assert [entry[4] for entry in first] == [None, None]
    assert link.drain_outbox() == []
    received = []
    link.input_handler = lambda packet, _iface, proto: received.append(
        (proto, packet))
    link.inject(b"xyz")
    assert received == [("ip", b"xyz")]


def test_build_region_is_process_layout_independent():
    """Two builds of the same region are byte-identical after running."""
    def run_once():
        region = build_region(LAYOUT, 0)
        region.sim.run(until=30 * SECOND)
        return region_metrics(region)

    assert run_once() == run_once()


def test_cross_region_pings_complete():
    merged = run_sharded(LAYOUT, procs=1)
    assert merged["total/pings_sent"] > 0
    assert merged["total/pings_received"] > 0
    assert merged["total/link_packets_out"] > 0
    assert merged["total/link_packets_in"] > 0
    assert merged["total/gateway_ip_forwarded"] > 0
    # Both regions carried background flow load.
    assert merged["region0/flow_served"] > 0
    assert merged["region1/flow_served"] > 0


@pytest.mark.parametrize("procs", [2, 4])
def test_shard_count_invariance(procs):
    """procs=1 vs N: byte-identical merged digests (the tentpole gate)."""
    inline = run_sharded(LAYOUT, procs=1)
    sharded = run_sharded(LAYOUT, procs=procs)
    assert metrics_digest(sharded) == metrics_digest(inline)


def test_shard_invariance_with_partition_fault():
    """The gate also holds with a partitioned gateway in region 0."""
    plan = FaultPlan((
        FaultSpec(kind="partition", target="GW0", peer="WL0",
                  at=5 * SECOND, duration=15 * SECOND),
        FaultSpec(kind="serial_noise", target="gateway",
                  at=8 * SECOND, duration=10 * SECOND, probability=0.05),
    ))
    layout = ScaleLayout(regions=2, stations_per_region=2, flow_stations=20,
                         duration_seconds=40.0, drain_seconds=20.0,
                         seed=17, fault_plan=plan)
    runs = {procs: run_sharded(layout, procs=procs) for procs in (1, 2, 4)}
    assert runs[1]["region0/faults_injected"] == 2
    assert metrics_digest(runs[2]) == metrics_digest(runs[1])
    assert metrics_digest(runs[4]) == metrics_digest(runs[1])


def test_uneven_region_to_worker_assignment():
    """3 regions on 2 workers: ownership is uneven but digests hold."""
    layout = ScaleLayout(regions=3, stations_per_region=1, flow_stations=9,
                         duration_seconds=30.0, drain_seconds=20.0, seed=23)
    assert metrics_digest(run_sharded(layout, procs=2)) == \
        metrics_digest(run_sharded(layout, procs=1))


def test_merge_metrics_namespaces_and_totals():
    merged = merge_metrics(
        ScaleLayout(regions=2),
        {0: {"pings_sent": 2.0, "ping_mean_rtt_s": 4.0},
         1: {"pings_sent": 3.0, "ping_mean_rtt_s": 6.0}})
    assert merged["region0/pings_sent"] == 2.0
    assert merged["total/pings_sent"] == 5.0
    assert merged["total/ping_mean_rtt_s"] == 5.0  # averaged, not summed
    assert "total/regions" in merged


# ----------------------------------------------------------------------
# cross-shard tracing + merged capture
# ----------------------------------------------------------------------


def test_sharded_spans_conserve_across_regions(obs_run):
    """The merged conservation invariant holds on a 2-region chaos run."""
    metrics = obs_run.metrics
    assert metrics["total/obs_sharded_conservation_ok"] == 1.0
    assert metrics["total/obs_born_total"] > 0
    assert metrics["total/obs_handed_off"] == metrics["total/obs_adopted"]
    assert metrics["total/obs_conservation_violations"] == 0.0
    # born == delivered + dropped + shed + in_flight, run-wide.
    assert metrics["total/obs_born_total"] == (
        metrics["total/obs_delivered"] + metrics["total/obs_dropped"]
        + metrics["total/obs_shed"] + metrics["total/obs_in_flight"])
    view = obs_run.view
    assert view is not None and view.conservation_ok()
    counts = view.counts()
    assert counts["cross_region"] > 0
    assert counts["spans"] == metrics["total/obs_born_total"]


def test_sharded_timeline_reads_across_the_boundary(obs_run):
    """A handed-off span renders as one trace spanning both regions."""
    view = obs_run.view
    crossing = next(span for span in view.iter_spans()
                    if len(span.regions) > 1 and span.state == "delivered")
    text = "\n".join(view.timeline(crossing.pkt_id))
    assert "[r0]" in text and "[r1]" in text
    assert "gateway.tx" in text and "gateway.rx" in text
    assert "state=delivered" in text
    assert "delivered after" in view.why_dropped(crossing.pkt_id)


def test_sharded_observe_digest_parity_across_procs(obs_run):
    """Merged metrics, traces and capture are byte-identical for 2/4 procs."""
    base = metrics_digest(obs_run.metrics)
    for procs in (2, 4):
        run = run_sharded_full(OBS_LAYOUT, procs=procs)
        assert metrics_digest(run.metrics) == base
        assert run.pcap == obs_run.pcap
        assert run.view.counts() == obs_run.view.counts()


def test_merged_capture_is_time_ordered_and_golden(obs_run):
    """Two regions' monitors merge into one clean capture."""
    frames = list(read_pcap(obs_run.pcap))
    assert frames, "merged capture is empty"
    times = [time_us for time_us, _frame in frames]
    assert times == sorted(times)
    # No gateway frame is heard twice: inter-region packets travel the
    # wireline link, never a radio channel.
    assert len(set(frames)) == len(frames)
    assert obs_run.pcap == GOLDEN_SHARD_PCAP.read_bytes()


def test_merge_pcaps_rejects_duplicate_frames():
    first, second = PcapWriter(), PcapWriter()
    first.add_frame(1000, b"same-frame")
    second.add_frame(1000, b"same-frame")
    with pytest.raises(ValueError, match="duplicated frame"):
        merge_pcaps([first.getvalue(), second.getvalue()])
