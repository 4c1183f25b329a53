"""Command-line front door: ``python -m repro <scenario>``.

Runs the bundled example scenarios without needing the examples/
directory, so an installed copy of the library can demonstrate itself:

    python -m repro quickstart     # Figure 1 ping
    python -m repro gateway        # §2.3 telnet session over the gateway
    python -m repro observatory    # axdump + netstat on a live gateway
    python -m repro sweep ...      # parallel seeded experiment sweeps
    python -m repro chaos ...      # fault-injection soak + digest gate
    python -m repro tournament ... # recovery-policy tournament gate
    python -m repro report ...     # packet flight recorder report / gate
    python -m repro scale ...      # multi-fidelity sharding digest gate
    python -m repro lint ...       # reprolint static-analysis gate
    python -m repro mc ...         # reprocheck model-checking gate
    python -m repro list           # show this list

``sweep`` is the experiment harness: it fans a seed sweep of a named
experiment (e3, a3, soak, perf) across worker processes, prints
mean +/- 95% CI per grid point, and writes a machine-readable
``BENCH_<name>.json``:

    python -m repro sweep --bench e3 --seeds 8 --procs 4

``tournament`` is the recovery-policy gate: every (rto x cc x
link-timer) policy combination runs against the hostile-link fault
plans at 1200 and 9600 bps, on 1 and N worker processes; the gate
requires zero crashes, span conservation, byte-identical digests
across layouts, and the §4.1 headline (AdaptiveRto+Reno strictly
beats FixedRto+NoCongestion on goodput under the storm plan),
writing per-cell Student-t CIs to ``BENCH_tournament.json``:

    python -m repro tournament --seeds 3

``report`` is the observability front door: it runs an instrumented
gateway scenario and prints the flight recorder's report (top talkers,
drop reasons, latency histograms, per-hop percentiles), optionally
capturing the radio channel to a Wireshark-readable pcap, the sampled
time-series (``--timeline``) and a sim-time profile in folded-stacks
format (``--flame``).  With ``--bench`` it becomes the observability
gate: the ``obs`` experiment over N seeds on 1 and 2 worker processes
requiring span conservation and byte-identical digests across layouts,
a sharded 2-region trace gate across 1/2/4 processes, and the paired
obs-overhead measurement:

    python -m repro report --pcap capture.pcap --timeline --flame
    python -m repro report --bench --seeds 3

``scale`` is the multi-fidelity sharding gate: every seed's regional
layout runs with 1, 2 and 4 worker processes and must produce
byte-identical merged digests; a fault-free scenario must produce
identical metrics at ``per_char`` and ``frame`` serial fidelity; and a
headline run with thousands of flow-level background stations records
wall-clock and events/s into ``BENCH_scale.json``:

    python -m repro scale --seeds 3 --flow 1000

``lint`` is the reprolint static-analysis gate: AST passes for
determinism, sim-safety, and protocol invariants, exiting nonzero on
any finding not baselined or inline-suppressed:

    python -m repro lint src --format json

``mc`` is the reprocheck model-checking gate: bounded explicit-state
exploration of the preset worlds (2-station LAPB handshake, 3-station
hidden terminal, TCP transfer under lossy choice) with zero-violation
gating, the partial-order-reduction ratio measured against a
no-reduction baseline walk, and a mutation gate proving the checker
finds three seeded protocol bugs with deterministically replayable
counterexamples:

    python -m repro mc
    python -m repro mc --worlds lapb2 --counterexamples

The fuller scenarios (BBS, emergency net, NET/ROM node network, ...)
live as scripts in the repository's examples/ directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List


def _quickstart(argv: List[str]) -> int:
    from repro.apps.ping import Pinger
    from repro.core.topology import build_figure1_testbed
    from repro.sim.clock import SECOND

    testbed = build_figure1_testbed(seed=7)
    pinger = Pinger(testbed.host.stack)
    pinger.send("44.24.0.5", count=3, interval=20 * SECOND)
    testbed.sim.run(until=120 * SECOND)
    print(f"ping 44.24.0.5: {pinger.received}/{pinger.sent} replies, "
          f"mean RTT {pinger.mean_rtt_seconds():.2f}s at 1200 bps")
    for record in testbed.tracer.select(category="radio.tx"):
        print(" ", record.render())
    return 0


def _gateway(argv: List[str]) -> int:
    from repro.apps.telnet import TelnetClient, TelnetServer
    from repro.core.topology import build_gateway_testbed
    from repro.sim.clock import SECOND

    testbed = build_gateway_testbed(seed=42)
    TelnetServer(testbed.ether_host)
    client = TelnetClient(testbed.pc.stack, testbed.ETHER_HOST_IP)
    client.type_lines(["cliff", "echo hello from packet radio", "logout"])
    testbed.sim.run(until=900 * SECOND)
    print(client.transcript_text())
    print(f"[gateway forwarded "
          f"{testbed.gateway.stack.counters['ip_forwarded']} datagrams]")
    return 0


def _observatory(argv: List[str]) -> int:
    from repro.apps.ping import Pinger
    from repro.core.topology import build_gateway_testbed
    from repro.sim.clock import SECOND
    from repro.tools.axdump import ChannelMonitor
    from repro.tools.netstat import format_netstat

    testbed = build_gateway_testbed(seed=88)
    monitor = ChannelMonitor(testbed.channel)
    pinger = Pinger(testbed.pc.stack)
    pinger.send(testbed.ETHER_HOST_IP, count=2, interval=30 * SECOND)
    testbed.sim.run(until=180 * SECOND)
    print(monitor.render())
    print()
    print(format_netstat(testbed.gateway.stack))
    return 0


def _sweep(argv: List[str]) -> int:
    """``python -m repro sweep``: run a seeded experiment sweep."""
    from repro.harness import (
        EXPERIMENTS,
        SweepSpec,
        bench_json_path,
        run_sweep,
        write_bench_json,
    )
    from repro.harness.gate import parse_gate_args
    from repro.harness.runner import seeds_from_count

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Fan a seeded experiment sweep across worker "
                    "processes and write BENCH_<name>.json.",
    )
    parser.add_argument("--bench", default=None,
                        help="experiment name (see --list)")
    parser.add_argument("--procs", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    args = parse_gate_args(parser, argv, "<name>", seeds=None)

    if args.list or args.bench is None:
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[name]
            print(f"  {name:6s} {experiment.description} "
                  f"[{len(experiment.grid)} grid points, "
                  f"default {experiment.default_seed_count} seeds]")
        return 0 if args.list else 2
    if args.bench not in EXPERIMENTS:
        print(f"unknown bench {args.bench!r}; try --list", file=sys.stderr)
        return 2

    if args.procs < 1:
        print("--procs must be >= 1", file=sys.stderr)
        return 2

    experiment = EXPERIMENTS[args.bench]
    seed_count = (args.seeds if args.seeds is not None
                  else experiment.default_seed_count)
    spec = SweepSpec(
        bench=args.bench,
        seeds=seeds_from_count(seed_count, base=args.seed_base),
        procs=args.procs,
    )
    total = len(experiment.grid) * seed_count
    print(f"sweep {args.bench}: {len(experiment.grid)} grid points x "
          f"{seed_count} seeds = {total} runs on {args.procs} process(es)")

    done = {"count": 0}

    def progress(record) -> None:
        done["count"] += 1
        print(f"  [{done['count']:3d}/{total}] seed={record.seed} "
              f"{record.params} ({record.wall_seconds:.2f}s)")

    result = run_sweep(spec, progress=progress)

    print(f"\n{args.bench}: mean ± 95% CI over {seed_count} seeds")
    for key, params in result.grid_points():
        print(f"  {params}")
        for name, stat in sorted(result.aggregates[key].items()):
            print(f"    {name:28s} {stat.render()}")
    out = args.out or bench_json_path(args.bench)
    path = write_bench_json(out, result)
    print(f"\nwall {result.wall_seconds:.1f}s, "
          f"{result.workers_used} worker process(es); wrote {path}")
    return 0


def _chaos(argv: List[str]) -> int:
    """``python -m repro chaos``: the fault-injection soak gate.

    Runs the ``chaos`` experiment over N seeds twice -- once inline,
    once across worker processes -- and requires (1) zero crashed runs,
    (2) byte-identical per-seed metric digests across the two layouts,
    (3) at least one watchdog recovery within the documented bound, and
    (4) successful post-recovery end-to-end pings in every run.
    """
    from repro.harness.gate import Gate, parse_gate_args
    from repro.harness.results import sweep_to_dict
    from repro.harness.runner import SweepSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Deterministic chaos soak: fault injection + "
                    "watchdog recovery, digest-compared across "
                    "process layouts.",
    )
    parser.add_argument("--stations", type=int, default=50,
                        help="station population (default: 50)")
    parser.add_argument("--duration", type=float, default=240.0,
                        help="scenario seconds per run (default: 240)")
    parser.add_argument("--recovery-bound", type=float, default=60.0,
                        help="max allowed watchdog recovery time in "
                             "simulated seconds (default: 60)")
    args = parse_gate_args(parser, argv, "chaos")

    gate = Gate("chaos")
    grid = ({"stations": args.stations,
             "duration_seconds": args.duration},)
    results, digests = gate.sweep(
        SweepSpec(bench="chaos", seeds=args.seed_list, grid=grid),
        progress=lambda r: print(
            f"  seed={r.seed} ({r.wall_seconds:.1f}s) "
            f"recoveries={r.metrics.get('watchdog_recoveries', 0):.0f} "
            f"post-pings={r.metrics.get('post_fault_pings_ok', 0):.0f}"))
    for record in results[1].records:
        where = f"seed={record.seed}"
        metrics = record.metrics
        if gate.check(metrics.get("watchdog_recoveries", 0) >= 1,
                      f"{where}: watchdog never recovered the TNC"):
            recovery = metrics.get("watchdog_last_recovery_s", 0)
            gate.check(recovery <= args.recovery_bound,
                       f"{where}: recovery took {recovery:.1f}s "
                       f"(bound {args.recovery_bound:.0f}s)")
        gate.check(metrics.get("post_fault_pings_ok", 0) >= 1,
                   f"{where}: no post-recovery ping succeeded")

    document = sweep_to_dict(results[2])
    document["digests"] = digests
    return gate.finish(args.out, document,
                       f"{len(results[1].records)} run(s), digests "
                       f"identical across layouts")


def _tournament(argv: List[str]) -> int:
    """``python -m repro tournament``: the recovery-policy tournament gate.

    Sweeps every (rto x cc x link-timer) policy combination across the
    hostile-link fault plans and both link speeds, twice -- once inline,
    once across worker processes -- and requires (1) zero crashed runs,
    (2) byte-identical per-cell metric digests across the two layouts,
    (3) span conservation in every run, and (4) the §4.1 headline:
    AdaptiveRto+Reno strictly beats FixedRto+NoCongestion on mean
    goodput under the storm plan at 1200 bps.  Writes
    ``BENCH_tournament.json`` with goodput/latency/retransmit
    Student-t CIs per cell.
    """
    import json

    from repro.faults.plan import TOURNAMENT_PLANS
    from repro.harness.gate import Gate, parse_gate_args, usage_error
    from repro.harness.results import sweep_to_dict
    from repro.harness.runner import SweepSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro tournament",
        description="Recovery-policy tournament: (rto x cc x link-timer) "
                    "across hostile-link fault plans and link speeds, "
                    "digest-compared across process layouts.",
    )
    parser.add_argument("--plans", default=",".join(TOURNAMENT_PLANS),
                        help="comma-separated fault plans "
                             f"(default: {','.join(TOURNAMENT_PLANS)})")
    parser.add_argument("--speeds", default="1200,9600",
                        help="comma-separated link bit rates "
                             "(default: 1200,9600)")
    parser.add_argument("--duration", type=float, default=180.0,
                        help="scenario seconds per run (default: 180)")
    parser.add_argument("--procs", type=int, default=2,
                        help="worker processes for the parallel layout "
                             "(default: 2)")
    args = parse_gate_args(parser, argv, "tournament")
    plans = tuple(p.strip() for p in args.plans.split(",") if p.strip())
    unknown = [p for p in plans if p not in TOURNAMENT_PLANS]
    if not plans or unknown:
        usage_error(f"unknown plan(s) {unknown}; known: "
                    f"{', '.join(TOURNAMENT_PLANS)}")
    speeds = tuple(int(s) for s in args.speeds.split(",") if s.strip())

    def cell(rto: str, cc: str, link_timer: str, plan: str,
             bit_rate: int) -> Dict[str, object]:
        return {"rto": rto, "cc": cc, "link_timer": link_timer,
                "plan": plan, "bit_rate": bit_rate,
                "duration_seconds": args.duration}

    grid = tuple(
        cell(rto, cc, link_timer, plan, bit_rate)
        for plan in plans
        for bit_rate in speeds
        for rto in ("fixed", "adaptive")
        for cc in ("none", "reno", "paced")
        for link_timer in ("fixed", "adaptive")
    )
    gate = Gate("tournament")
    results, digests = gate.sweep(
        SweepSpec(bench="tournament", seeds=args.seed_list, grid=grid),
        procs=(1, args.procs))

    result = results[1]
    print(f"\ntournament: goodput/latency/retransmits, mean ± 95% CI "
          f"over {args.seeds} seed(s)")
    for key, params in result.grid_points():
        aggs = result.aggregates[key]
        goodput = aggs["goodput_bytes_per_s"]
        latency = aggs.get("tcp_transfer_mean_latency_s")
        rexmit = aggs["tcp_retransmissions"]
        print(f"  {params['plan']:9s} {params['bit_rate']:>4d}bps "
              f"rto={params['rto']:8s} cc={params['cc']:5s} "
              f"t1={params['link_timer']:8s} "
              f"goodput={goodput.render():22s} "
              f"rexmit={rexmit.render():18s} "
              f"latency={latency.render() if latency else '-'}")
    for record in result.records:
        gate.check(record.metrics.get("obs_conservation_ok", 0) >= 1,
                   f"seed={record.seed} {record.params}: "
                   f"span conservation violated")

    # The §4.1 headline: on the storm plan at 1200 bps, adaptive RTO
    # with Reno must strictly beat the fixed-RTO uncongested baseline.
    headline = {}
    if "storm" in plans and 1200 in speeds:
        champion_key = json.dumps(
            cell("adaptive", "reno", "fixed", "storm", 1200),
            sort_keys=True, default=str)
        baseline_key = json.dumps(
            cell("fixed", "none", "fixed", "storm", 1200),
            sort_keys=True, default=str)
        champion = result.aggregates[champion_key]["goodput_bytes_per_s"]
        baseline = result.aggregates[baseline_key]["goodput_bytes_per_s"]
        headline = {
            "adaptive_reno_goodput": champion.as_dict(),
            "fixed_none_goodput": baseline.as_dict(),
            "adaptive_beats_fixed": champion.mean > baseline.mean,
        }
        print(f"\n  §4.1 headline (storm @ 1200 bps): "
              f"AdaptiveRto+Reno {champion.render()} vs "
              f"FixedRto+NoCongestion {baseline.render()} B/s")
        gate.check(champion.mean > baseline.mean,
                   f"§4.1 headline violated: AdaptiveRto+Reno goodput "
                   f"{champion.mean:.1f} B/s does not beat "
                   f"FixedRto+NoCongestion {baseline.mean:.1f} B/s "
                   f"under the storm plan")

    document = sweep_to_dict(results[args.procs])
    # 360 runs x ~180 metrics (mostly obs histogram buckets) makes a
    # multi-megabyte artifact; keep the recovery-relevant slice.  The
    # digests below still cover the full metric set of every run.
    keep_prefixes = ("goodput_", "tcp_", "lapb_", "fault",
                     "obs_conservation_", "channel_")
    keep_exact = {"obs_born_total", "obs_delivered", "obs_dropped",
                  "obs_drop_link_giveup"}
    for section in ("runs", "aggregates"):
        for entry in document[section]:
            entry["metrics"] = {
                name: value for name, value in entry["metrics"].items()
                if name in keep_exact or name.startswith(keep_prefixes)}
    document["digests"] = digests
    document["headline"] = headline
    return gate.finish(args.out, document,
                       f"{len(grid)} cell(s) x {args.seeds} seed(s), zero "
                       f"crashes, spans conserved, digests identical "
                       f"across layouts")


def _report(argv: List[str]) -> int:
    """``python -m repro report``: the packet flight recorder front door.

    Without ``--bench``: run one instrumented gateway scenario and print
    the human-readable observability report; ``--pcap PATH`` also taps
    the radio channel into a Wireshark-compatible capture,
    ``--timeline`` appends the sampled time-series, and ``--flame``
    attaches the sim-time profiler and appends folded-stacks text.
    A run that cannot back a trustworthy report (observability disabled
    via ``--no-observe``, or a wrapped span ring) exits 2 with a
    one-line error instead of a traceback or a partial answer.

    With ``--bench``: the observability gate.  (1) The ``obs``
    experiment (plain + chaos variants) over N seeds twice -- once
    inline, once across worker processes -- requiring span conservation
    (``obs_conservation_ok``) with at least one packet born in every
    run and byte-identical per-seed metric digests across the two
    layouts.  (2) The sharded-trace gate: a 2-region observed chaos
    layout per seed, run with 1, 2 and 4 worker processes, requiring
    byte-identical merged digests and cross-shard span conservation
    (``total/obs_sharded_conservation_ok``).  (3) The paired-round
    obs-overhead measurement (recorded, not gated here -- the perf
    bench asserts the budget).  Writes ``BENCH_obs.json``.
    """
    from repro.harness.gate import parse_gate_args

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Packet flight recorder: lifecycle report, pcap "
                    "export, and (with --bench) the span-conservation "
                    "digest gate.",
    )
    parser.add_argument("--bench", action="store_true",
                        help="run the observability gate instead of a "
                             "single report")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for the single-report run (default: 1)")
    parser.add_argument("--variant", choices=("e3", "chaos"), default="chaos",
                        help="scenario variant for the single report "
                             "(default: chaos)")
    parser.add_argument("--stations", type=int, default=8,
                        help="station population (default: 8)")
    parser.add_argument("--duration", type=float, default=150.0,
                        help="scenario seconds per run (default: 150)")
    parser.add_argument("--pcap", default=None, metavar="PATH",
                        help="also write a channel capture (libpcap, "
                             "LINKTYPE_AX25_KISS) to PATH")
    parser.add_argument("--timeline", action="store_true",
                        help="append the sampled time-series (per-"
                             "interval born/delivered/dropped/shed)")
    parser.add_argument("--flame", action="store_true",
                        help="attach the sim-time profiler and append "
                             "folded-stacks text (layer;component;site)")
    parser.add_argument("--no-observe", action="store_true",
                        help="run without the flight recorder (the "
                             "report then fails with a clear error; "
                             "useful with --flame)")
    args = parse_gate_args(parser, argv, "obs")
    return _obs_gate(args) if args.bench else _single_report(args)


def _single_report(args: argparse.Namespace) -> int:
    """``report`` without ``--bench``: one instrumented scenario."""
    from repro.harness.experiments import OBS_MIX
    from repro.obs.pcap import PcapWriter
    from repro.obs.report import ReportError, render_report, require_reportable
    from repro.tools.axdump import ChannelMonitor
    from repro.workload.scenario import Scenario, build_scenario

    scenario = Scenario(
        name=f"report-{args.variant}", topology="gateway",
        stations=args.stations, duration_seconds=args.duration,
        mix=OBS_MIX, seed=args.seed, observe=not args.no_observe,
    )
    if args.variant == "chaos":
        from dataclasses import replace

        from repro.faults import chaos_plan
        plan = chaos_plan(int(args.duration), gateway="gateway",
                          stations=["WL0"])
        scenario = replace(scenario, fault_plan=plan, watchdog=True,
                           shed_threshold_bytes=2048)
    run = build_scenario(scenario)
    profiler = None
    if args.flame:
        from repro.obs.profile import SimProfiler
        profiler = SimProfiler()
        run.sim.profiler = profiler
    pcap = PcapWriter() if args.pcap else None
    if pcap is not None:
        ChannelMonitor(run.testbed.channel, pcap=pcap)
    run.run()
    if profiler is not None:
        print("sim-time profile (folded stacks: layer;component;site)")
        print(profiler.render_flame())
        print()
    try:
        recorder = require_reportable(run.recorder)
    except ReportError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(render_report(
        recorder,
        title=f"observability report: {scenario.name} "
              f"seed={args.seed}"))
    if args.timeline and run.timeseries is not None:
        print()
        print("timeline (per-interval deltas)")
        print(run.timeseries.render())
    if pcap is not None:
        size = pcap.save(args.pcap)
        print(f"\nwrote {pcap.frames} frame(s) / {size} bytes to "
              f"{args.pcap} (libpcap, LINKTYPE_AX25_KISS)")
    return 0


def _obs_gate(args: argparse.Namespace) -> int:
    """``report --bench``: the observability gate."""
    from dataclasses import replace as dc_replace

    from repro.faults import FaultPlan, FaultSpec
    from repro.harness.gate import Gate
    from repro.harness.results import sweep_to_dict
    from repro.harness.runner import SweepSpec
    from repro.obs.overhead import measure as measure_overhead
    from repro.scale.regions import ScaleLayout
    from repro.scale.shard import run_sharded
    from repro.sim.clock import SECOND

    gate = Gate("obs")
    results, digests = gate.sweep(
        SweepSpec(bench="obs", seeds=args.seed_list),
        progress=lambda r: print(
            f"  seed={r.seed} {r.params} ({r.wall_seconds:.1f}s) "
            f"born={r.metrics.get('obs_born_total', 0):.0f} "
            f"delivered={r.metrics.get('obs_delivered', 0):.0f} "
            f"conservation={r.metrics.get('obs_conservation_ok', 0):.0f}"))
    for record in results[1].records:
        where = f"seed={record.seed} {record.params}"
        gate.check(record.metrics.get("obs_conservation_ok", 0) >= 1,
                   f"{where}: span conservation violated")
        gate.check(record.metrics.get("obs_born_total", 0) >= 1,
                   f"{where}: no packets born (dead scenario)")

    # Sharded-trace gate: a two-region observed chaos layout per seed,
    # run with 1/2/4 worker processes.  Cross-shard span conservation
    # (born = delivered + dropped + shed + in-flight over the *merged*
    # run, with handoffs balancing adoptions) must hold and the merged
    # digests must be byte-identical across process counts.
    shard_template = ScaleLayout(
        regions=2, stations_per_region=2, duration_seconds=40.0,
        drain_seconds=20.0, observe=True,
        fault_plan=FaultPlan((
            FaultSpec(kind="partition", target="GW0", peer="WL0",
                      at=5 * SECOND, duration=15 * SECOND),
            FaultSpec(kind="serial_noise", target="gateway",
                      at=8 * SECOND, duration=10 * SECOND,
                      probability=0.05),
        )))
    print(f"sharded-trace gate: {args.seeds} seed(s) x 2 regions, "
          f"procs=(1, 2, 4)")
    shards, shard_digests = gate.invariance(
        "procs", (1, 2, 4), lambda procs: {
            f"seed={seed}": run_sharded(dc_replace(shard_template, seed=seed),
                                        procs=procs)
            for seed in args.seed_list}, cells=dict)
    shard_runs: Dict[str, Dict[str, float]] = {}
    for where, metrics in shards[1].items():
        shard_runs[where] = {key: value
                             for key, value in sorted(metrics.items())
                             if key.startswith("total/obs_")}
        born = metrics.get("total/obs_born_total", 0)
        print(f"  {where} born={born:.0f} "
              f"handed-off={metrics.get('total/obs_handed_off', 0):.0f} "
              f"adopted={metrics.get('total/obs_adopted', 0):.0f}")
        gate.check(metrics.get("total/obs_sharded_conservation_ok", 0) >= 1,
                   f"shard {where}: cross-shard span conservation violated")
        gate.check(born >= 1, f"shard {where}: no packets born")

    # Paired-round overhead columns (recorded for trend tracking; the
    # perf microbench asserts the <10% budget with more rounds).
    overhead = measure_overhead(rounds=5)
    print("obs overhead (paired rounds, vs bracketing disabled runs): "
          f"ring {overhead['obs_enabled_overhead_median_pct']:+.1f}% "
          f"(mean {overhead['obs_enabled_overhead_pct']:+.1f}"
          f"±{overhead['obs_enabled_overhead_ci95_pct']:.1f}) "
          f"noise {overhead['obs_disabled_overhead_pct']:+.1f}%"
          f"±{overhead['obs_disabled_overhead_ci95_pct']:.1f}")

    document = sweep_to_dict(results[2])
    document["digests"] = digests
    document["sharded"] = {"runs": shard_runs, "digests": shard_digests}
    document["overhead"] = overhead
    return gate.finish(args.out, document,
                       f"{len(results[1].records)} run(s) conserve spans, "
                       f"{len(shard_runs)} sharded run(s) conserve across "
                       f"regions, digests identical across layouts")


def _scale(argv: List[str]) -> int:
    """``python -m repro scale``: the multi-fidelity sharding gate.

    Three checks, all digest-based:

    1. **Shard invariance** -- every seed's regional layout is run with
       1, 2 and 4 worker processes; the merged metric digests must be
       byte-identical (and traffic must actually cross regions).
    2. **Fidelity equivalence** -- one seeded fault-free gateway
       scenario is run at ``per_char`` and ``frame`` serial fidelity;
       all metrics except event-queue bookkeeping must be identical.
    3. **Headline scale run** -- a mixed-fidelity layout with thousands
       of flow-level background stations must complete, recording
       wall-clock and simulated-events/s in ``BENCH_scale.json``.
    """
    import time
    from dataclasses import replace as dc_replace

    from repro.harness.gate import Gate, parse_gate_args
    from repro.scale.regions import ScaleLayout
    from repro.scale.shard import run_sharded
    from repro.workload.scenario import Scenario, run_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro scale",
        description="Multi-fidelity sharded regional runner: digest "
                    "gates for shard invariance and frame-fidelity "
                    "equivalence, plus a headline scale run.",
    )
    parser.add_argument("--regions", type=int, default=2,
                        help="regions / shards (default: 2)")
    parser.add_argument("--stations", type=int, default=2,
                        help="per-char/frame foreground stations per "
                             "region (default: 2)")
    parser.add_argument("--flow", type=int, default=1000,
                        help="flow-level background stations across all "
                             "regions (default: 1000)")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds of offered load per run "
                             "(default: 60)")
    parser.add_argument("--fidelity", choices=("per_char", "frame"),
                        default="per_char",
                        help="foreground serial fidelity for the "
                             "invariance runs (default: per_char)")
    parser.add_argument("--headline-flow", type=int, default=5000,
                        metavar="N",
                        help="background stations in the headline scale "
                             "run; 0 skips it (default: 5000)")
    args = parse_gate_args(parser, argv, "scale")

    gate = Gate("scale")
    layouts = ScaleLayout(
        regions=args.regions, stations_per_region=args.stations,
        flow_stations=args.flow, duration_seconds=args.duration,
        fidelity=args.fidelity,
    )

    def sharded(procs: int) -> Dict[str, Dict[str, float]]:
        runs = {}
        for seed in args.seed_list:
            started = time.perf_counter()
            metrics = run_sharded(dc_replace(layouts, seed=seed), procs=procs)
            runs[f"seed={seed}"] = metrics
            print(f"  seed={seed} procs={procs} "
                  f"({time.perf_counter() - started:.1f}s) pings="
                  f"{metrics.get('total/pings_received', 0):.0f}/"
                  f"{metrics.get('total/pings_sent', 0):.0f}")
        return runs

    shards, digests = gate.invariance("procs", (1, 2, 4), sharded,
                                      cells=dict)
    for where, metrics in shards[1].items():
        gate.check(metrics.get("total/pings_received", 0) >= 1,
                   f"{where}: no cross-region ping completed")

    # Fidelity equivalence on a fault-free single-simulator scenario:
    # the frame path must be byte-identical to the per-char path in
    # every metric except event-queue bookkeeping.
    fid_scenario = Scenario(
        name="scale-fidelity", topology="gateway", stations=4,
        duration_seconds=min(args.duration, 60.0), seed=args.seed_base,
    )
    fid_runs, fidelity = gate.invariance(
        "fidelity", ("per_char", "frame"),
        lambda level: run_scenario(dc_replace(fid_scenario, fidelity=level)))
    saved = (fid_runs["per_char"]["events_executed"]
             - fid_runs["frame"]["events_executed"])
    print(f"  fidelity: per_char={fidelity['per_char'][:12]} "
          f"frame={fidelity['frame'][:12]} ({saved:.0f} events saved)")

    headline: Dict[str, float] = {}
    if args.headline_flow > 0:
        layout = dc_replace(
            layouts, seed=args.seed_base, fidelity="frame",
            flow_stations=args.headline_flow)
        total_stations = (args.headline_flow
                          + args.regions * args.stations + args.regions)
        print(f"  headline: {total_stations} stations "
              f"({args.headline_flow} flow-level), "
              f"{args.regions} shard(s), {args.duration:.0f}s simulated")
        started = time.perf_counter()
        metrics = run_sharded(layout, procs=min(4, args.regions))
        wall = max(time.perf_counter() - started, 1e-9)
        events = metrics.get("total/events_executed", 0.0)
        headline = {
            "stations": float(total_stations),
            "flow_stations": float(args.headline_flow),
            "regions": float(args.regions),
            "sim_seconds": float(args.duration),
            "wall_seconds": wall,
            "events_executed": events,
            "events_per_s": events / wall,
            "pings_received": metrics.get("total/pings_received", 0.0),
            "flow_served": metrics.get("total/flow_served", 0.0),
        }
        print(f"  headline: {events:.0f} events in {wall:.1f}s wall "
              f"({events / wall:,.0f} events/s)")
        gate.check(metrics.get("total/pings_received", 0) >= 1,
                   "headline run: no cross-region ping completed")

    document: Dict[str, object] = {
        "runs": shards[1],
        "digests": digests,
        "fidelity": fidelity,
        "headline": headline,
        "params": {
            "seeds": args.seeds, "regions": args.regions,
            "stations_per_region": args.stations,
            "flow_stations": args.flow,
            "duration_seconds": args.duration,
            "fidelity": args.fidelity,
        },
    }
    return gate.finish(args.out, document,
                       f"{args.seeds} seed(s) invariant across procs "
                       f"(1, 2, 4), frame fidelity digest-equal")


def _mc(argv: List[str]) -> int:
    """``python -m repro mc``: the model-checking gate.

    Explores every preset world to fixpoint (or budget) and requires
    zero property violations; measures the partial-order-reduction
    ratio on the lapb2 execution tree and requires >= 2x; runs the
    mutation gate (three seeded bugs, each of which the checker must
    find and replay deterministically).  Writes ``BENCH_mc.json``.
    """
    from repro.check import Budget, Explorer, build_world
    from repro.check.mutations import MUTATIONS
    from repro.check.replay import replay_violation
    from repro.check.worlds import WORLDS
    from repro.harness.gate import Gate, parse_gate_args, usage_error

    parser = argparse.ArgumentParser(
        prog="python -m repro mc",
        description="Bounded explicit-state model checking of the "
                    "protocol stack: preset worlds, POR ratio, "
                    "mutation gate.",
    )
    parser.add_argument("--worlds", default="lapb2,hidden3,tcpxfer",
                        help="comma-separated preset worlds "
                             "(default: lapb2,hidden3,tcpxfer; "
                             f"known: {','.join(sorted(WORLDS))})")
    parser.add_argument("--max-states", type=int, default=50_000,
                        help="state budget per exploration "
                             "(default: 50000)")
    parser.add_argument("--max-depth", type=int, default=400,
                        help="path depth budget (default: 400)")
    parser.add_argument("--max-seconds", type=float, default=60.0,
                        help="wall-clock budget per exploration "
                             "(default: 60)")
    parser.add_argument("--naive-cap", type=int, default=8000,
                        help="state cap for the no-reduction baseline "
                             "walk; hitting it makes the reported POR "
                             "ratio a lower bound (default: 8000)")
    parser.add_argument("--skip-por-ratio", action="store_true",
                        help="skip the POR-vs-naive tree measurement")
    parser.add_argument("--skip-mutation-gate", action="store_true",
                        help="skip the seeded-bug mutation gate")
    parser.add_argument("--counterexamples", action="store_true",
                        help="print the shortest counterexample and "
                             "replay timeline for any violation")
    args = parse_gate_args(parser, argv, "mc", seeds=0)

    names = [name.strip() for name in args.worlds.split(",") if name.strip()]
    unknown = [name for name in names if name not in WORLDS]
    if unknown:
        usage_error(f"unknown world(s): {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(WORLDS))})")

    def budget(max_states: int) -> Budget:
        return Budget(max_states=max_states,
                      max_depth=args.max_depth,
                      max_wall_seconds=args.max_seconds)

    gate = Gate("mc")
    presets = []
    for name in names:
        explorer = Explorer(lambda n=name: build_world(n), por=True,
                            budget=budget(args.max_states))
        result = explorer.run()
        summary = result.summary()
        presets.append(summary)
        status = "fixpoint" if result.complete else "budget"
        print(f"mc: {name}: {result.states} states, "
              f"{result.transitions} transitions "
              f"({result.states_per_second:.0f} states/s, {status}), "
              f"{len(result.violations)} violation(s)")
        gate.failures.extend(f"{name}: {violation.render().splitlines()[0]}"
                             for violation in result.violations)
        shortest = result.shortest_violation()
        if shortest is not None and args.counterexamples:
            print(shortest.render())
            confirmation = replay_violation(
                lambda n=name: build_world(n), shortest)
            print(confirmation.report())
            print(confirmation.timeline())

    por_ratio = None
    if not args.skip_por_ratio:
        tree = Explorer(lambda: build_world("lapb2"), por=True, dedup=False,
                        budget=budget(args.max_states))
        tree_result = tree.run()
        naive = Explorer(lambda: build_world("lapb2"), por=False,
                         dedup=False, budget=budget(args.naive_cap))
        naive_result = naive.run()
        ratio = (naive_result.states / tree_result.states
                 if tree_result.states else 0.0)
        por_ratio = {
            "world": "lapb2",
            "por_states": tree_result.states,
            "por_transitions": tree_result.transitions,
            "naive_states": naive_result.states,
            "naive_transitions": naive_result.transitions,
            "ratio": round(ratio, 2),
            # A truncated baseline still proves the ratio's floor.
            "lower_bound": not naive_result.complete,
        }
        bound = ">=" if not naive_result.complete else "="
        print(f"mc: POR ratio on lapb2 tree: {bound} {ratio:.1f}x "
              f"({naive_result.states} naive vs {tree_result.states} "
              f"reduced states)")
        gate.check(tree_result.complete,
                   "POR tree walk of lapb2 hit its budget; "
                   "ratio is not meaningful")
        gate.check(ratio >= 2.0, f"POR ratio {ratio:.2f}x < 2x on lapb2")

    mutation_rows = []
    if not args.skip_mutation_gate:
        for mutation in MUTATIONS.values():
            with mutation.active():
                explorer = Explorer(
                    lambda m=mutation: build_world(m.world), por=True,
                    budget=budget(args.max_states))
                result = explorer.run()
                found = result.shortest_violation()
                replayed = False
                if found is not None:
                    confirmation = replay_violation(
                        lambda m=mutation: build_world(m.world), found)
                    replayed = confirmation.confirmed
                    if args.counterexamples:
                        print(found.render())
            mutation_rows.append({
                "mutation": mutation.name,
                "world": mutation.world,
                "expected_invariant": mutation.expected_invariant,
                "found_invariant": found.invariant if found else None,
                "counterexample_depth": found.depth if found else None,
                "replay_confirmed": replayed,
            })
            if not gate.check(found is not None,
                              f"mutation {mutation.name}: no violation "
                              f"found ({mutation.description})"):
                print(f"mc: mutation {mutation.name}: MISSED")
                continue
            gate.check(found.invariant == mutation.expected_invariant,
                       f"mutation {mutation.name}: expected "
                       f"{mutation.expected_invariant}, caught by "
                       f"{found.invariant}")
            gate.check(replayed, f"mutation {mutation.name}: "
                                 f"counterexample did not replay")
            print(f"mc: mutation {mutation.name}: caught by "
                  f"{found.invariant} in {found.depth} step(s), "
                  f"replay {'confirmed' if replayed else 'DIVERGED'}")

    document = {
        "spec": {
            "worlds": names,
            "max_states": args.max_states,
            "max_depth": args.max_depth,
            "max_wall_seconds": args.max_seconds,
            "naive_cap": args.naive_cap,
        },
        "presets": presets,
        "por_ratio": por_ratio,
        "mutation_gate": mutation_rows,
        "failures": gate.failures,
    }
    return gate.finish(args.out, document,
                       f"{len(names)} world(s) clean, "
                       f"{len(mutation_rows)} mutation(s) caught")


def _lint(argv: List[str]) -> int:
    from repro.analysis.cli import main as lint_main
    return lint_main(argv)


#: Every ``python -m repro <command>``: each takes the remaining argv
#: and returns a process exit code.
COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "quickstart": _quickstart,
    "gateway": _gateway,
    "observatory": _observatory,
    "sweep": _sweep,
    "chaos": _chaos,
    "tournament": _tournament,
    "report": _report,
    "scale": _scale,
    "lint": _lint,
    "mc": _mc,
}


def main(argv: list) -> int:
    """Dispatch to a command; returns a process exit code."""
    name = argv[1] if len(argv) > 1 else "list"
    if name in COMMANDS:
        return COMMANDS[name](argv[2:])
    if name not in ("list", "-h", "--help"):
        print(f"unknown scenario {name!r}", file=sys.stderr)
    print(__doc__.strip())
    print("\ncommands:", ", ".join(sorted(COMMANDS)))
    print("richer versions live in examples/*.py")
    return 0 if name in ("list", "-h", "--help") else 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
