"""Command-line front door: ``python -m repro <command> [options]``.

Runs the bundled example scenarios and the gates without needing the
examples/ directory, so an installed copy of the library can
demonstrate and check itself.  ``python -m repro list`` prints every
command beside the first line of its docstring, and ``python -m repro
<command> --help`` lists its options.  The fuller scenarios (BBS,
emergency net, NET/ROM node network, ...) live as scripts in the
repository's examples/ directory.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Callable, Dict, List


def _quickstart(argv: List[str]) -> int:
    """Figure 1: a radio host pings its peer across the 1200 bps path."""
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
    """§2.3: telnet from the radio PC through the gateway to Ethernet."""
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
    """axdump and netstat on a live gateway while the PC pings."""
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
    """A seeded experiment sweep with 95% CIs (see sweep --list).

    Writes ``BENCH_<name>.json``.  The BENCH file of an experiment a gate
    sweeps (chaos, obs, tournament) belongs to that gate, so sweeping one
    without ``--out`` exits 2 and names the gate.
    """
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
    owner = {"chaos": "chaos", "obs": "report --bench",
             "tournament": "tournament"}.get(args.bench)
    if owner is not None and args.out is None:
        print(f"BENCH_{args.bench}.json is written by `python -m repro "
              f"{owner}`; give --out to sweep {args.bench}", file=sys.stderr)
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

    done = itertools.count(1)
    result = run_sweep(spec, progress=lambda record: print(
        f"  [{next(done):3d}/{total}] seed={record.seed} "
        f"{record.params} ({record.wall_seconds:.2f}s)"))

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


#: The chaos gate's per-run {metric that must reach 1: failure text}.
CHAOS_REQUIRES = {"watchdog_recoveries": "watchdog never recovered the TNC",
                  "post_fault_pings_ok": "no post-recovery ping succeeded"}


def _chaos(argv: List[str]) -> int:
    """The fault-injection soak gate: watchdog recovery under chaos.

    Runs the ``chaos`` experiment over N seeds twice -- once inline,
    once across worker processes -- and requires (1) zero crashed runs,
    (2) byte-identical per-seed metric digests across the two layouts,
    (3) at least one watchdog recovery within the documented bound, and
    (4) successful post-recovery end-to-end pings in every run.
    """
    from repro.harness.experiments import chaos_scenario
    from repro.harness.gate import Gate, checked, parse_gate_args
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
    cell = {"stations": args.stations, "duration_seconds": args.duration}
    checked(chaos_scenario, args.seed_base, **cell)

    gate = Gate("chaos")
    results, document = gate.sweep(
        SweepSpec(bench="chaos", seeds=args.seed_list, grid=(cell,)),
        progress=lambda r: print(
            f"  seed={r.seed} ({r.wall_seconds:.1f}s) "
            f"recoveries={r.metrics.get('watchdog_recoveries', 0):.0f} "
            f"post-pings={r.metrics.get('post_fault_pings_ok', 0):.0f}"))
    for record in results[1].records:
        where = f"seed={record.seed}"
        if gate.require(where, record.metrics,
                        CHAOS_REQUIRES)["watchdog_recoveries"]:
            recovery = record.metrics.get("watchdog_last_recovery_s", 0)
            gate.check(recovery <= args.recovery_bound,
                       f"{where}: recovery took {recovery:.1f}s "
                       f"(bound {args.recovery_bound:.0f}s)")
    return gate.finish(args.out, document,
                       f"{len(results[1].records)} run(s), digests "
                       f"identical across layouts")


TOURNAMENT_REQUIRES = {"obs_conservation_ok": "span conservation violated"}


def _tournament(argv: List[str]) -> int:
    """The recovery-policy tournament gate: the §4.1 headline.

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
    from repro.faults.plan import TOURNAMENT_PLANS
    from repro.harness.experiments import tournament_scenario
    from repro.harness.gate import Gate, checked, parse_gate_args, parse_list
    from repro.harness.runner import SweepSpec, params_key
    from repro.radio.modem import ModemProfile

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
    plans = parse_list("--plans", args.plans, known=TOURNAMENT_PLANS)
    speeds = parse_list("--speeds", args.speeds, item=lambda text:
                        ModemProfile(bit_rate=int(text)).bit_rate)

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
    for params in grid:
        checked(tournament_scenario, args.seed_base, **params)
    gate = Gate("tournament")
    results, document = gate.sweep(
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
        gate.require(f"seed={record.seed} {record.params}", record.metrics,
                     TOURNAMENT_REQUIRES)

    # The §4.1 headline: on the storm plan at 1200 bps, adaptive RTO
    # with Reno must strictly beat the fixed-RTO uncongested baseline.
    headline = {}
    if "storm" in plans and 1200 in speeds:
        champion_key = params_key(
            cell("adaptive", "reno", "fixed", "storm", 1200))
        baseline_key = params_key(
            cell("fixed", "none", "fixed", "storm", 1200))
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

    # 360 runs x ~180 metrics (mostly obs histogram buckets) makes a
    # multi-megabyte artifact; keep the recovery-relevant slice.  The
    # digests still cover the full metric set of every run.
    keep_prefixes = ("goodput_", "tcp_", "lapb_", "fault",
                     "obs_conservation_", "channel_")
    keep_exact = {"obs_born_total", "obs_delivered", "obs_dropped",
                  "obs_drop_link_giveup"}
    for section in ("runs", "aggregates"):
        for entry in document[section]:
            entry["metrics"] = {
                name: value for name, value in entry["metrics"].items()
                if name in keep_exact or name.startswith(keep_prefixes)}
    document["headline"] = headline
    return gate.finish(args.out, document,
                       f"{len(grid)} cell(s) x {args.seeds} seed(s), zero "
                       f"crashes, spans conserved, digests identical "
                       f"across layouts")


def _report(argv: List[str]) -> int:
    """One run's flight recorder report, or with --bench the obs gate.

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

    Each mode ignores the other's options, so setting one of those away
    from its default is a usage error (exit 2) naming it.
    """
    from repro.harness.gate import parse_gate_args, usage_error

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
    if args.bench:
        mode = "--bench sweeps the obs grid"
        other = ("seed", "variant", "stations", "duration", "pcap",
                 "timeline", "flame", "no_observe")
    else:
        mode = "without --bench runs one scenario"
        other = ("seeds", "seed_base", "out")
    ignored = [f"--{dest.replace('_', '-')}" for dest in other
               if getattr(args, dest) != parser.get_default(dest)]
    if ignored:
        usage_error(f"report {mode} and ignores {', '.join(ignored)}")
    return _obs_gate(args) if args.bench else _single_report(args)


def _single_report(args: argparse.Namespace) -> int:
    """``report`` without ``--bench``: one instrumented scenario."""
    from repro.harness.experiments import obs_scenario
    from repro.harness.gate import checked
    from repro.obs.pcap import PcapWriter
    from repro.obs.report import ReportError, render_report, require_reportable
    from repro.tools.axdump import ChannelMonitor
    from repro.workload.scenario import build_scenario

    scenario = checked(obs_scenario, args.seed, args.variant, args.stations,
                       args.duration, prefix="report", observe=not args.no_observe)
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


#: The obs gate's per-run predicates, on its sweep and its sharded runs.
OBS_REQUIRES = {"obs_conservation_ok": "span conservation violated",
                "obs_born_total": "no packets born (dead scenario)"}
OBS_SHARDED_REQUIRES = {"total/obs_sharded_conservation_ok":
                        "cross-shard span conservation violated",
                        "total/obs_born_total": "no packets born"}


def _obs_gate(args: argparse.Namespace) -> int:
    """``report --bench``: the observability gate."""
    from repro.faults import FaultPlan, FaultSpec
    from repro.harness.gate import Gate
    from repro.harness.runner import SweepSpec
    from repro.obs.overhead import measure as measure_overhead
    from repro.scale.regions import ScaleLayout
    from repro.sim.clock import SECOND

    gate = Gate("obs")
    results, document = gate.sweep(
        SweepSpec(bench="obs", seeds=args.seed_list),
        progress=lambda r: print(
            f"  seed={r.seed} {r.params} ({r.wall_seconds:.1f}s) "
            f"born={r.metrics.get('obs_born_total', 0):.0f} "
            f"delivered={r.metrics.get('obs_delivered', 0):.0f} "
            f"conservation={r.metrics.get('obs_conservation_ok', 0):.0f}"))
    for record in results[1].records:
        gate.require(f"seed={record.seed} {record.params}", record.metrics,
                     OBS_REQUIRES)

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
    shards, shard_digests = gate.sharded(shard_template, args.seed_list)
    shard_runs: Dict[str, Dict[str, float]] = {}
    for where, metrics in shards[1].items():
        shard_runs[where] = {key: value
                             for key, value in sorted(metrics.items())
                             if key.startswith("total/obs_")}
        print(f"  {where} born={metrics.get('total/obs_born_total', 0):.0f} "
              f"handed-off={metrics.get('total/obs_handed_off', 0):.0f} "
              f"adopted={metrics.get('total/obs_adopted', 0):.0f}")
        gate.require(f"shard {where}", metrics, OBS_SHARDED_REQUIRES)

    # Paired-round overhead columns (recorded for trend tracking; the
    # perf microbench asserts the <10% budget with more rounds).
    overhead = measure_overhead(rounds=5)
    print("obs overhead (paired rounds, vs bracketing disabled runs): "
          f"ring {overhead['obs_enabled_overhead_median_pct']:+.1f}% "
          f"(mean {overhead['obs_enabled_overhead_pct']:+.1f}"
          f"±{overhead['obs_enabled_overhead_ci95_pct']:.1f}) "
          f"noise {overhead['obs_disabled_overhead_pct']:+.1f}%"
          f"±{overhead['obs_disabled_overhead_ci95_pct']:.1f}")

    document["sharded"] = {"runs": shard_runs, "digests": shard_digests}
    document["overhead"] = overhead
    return gate.finish(args.out, document,
                       f"{len(results[1].records)} run(s) conserve spans, "
                       f"{len(shard_runs)} sharded run(s) conserve across "
                       f"regions, digests identical across layouts")


#: The scale gate's predicate on each sharded run and the headline run.
SCALE_REQUIRES = {"total/pings_received": "no cross-region ping completed"}


def _scale(argv: List[str]) -> int:
    """The multi-fidelity sharding gate: shard and fidelity invariance.

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

    from repro.harness.gate import Gate, checked, parse_gate_args
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
    layouts = checked(
        ScaleLayout, regions=args.regions, stations_per_region=args.stations,
        flow_stations=args.flow, duration_seconds=args.duration,
        fidelity=args.fidelity,
    )

    gate = Gate("scale")
    shards, digests = gate.sharded(layouts, args.seed_list)
    for where, metrics in shards[1].items():
        print(f"  {where} pings={metrics.get('total/pings_received', 0):.0f}"
              f"/{metrics.get('total/pings_sent', 0):.0f}")
        gate.require(where, metrics, SCALE_REQUIRES)

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
        gate.require("headline run", metrics, SCALE_REQUIRES)

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
    """The model-checking gate: preset worlds, POR ratio, mutations.

    Explores every preset world to fixpoint (or budget) and requires
    zero property violations; measures the partial-order-reduction
    ratio on the lapb2 execution tree and requires >= 2x; runs the
    mutation gate (three seeded bugs, each of which the checker must
    find and replay deterministically).  Writes ``BENCH_mc.json``.
    """
    from repro.check import Budget, Explorer, por_ratio
    from repro.check.mutations import MUTATIONS
    from repro.check.replay import replay_violation
    from repro.check.worlds import WORLDS
    from repro.harness.gate import Gate, parse_gate_args, parse_list

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

    names = parse_list("--worlds", args.worlds, known=WORLDS)

    budget = Budget(max_states=args.max_states, max_depth=args.max_depth,
                    max_wall_seconds=args.max_seconds)

    def explore(world: str):
        return Explorer(WORLDS[world], por=True, budget=budget).run()

    gate = Gate("mc")
    presets = []
    for name in names:
        result = explore(name)
        presets.append(result.summary())
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
            confirmation = replay_violation(WORLDS[name], shortest)
            print(confirmation.report())
            print(confirmation.timeline())

    por = None
    if not args.skip_por_ratio:
        por, ratio, complete = por_ratio(budget, args.naive_cap)
        bound = ">=" if por["lower_bound"] else "="
        print(f"mc: POR ratio on lapb2 tree: {bound} {ratio:.1f}x "
              f"({por['naive_states']} naive vs {por['por_states']} "
              f"reduced states)")
        gate.check(complete,
                   "POR tree walk of lapb2 hit its budget; "
                   "ratio is not meaningful")
        gate.check(ratio >= 2.0, f"POR ratio {ratio:.2f}x < 2x on lapb2")

    mutation_rows = []
    if not args.skip_mutation_gate:
        for mutation in MUTATIONS.values():
            with mutation.active():
                found = explore(mutation.world).shortest_violation()
                replayed = False
                if found is not None:
                    confirmation = replay_violation(WORLDS[mutation.world],
                                                    found)
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
            "worlds": list(names),
            "max_states": args.max_states,
            "max_depth": args.max_depth,
            "max_wall_seconds": args.max_seconds,
            "naive_cap": args.naive_cap,
        },
        "presets": presets,
        "por_ratio": por,
        "mutation_gate": mutation_rows,
        "failures": gate.failures,
    }
    return gate.finish(args.out, document,
                       f"{len(names)} world(s) clean, "
                       f"{len(mutation_rows)} mutation(s) caught")


def _lint(argv: List[str]) -> int:
    """The reprolint static-analysis gate (see lint --help)."""
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
    listing = name in ("list", "-h", "--help")
    if not listing:
        print(f"unknown command {name!r}", file=sys.stderr)
    print("usage: python -m repro <command> [options]\n\ncommands:")
    for command, run in COMMANDS.items():
        print(f"  {command:12s} {run.__doc__.strip().splitlines()[0]}")
    print("richer versions live in examples/*.py")
    return 0 if listing else 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
