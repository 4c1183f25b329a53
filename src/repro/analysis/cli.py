"""``python -m repro lint``: the CI gate front-end.

Exit codes: 0 clean (no findings outside baseline/suppressions),
1 new findings or parse errors, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.baseline import (
    BaselineError,
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import LintEngine, list_rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Run the reprolint static-analysis passes "
                    "(determinism, sim-safety, protocol invariants).",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE_NAME} "
                             "when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's rationale, a live example "
                             "finding with its provenance chain, and the "
                             "sanctioned fix, then exit")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program passes "
                             "(call graph + dataflow: DETFLOW, RACE001, "
                             "CONS001, FSM001)")
    parser.add_argument("--bench", action="store_true",
                        help="with --deep: time the deep passes, run the "
                             "dynamic SimSanitizer, and write the "
                             "static/dynamic agreement matrix to "
                             "BENCH_lint.json")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="seeds for the --bench sanitizer runs "
                             "(default 1)")
    parser.add_argument("--stations", type=int, default=10, metavar="N",
                        help="station count for the --bench sanitizer "
                             "runs (default 10)")
    parser.add_argument("--duration", type=float, default=60.0,
                        metavar="SECONDS",
                        help="simulated duration of each --bench "
                             "sanitizer run (default 60)")
    args = parser.parse_args(argv)

    if args.bench and not args.deep:
        print("--bench requires --deep", file=sys.stderr)
        return 2
    if args.bench:
        from repro.harness.experiments import obs_scenario
        from repro.harness.gate import checked, usage_error
        if args.seeds < 1:
            usage_error(f"--seeds must be >= 1, got {args.seeds}")
        checked(obs_scenario, 0, "e3", args.stations, args.duration)

    if args.list_rules:
        print(list_rules())
        return 0

    if args.explain is not None:
        from repro.analysis.explain import explain_rule
        text = explain_rule(args.explain)
        if text is None:
            print(f"unknown rule {args.explain!r}; see --list-rules",
                  file=sys.stderr)
            return 2
        print(text)
        return 0

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline \
        else Path(DEFAULT_BASELINE_NAME)
    try:
        baseline = load_baseline(baseline_path)
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    engine = LintEngine(baseline=baseline, deep=args.deep)
    report = engine.lint_paths(paths, display_root=Path.cwd())

    if args.write_baseline:
        recorded = report.new_findings + report.baselined
        write_baseline(baseline_path, recorded)
        print(f"wrote {len(recorded)} finding(s) to {baseline_path}")
        return 0

    print(report.render_json() if args.format == "json"
          else report.render_text())

    if args.bench:
        bench_code = _run_bench(report, seeds=args.seeds,
                                stations=args.stations,
                                duration=args.duration)
        return report.exit_code or bench_code
    return report.exit_code


#: Each static rule family and its dynamic twin: the ordering shuffle,
#: live span conservation, 1-proc vs 2-proc digest equality, and
#: per_char vs frame digest equality.
_RULE_FAMILIES = {
    "ordering": ("DETFLOW001", "DETFLOW002", "RACE001"),
    "conservation": ("CONS001",),
    "isolation": ("SHARD001", "SHARD002"),
    "fidelity": ("UNIT001", "UNIT002", "FID001"),
}


#: The bench's predicate on each sanitize run.
LINT_REQUIRES = {"obs_born_total": "no packets born (dead scenario)"}


def _run_bench(report, seeds: int, stations: int, duration: float) -> int:
    """The --deep --bench tail: dynamic runs + agreement matrix.

    The matrix pairs each static family with its runtime check: the
    analyses *agree* when both sides are clean or both sides fire.  A
    dynamic failure with a clean static side is the interesting row --
    a bug class the passes cannot yet see.  The isolation and fidelity
    rows read the gate runner's ``procs`` and ``fidelity`` checks on a
    deliberately tiny layout (2 regions x 1 station, 10 simulated
    seconds, no flow cloud) that keeps the smoke under a second.
    """
    import time
    from dataclasses import replace

    from repro.harness.experiments import run_sanitize
    from repro.harness.gate import Gate
    from repro.scale.regions import ScaleLayout
    from repro.scale.shard import run_sharded

    gate = Gate("lint")
    runs = [{
        "params": {"case": "deep_static"},
        "seed": 0,
        "metrics": {
            **{f"pass_{name}_seconds": round(seconds, 4)
               for name, seconds in sorted(report.deep_timings.items())},
            "deep_total_seconds": round(sum(report.deep_timings.values()), 4),
            "new_findings": float(len(report.new_findings)),
        },
    }]
    dynamic = {"ordering": 0, "conservation": 0}
    for seed in range(seeds):
        metrics = run_sanitize(seed=seed, stations=stations,
                               duration_seconds=duration)
        dynamic["ordering"] += metrics["sanitize_ordering_agree"] != 1.0
        dynamic["conservation"] += metrics["sanitize_conservation_ok"] != 1.0
        gate.require(f"sanitize seed={seed}", metrics, LINT_REQUIRES)
        runs.append({
            "params": {"case": "sanitize", "stations": stations,
                       "duration_seconds": duration},
            "seed": seed,
            "metrics": {key: metrics[key] for key in (
                "sanitize_ordering_agree", "sanitize_conservation_ok",
                "sanitizer_checks", "sanitizer_stale_spans",
                "obs_born_total")},
        })

    layout = ScaleLayout(regions=2, stations_per_region=1,
                         flow_stations=0, duration_seconds=10.0,
                         fidelity="per_char", seed=0)
    started = time.perf_counter()
    procs, isolation = gate.sharded(layout, (0,), procs=(1, 2))
    fidelity_runs, fidelity = gate.invariance(
        "fidelity", ("per_char", "frame"),
        lambda level: procs[1]["seed=0"] if level == "per_char" else
        run_sharded(replace(layout, fidelity=level), procs=1))
    dynamic["isolation"] = int(not isolation["identical"])
    dynamic["fidelity"] = int(not fidelity["identical"])
    runs.append({
        "params": {"case": "shard_digests", "regions": 2,
                   "stations_per_region": 1, "duration_seconds": 10.0},
        "seed": 0,
        "metrics": {
            "shard_digest_equal": float(isolation["identical"]),
            "fidelity_digest_equal": float(fidelity["identical"]),
            "events_saved_by_frame": float(
                procs[1]["seed=0"].get("total/events_executed", 0.0)
                - fidelity_runs["frame"].get("total/events_executed", 0.0)),
            "shard_bench_wall_seconds": round(
                time.perf_counter() - started, 3),
        },
    })

    agreement: Dict[str, Dict[str, object]] = {}
    for name, rules in _RULE_FAMILIES.items():
        static = sum(1 for f in report.new_findings if f.rule in rules)
        agree = (static == 0) == (dynamic[name] == 0)
        column = ("dynamic_disagreements" if name == "ordering"
                  else "dynamic_failures")
        agreement[name] = {"static_findings": static,
                           column: dynamic[name], "agree": agree}
        gate.check(agree, f"{name}: {static} static finding(s) vs "
                          f"{dynamic[name]} dynamic failure(s)")
    print(" ".join(f"{name} agree={row['agree']}"
                   for name, row in sorted(agreement.items())))
    return gate.finish(None, {
        "spec": {"source": "python -m repro lint --deep --bench",
                 "seeds": seeds, "stations": stations,
                 "duration_seconds": duration},
        "runs": runs,
        "agreement": agreement,
    }, "static and dynamic checks agree")
