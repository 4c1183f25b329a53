"""The simulator benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads (see ``RATIONALE.md`` for why each exists):

* ``gw_chaos_perchar`` -- the 50-station chaos gateway at per-character
  serial fidelity, recorder off.
* ``gw_tcp_frame`` -- TCP bulk + ping + BBS over a flow-station cloud at
  frame fidelity, recorder on.
* ``mc_explore`` -- reprocheck explores ``lapb2`` and ``tcpxfer`` to
  fixpoint.  The search is exhaustive, so it ignores the seed.

Each sample runs in a fresh single-threaded process (``worker.py``), one
at a time, for about ``--seconds``.  A gateway run simulates
``SUBSEEDS`` scenario seeds derived from ``--seed``, round-robin, each
at least once and the first at least twice.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates plain and traced samples of
the first scenario seed and prints the per-layer metrics.

Times are normalised to a reference host speed by a calibration kernel
interleaved with the measured slices (``workloads.SliceTimer``).

Correctness: every repeat of a scenario seed (plain or traced) must give
the same metric digest, distinct scenario seeds must give distinct
digests, the share of simulated user operations that the simulated
network fails must stay in ``OPS_FAILED_RANGE``, ``gw_tcp_frame`` must
conserve flight-recorder spans, and ``mc_explore`` must reach the known
fixpoints with no violation.  That share is printed on every run.  A
failed check counts all of that sample's operations as failed and makes
the command exit 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GATEWAY_WORKLOADS = ("gw_chaos_perchar", "gw_tcp_frame")
WORKLOADS = GATEWAY_WORKLOADS + ("mc_explore",)

#: Scenario seeds per gateway run.  Averaging over several keeps the
#: run-to-run spread across ``--seed`` values small.
SUBSEEDS = 8

#: The share of simulated user operations that the simulated network
#: fails (lost pings, UDP datagrams and TCP transfers), pooled over a
#: gateway run's scenario seeds, must lie in this range.  It is fixed
#: for each ``--seed``; the range holds every value measured over 30
#: ``--seed`` values with a margin of 0.1 or more on each side, so only
#: a change in what the simulator does can leave it.
OPS_FAILED_RANGE = {"gw_chaos_perchar": (0.40, 0.75),
                    "gw_tcp_frame": (0.30, 0.60)}

#: Set-up-only workers per plain run.  Few ``mc_explore`` samples fit in
#: a run, so these keep ``setup_s`` a median over several set-ups.
SETUP_PROBES = 5

WORKER_TIMEOUT_S = 150


def scenario_seeds(workload: str, seed: int) -> List[int]:
    """The scenario seeds one run simulates (the seed reaches only these)."""
    if workload == "mc_explore":
        return [0]  # exhaustive search: the seed has nothing to choose
    return [seed * SUBSEEDS + index for index in range(SUBSEEDS)]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, seeds: List[int], loadavg: float, samples: List[dict],
               setups: List[dict]) -> Dict[str, object]:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": loadavg,
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": seeds if args.workload != "mc_explore" else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(samples),
        "setup_probes": len(setups),
        "slices": sum(len(s["slices_ms"]) for s in samples),
    }


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """Run one sample in a fresh process and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {workload} seed={seed} {mode} exited "
            f"{completed.returncode}:\n{completed.stderr.strip()}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def collect(args, seeds: List[int]) -> Tuple[List[dict], List[dict]]:
    """Run samples round-robin until the next would overrun ``--seconds``.

    Plain mode first runs :data:`SETUP_PROBES` set-up-only workers, then
    cycles through the scenario seeds, running each at least once and
    the first at least twice, so the digest is always checked against a
    repeat; trace mode alternates plain and traced samples of the first
    scenario seed and runs at least one of each.  A sample's duration is
    estimated by the last sample in the same slot of the cycle.  Returns
    the samples and the set-up probes.
    """
    began = perf_counter()
    setups = [] if args.trace else [
        run_worker(args.workload, seeds[index % len(seeds)], "setup")
        for index in range(SETUP_PROBES)]
    if args.trace:
        cycle = [(seeds[0], "plain"), (seeds[0], "traced")]
        minimum = len(cycle)
    else:
        cycle = [(seed, "plain") for seed in seeds]
        minimum = len(cycle) + 1
    samples: List[dict] = []
    durations: Dict[int, float] = {}
    while True:
        slot = len(samples) % len(cycle)
        elapsed = perf_counter() - began
        if (len(samples) >= minimum
                and elapsed + durations[slot] > args.seconds):
            break
        seed, mode = cycle[slot]
        sample_began = perf_counter()
        samples.append(run_worker(args.workload, seed, mode))
        durations[slot] = perf_counter() - sample_began
    return samples, setups


def simulated_ops(samples: List[dict]) -> Tuple[int, int]:
    """(attempted, completed) user operations, once per scenario seed.

    Repeats of a seed simulate the same operations, so each seed counts
    once and the totals depend on ``--seed`` only, not on how many
    samples fitted in the run.
    """
    first: Dict[int, dict] = {}
    for sample in samples:
        first.setdefault(sample["seed"], sample)
    return (sum(s["attempted"] for s in first.values()),
            sum(s["completed"] for s in first.values()))


def check(samples: List[dict], workload: str,
          several_seeds: bool) -> List[str]:
    """Mark failed samples in place; return what failed, for printing."""
    problems: List[str] = []
    by_seed: Dict[int, List[dict]] = {}
    for sample in samples:
        by_seed.setdefault(sample["seed"], []).append(sample)
        for failure in sample["failures"]:
            problems.append(f"seed {sample['seed']} ({sample['mode']}): {failure}")
            sample["failed"] = True
    for seed, group in sorted(by_seed.items()):
        digests = sorted({s["digest"] for s in group})
        print(f"# digest seed={seed} {' '.join(digests)} "
              f"({len(group)} samples)")
        if len(digests) != 1:
            problems.append(f"seed {seed}: repeats disagree on the metric "
                            f"digest ({len(digests)} distinct)")
            for sample in group:
                sample["failed"] = True
    if several_seeds:
        first = {seed: group[0]["digest"] for seed, group in by_seed.items()}
        if len(set(first.values())) != len(first):
            problems.append("distinct scenario seeds gave the same digest: "
                            "the seed does not reach the scenario")
            for sample in samples:
                sample["failed"] = True
        attempted, completed = simulated_ops(samples)
        low, high = OPS_FAILED_RANGE[workload]
        fraction = 1.0 - completed / attempted
        if not low <= fraction <= high:
            problems.append(f"the simulated network failed {fraction:.3f} of "
                            f"the user operations, outside [{low}, {high}]")
            for sample in samples:
                sample["failed"] = True
    return problems


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def end_to_end(samples: List[dict], setups: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of a plain run, at the reference host speed.

    Times are the workers' host-speed-normalised ones (see
    ``workloads.SliceTimer``).  ``wall_s`` is each scenario seed's
    median over its repeats, averaged over the run's seeds; the slice
    percentiles pool every normalised slice of the run; set-up time is
    the median over the samples and the set-up probes, and peak RSS the
    median over the samples.
    """
    by_seed: Dict[int, List[dict]] = {}
    for sample in samples:
        by_seed.setdefault(sample["seed"], []).append(sample)
    for seed, group in sorted(by_seed.items()):
        print(f"# wall_s seed={seed} raw: "
              + " ".join(f"{s['wall_s']:.4f}" for s in group)
              + "  normalised: "
              + " ".join(f"{s['wall_norm_s']:.4f}" for s in group))
    slices = [ms for sample in samples for ms in sample["slices_ms"]]
    return {
        "wall_s": statistics.fmean(
            statistics.median(s["wall_norm_s"] for s in group)
            for group in by_seed.values()),
        "setup_s": statistics.median(
            (s["import_s"] + s["build_s"]) * s["host_scale"]
            for s in samples + setups),
        "slice_ms_p50": percentile(slices, 0.50),
        "slice_ms_p95": percentile(slices, 0.95),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
    }


def per_layer(samples: List[dict]) -> Dict[str, float]:
    """The per-layer metrics of a trace run, from its fastest traced sample.

    Traced times are not normalised, since the probe kernel would run
    inside the trace.  Host interference only ever adds time to a
    deterministic run, so the fastest sample of each kind is the least
    disturbed; the overhead compares the fastest traced and the fastest
    plain sample.
    """
    plain = min((s for s in samples if s["mode"] == "plain"),
                key=lambda s: s["wall_s"])
    traced = min((s for s in samples if s["mode"] == "traced"),
                 key=lambda s: s["wall_s"])
    metrics = dict(traced["layers"])
    metrics["sim.events_per_s"] = metrics["sim.events"] / plain["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["workload.ops_failed_frac"] = (
        1.0 - traced["completed"] / traced["attempted"])
    return metrics


def load_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = load_units(bool(args.trace))
    seeds = scenario_seeds(args.workload, args.seed)
    loadavg = os.getloadavg()[0]
    try:
        samples, setups = collect(args, seeds)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print("# provenance "
          + json.dumps(provenance(args, seeds, loadavg, samples, setups)))

    problems = check(samples, args.workload, several_seeds=len(seeds) > 1)
    for problem in problems:
        print(f"# FAILED {problem}")
    ops_attempted, ops_completed = simulated_ops(samples)
    print(f"# ops_failed_frac = {1.0 - ops_completed / ops_attempted:.6g} "
          f"ratio ({ops_attempted - ops_completed} of {ops_attempted} "
          f"simulated user operations over {len({s['seed'] for s in samples})} "
          "scenario seed(s))")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["attempted"] for s in samples if s.get("failed"))
    plain = [s for s in samples if s["mode"] == "plain"]
    values = (per_layer(samples) if args.trace
              else end_to_end(plain, setups))
    print(f"# samples: {len(plain)} plain, {len(samples) - len(plain)} "
          f"traced; slices per plain sample: "
          f"{sorted({len(s['slices_ms']) for s in plain})}; host-speed "
          f"scale after set-up: "
          + " ".join(f"{s['host_scale']:.3f}" for s in plain))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
