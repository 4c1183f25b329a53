"""One measured sample of one workload, in a fresh single-threaded process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py WORKLOAD SCENARIO_SEED {plain,traced,setup}

``plain`` measures with tracing off and calibrates its slice times to
the reference host speed (see ``workloads.SliceTimer``); ``traced``
installs the per-layer span trace and does not calibrate; ``setup``
only sets up, and reports the set-up times and host-speed scale.  The
last line of standard output is one JSON object: set-up and simulation
wall times (raw, and normalised with the host-speed scale measured
after set-up), the normalised slice times, peak RSS, the metric digest,
the operation counts, the failed checks and, when traced, the per-layer
metrics.
``run.py`` starts these one at a time.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv) -> int:
    if len(argv) != 3 or argv[2] not in ("plain", "traced", "setup"):
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, mode = argv[0], int(argv[1]), argv[2]

    began = perf_counter()
    import workloads  # imports repro: users pay this on every invocation
    imported = perf_counter()
    from repro.harness.results import metrics_digest
    trace = None
    if mode == "traced":
        from layertrace import LayerTrace
        trace = LayerTrace()
        trace.install()

    sample = {"workload": workload, "seed": seed, "mode": mode,
              "import_s": imported - began}
    setup_began = perf_counter()
    if workload == "mc_explore":
        explorers = workloads.mc_explorers()
    else:
        run = workloads.build_scenario(
            workloads.gateway_scenario(workload, seed))
    sample["build_s"] = perf_counter() - setup_began
    if trace is None:
        sample["host_scale"] = workloads.host_scale()
    if mode == "setup":
        print(json.dumps(sample))
        return 0

    failures = []
    exploration = None
    timer = workloads.SliceTimer(calibrate=trace is None)
    if workload == "mc_explore":
        if trace is not None:
            for _name, world, explorer in explorers:
                trace.attach(world.sim, explorer.capturer)
            trace.start()
        exploration = workloads.explore_sliced(explorers, timer)
        if trace is not None:
            trace.stop()
        metrics = workloads.exploration_counts(exploration)
        attempted, completed = len(exploration), 0
        for name, result in exploration.items():
            reasons = workloads.world_failures(name, result)
            failures.extend(f"{name}: {reason}" for reason in reasons)
            completed += not reasons
    else:
        if trace is not None:
            trace.attach(run.sim)
            trace.start()
        metrics = workloads.run_sliced(run, timer)
        if trace is not None:
            trace.stop()
        attempted, completed = workloads.gateway_ops(metrics)
        if run.recorder is not None and not run.recorder.conservation_ok():
            failures.append("flight-recorder span conservation does not hold")
        if attempted == 0:
            failures.append("no user operations were attempted")

    sample.update(
        wall_s=sum(timer.raw),
        wall_norm_s=sum(timer.normalised),
        slices_ms=[s * 1e3 for s in timer.normalised],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=metrics_digest(metrics),
        attempted=attempted,
        completed=completed,
        failures=failures,
        layers=trace.metrics(exploration) if trace is not None else None,
    )
    if trace is not None:
        trace.remove()
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
