"""Parallel experiment harness: seed sweeps, parameter grids, results.

The simulator is single-threaded by design (determinism), so the only
route to using all cores is process-level parallelism: the harness fans
(experiment, params, seed) tasks across a ``multiprocessing`` pool,
collects per-run metric dicts, aggregates them into mean/stddev/95%-CI
statistics via :mod:`repro.metrics.stats`, and writes machine-readable
``BENCH_*.json`` files so the repo's performance trajectory is tracked
across PRs.

Entry points:

* ``python -m repro sweep --bench e3 --seeds 8 --procs 4`` -- the CLI;
* :func:`repro.harness.runner.run_sweep` -- the library call;
* :data:`repro.harness.experiments.EXPERIMENTS` -- the registry of
  named experiments (e3, a3, soak, chaos, obs, sanitize, tournament);
* :class:`repro.harness.gate.Gate` -- the runner behind the CLI gates.
"""

from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.harness.results import (
    bench_json_path,
    metrics_digest,
    write_bench_json,
)
from repro.harness.runner import RunRecord, SweepResult, SweepSpec, run_sweep

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "RunRecord",
    "SweepResult",
    "SweepSpec",
    "bench_json_path",
    "metrics_digest",
    "run_sweep",
    "write_bench_json",
]
