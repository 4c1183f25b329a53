"""The parallel sweep runner.

A sweep is a parameter grid crossed with a seed list.  Each (params,
seed) cell runs one experiment function in a worker process and returns
a flat metrics dict; the parent aggregates every metric across seeds
with :func:`repro.metrics.stats.aggregate`.

Determinism contract: an experiment's metrics are a pure function of
``(params, seed)`` -- workers carry no state into the run, so the same
seed list produces identical per-seed metric values whether the sweep
runs inline, in 2 processes or in 16.  (Wall-clock and worker PID are
recorded separately under ``runtime`` and are of course not
reproducible.)
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.metrics.stats import Aggregate, aggregate


@dataclass(frozen=True)
class SweepSpec:
    """What to run: experiment name, seeds, parameter grid, workers."""

    bench: str
    seeds: Tuple[int, ...]
    grid: Tuple[Mapping[str, object], ...] = ()   #: () = experiment default
    procs: int = 1

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if self.procs < 1:
            raise ValueError("procs must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    """One completed (params, seed) cell."""

    bench: str
    params: Dict[str, object]
    seed: int
    metrics: Dict[str, float]
    pid: int
    wall_seconds: float


def params_key(params: Mapping[str, object]) -> str:
    """Canonical string identity of a parameter point."""
    return json.dumps(dict(params), sort_keys=True, default=str)


@dataclass
class SweepResult:
    """Everything a sweep produced, plus aggregates."""

    spec: SweepSpec
    records: List[RunRecord]
    wall_seconds: float

    #: params_key -> metric name -> cross-seed Aggregate
    aggregates: Dict[str, Dict[str, Aggregate]] = field(default_factory=dict)

    @property
    def workers_used(self) -> int:
        """Number of distinct worker processes that executed tasks."""
        return len({record.pid for record in self.records})

    def grid_points(self) -> List[Tuple[str, Dict[str, object]]]:
        """(params_key, params) for each grid point, in first-seen order."""
        seen: Dict[str, Dict[str, object]] = {}
        for record in self.records:
            seen.setdefault(params_key(record.params), record.params)
        return list(seen.items())

    def compute_aggregates(self) -> None:
        """Aggregate every metric across seeds, per grid point."""
        points: Dict[str, Dict[str, List[float]]] = {}
        for record in self.records:
            metrics = points.setdefault(params_key(record.params), {})
            for name, value in record.metrics.items():
                metrics.setdefault(name, []).append(float(value))
        self.aggregates = {
            key: {name: aggregate(values) for name, values in metrics.items()}
            for key, metrics in points.items()}


def _run_task(task: Tuple[str, Dict[str, object], int]) -> RunRecord:
    """Execute one cell.  Module-level so worker processes can import it."""
    from repro.harness.experiments import EXPERIMENTS

    bench, params, seed = task
    experiment = EXPERIMENTS[bench]
    started = time.perf_counter()
    metrics = experiment.fn(seed=seed, **params)
    return RunRecord(
        bench=bench,
        params=dict(params),
        seed=seed,
        metrics={str(k): float(v) for k, v in metrics.items()},
        pid=os.getpid(),
        wall_seconds=time.perf_counter() - started,
    )


def run_sweep(spec: SweepSpec,
              progress=None) -> SweepResult:
    """Run the sweep, in parallel when ``spec.procs > 1``.

    ``progress`` (optional) is called with each finished
    :class:`RunRecord` as results stream in.
    """
    from repro.harness.experiments import EXPERIMENTS

    if spec.bench not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown bench {spec.bench!r} (known: {known})")
    experiment = EXPERIMENTS[spec.bench]
    grid: Sequence[Mapping[str, object]] = spec.grid or experiment.grid
    tasks = [
        (spec.bench, dict(params), seed)
        for params in grid
        for seed in spec.seeds
    ]
    started = time.perf_counter()
    records: List[RunRecord] = []
    with contextlib.ExitStack() as stack:
        stream: Iterable[RunRecord] = map(_run_task, tasks)
        if spec.procs > 1 and len(tasks) > 1:
            pool = stack.enter_context(multiprocessing.Pool(
                processes=min(spec.procs, len(tasks))))
            # chunksize=1 so tasks fan out evenly even when one parameter
            # point is much slower than another.
            stream = pool.imap(_run_task, tasks, chunksize=1)
        for record in stream:
            records.append(record)
            if progress is not None:
                progress(record)
    # Stable order: grid-major then seed, independent of completion order.
    order = {(params_key(params), seed): index
             for index, (_, params, seed) in enumerate(tasks)}
    records.sort(key=lambda r: order[(params_key(r.params), r.seed)])
    result = SweepResult(spec=spec, records=records,
                         wall_seconds=time.perf_counter() - started)
    result.compute_aggregates()
    return result


def seeds_from_count(count: int, base: int = 1) -> Tuple[int, ...]:
    """The conventional seed list for ``--seeds N``: base..base+N-1."""
    if count < 1:
        raise ValueError("need at least one seed")
    return tuple(range(base, base + count))
