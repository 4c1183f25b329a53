"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one figure/table/claim from the paper and
prints the corresponding rows (visible with ``pytest -s``); shape
assertions make the reproduction self-checking.  pytest-benchmark
times the simulation run itself.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.harness.results import bench_json_path, write_bench_json


def report(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print one experiment's result table."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    header = tuple(str(cell) for cell in header)
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header))
    out = sys.stderr
    print(f"\n=== {title} ===", file=out)
    print(line, file=out)
    print("-" * len(line), file=out)
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)), file=out)


def mean_seconds(benchmark, run: Callable[[], object]) -> float:
    """The benchmark's mean seconds per round; with no stats (under
    ``--benchmark-disable``), one timed ``run()``."""
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        return float(stats.stats.mean)
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def write_cases(bench: str, source: str, results: Mapping[str, Mapping[str, float]],
                module: str) -> Optional[Path]:
    """Write ``BENCH_<bench>.json`` at the cwd: one seed-0 run per case, in case order.

    Only a complete, timed run writes.  Each test in ``module`` records
    one case, and only when its benchmark timed its rounds, so a ``-k``
    subset, a ``--benchmark-disable`` run or a failed case leaves a case
    out: then nothing is written and None is returned.
    """
    tests = [name for name in vars(sys.modules[module]) if name.startswith("test_")]
    if len(results) < len(tests):
        return None
    return write_bench_json(bench_json_path(bench), {
        "bench": bench, "spec": {"source": source},
        "runs": [{"params": {"case": case}, "seed": 0, "metrics": metrics}
                 for case, metrics in sorted(results.items())]})
