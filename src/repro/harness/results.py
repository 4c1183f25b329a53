"""Machine-readable benchmark results: the ``BENCH_*.json`` files.

One file per bench, written at the repository root (or wherever the
caller points), so the repo's performance trajectory can be tracked
across PRs by diffing or plotting these files.  The schema is stable
and flat on purpose:

.. code-block:: json

    {
      "bench": "e3",
      "schema": 1,
      "spec": {"seeds": [1, 2], "procs": 4, "grid": [...]},
      "runs": [
        {"params": {...}, "seed": 1, "metrics": {...},
         "runtime": {"pid": 123, "wall_seconds": 0.8}}
      ],
      "aggregates": [
        {"params": {...}, "metrics": {"m": {"n": 2, "mean": ..,
          "stdev": .., "ci95": .., "min": .., "max": ..}}}
      ]
    }

Per-seed ``metrics`` are seed-deterministic (identical across re-runs
and worker layouts); ``runtime`` is diagnostic only and excluded from
any reproducibility comparison.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.harness.runner import SweepResult, params_key

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


def metrics_digest(metrics: Mapping[str, float]) -> str:
    """sha256 over the canonical JSON of one run's metric dict.

    Two runs with identical metrics have identical digests; the chaos
    gate compares these across process layouts to prove determinism.
    """
    payload = json.dumps({str(k): float(v) for k, v in metrics.items()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


#: Metrics that may legitimately differ between two runs of the same
#: seeded scenario that a gate claims equivalent (per_char vs frame
#: fidelity, FIFO vs order-salted tie-breaks, recorder off vs on):
#: bookkeeping about the event queue and the sanitizer's own schedule,
#: never protocol outcomes.
NEUTRAL_METRICS = frozenset({
    "events_executed",
    "sanitizer_checks",
    "sanitizer_order_salted",
})


def comparable_metrics(metrics: Mapping[str, float]) -> Dict[str, float]:
    """The subset of a metrics dict an equivalence claim must preserve.

    Sharded runs prefix per-region metrics (``region0/events_executed``,
    ``total/events_executed``); the neutral set applies to the last path
    segment so the same projection works on flat and sharded dicts.
    """
    return {key: value for key, value in sorted(metrics.items())
            if key.rsplit("/", 1)[-1] not in NEUTRAL_METRICS}


def sweep_cells(result: SweepResult) -> Dict[str, Dict[str, float]]:
    """Per-cell metrics, keyed ``<params_key>|seed=<seed>``."""
    return {f"{params_key(record.params)}|seed={record.seed}": record.metrics
            for record in result.records}


def bench_json_path(bench: str, directory: Union[str, Path] = ".") -> Path:
    """The conventional results path for a bench: ``BENCH_<name>.json``."""
    return Path(directory) / f"BENCH_{bench}.json"


def sweep_to_dict(result: SweepResult) -> Dict[str, object]:
    """Shape a :class:`SweepResult` into the stable JSON schema."""
    runs: List[Dict[str, object]] = [
        {
            "params": record.params,
            "seed": record.seed,
            "metrics": record.metrics,
            "runtime": {
                "pid": record.pid,
                "wall_seconds": round(record.wall_seconds, 6),
            },
        }
        for record in result.records
    ]
    aggregates: List[Dict[str, object]] = [
        {
            "params": params,
            "metrics": {
                name: stat.as_dict()
                for name, stat in sorted(result.aggregates[key].items())
            },
        }
        for key, params in result.grid_points()
    ]
    return {
        "bench": result.spec.bench,
        "schema": SCHEMA_VERSION,
        "spec": {
            "seeds": list(result.spec.seeds),
            "procs": result.spec.procs,
            "grid": [dict(params) for params in
                     (result.spec.grid or
                      [p for _, p in result.grid_points()])],
        },
        "runtime": {
            "wall_seconds": round(result.wall_seconds, 6),
            "workers_used": result.workers_used,
        },
        "runs": runs,
        "aggregates": aggregates,
    }


def write_bench_json(
    path: Union[str, Path],
    payload: Union[SweepResult, Dict[str, object]],
    bench: Optional[str] = None,
) -> Path:
    """Write a results file; accepts a sweep result or a pre-shaped dict.

    The pre-shaped-dict form is for callers outside the sweep runner
    (e.g. the pytest perf microbench) that assemble ``runs`` manually;
    ``bench`` and the schema version are stamped in for them.
    """
    if isinstance(payload, SweepResult):
        document = sweep_to_dict(payload)
    else:
        document = dict(payload)
        document.setdefault("schema", SCHEMA_VERSION)
        if bench is not None:
            document.setdefault("bench", bench)
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
