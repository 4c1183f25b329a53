"""The gate runner behind the CLI gates (chaos, tournament, report
--bench, scale, mc and lint --deep --bench).

A gate defends one of the reproduction's claims.  Each gate differs in
what it runs and which per-run predicates it checks, but shares the
rest, which lives here:

* the shared options: ``--seeds``/``--seed-base``/``--out``, the
  ``--procs`` check, :func:`parse_list`, and :func:`checked` for what
  the options build;
* the **invariance check**: every variant on one axis -- process count
  or serial fidelity -- runs the same cells, each cell's metrics are
  digested through the axis projection, and every cell whose digests
  differ is one failure.  The result is the ``digests`` section the
  BENCH files carry.  :meth:`Gate.sweep` and :meth:`Gate.sharded` put
  a harness sweep or a ``ScaleLayout`` on the ``procs`` axis;
* per-run predicates, each a named failure; :meth:`Gate.require`
  checks a gate's ``{metric: failure text}`` table, each metric of
  which must reach 1;
* the tail: write ``BENCH_<name>.json``, print the failures or the pass
  line, and return the exit code.

The axes and what each claims:

* ``procs`` -- the same seeds run inline and across worker processes
  must give byte-identical metrics, every key included;
* ``fidelity`` -- ``per_char`` and ``frame`` serial delivery must agree
  on every metric but the event-queue bookkeeping
  :func:`~repro.harness.results.comparable_metrics` strips.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Collection, Dict, List, Mapping, NoReturn, Optional,
    Sequence, Tuple,
)

from repro.harness.results import (
    bench_json_path,
    comparable_metrics,
    metrics_digest,
    sweep_cells,
    sweep_to_dict,
    write_bench_json,
)
from repro.harness.runner import (
    SweepResult,
    SweepSpec,
    run_sweep,
    seeds_from_count,
)
from repro.scale.regions import ScaleLayout
from repro.scale.shard import run_sharded

#: axis -> (BENCH label of a variant, projection its cells are compared on).
AXES: Dict[str, Tuple[Callable[[object], str], Callable]] = {
    "procs": (lambda procs: f"procs{procs}", dict),
    "fidelity": (str, comparable_metrics),
}


def usage_error(message: str) -> NoReturn:
    """Reject a gate invocation the way argparse rejects a bad flag."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def parse_gate_args(parser: argparse.ArgumentParser, argv: Sequence[str],
                    bench: str, seeds: Optional[int] = 3) -> argparse.Namespace:
    """Add the shared ``--seeds``/``--seed-base``/``--out``, parse, validate.

    ``seeds`` is the ``--seeds`` default: ``None`` defers to the
    experiment's own default, 0 means the command takes only ``--out``.
    A given seed count is also parsed into ``args.seed_list``.  A
    command's own ``--procs`` must be at least 1.
    """
    if seeds != 0:
        parser.add_argument("--seeds", type=int, default=seeds, metavar="N",
                            help="number of seeds (default: "
                                 f"{seeds or 'per experiment'})")
        parser.add_argument("--seed-base", type=int, default=1,
                            help="first seed value (default: 1)")
    parser.add_argument("--out", default=None,
                        help=f"results path (default: ./BENCH_{bench}.json)")
    args = parser.parse_args(argv)
    if getattr(args, "seeds", None) is not None:
        if args.seeds < 1:
            parser.error("--seeds must be >= 1")
        args.seed_list = seeds_from_count(args.seeds, base=args.seed_base)
    if getattr(args, "procs", 1) < 1:
        usage_error(f"--procs must be >= 1, got {args.procs}")
    return args


def parse_list(option: str, text: str, item: Callable[[str], Any] = str,
               known: Collection = ()) -> tuple:
    """``item(part)`` for each part of a comma-separated option value.

    An empty list, a part ``item`` rejects with ``ValueError`` and a
    value outside a given ``known`` are usage errors naming ``option``.
    """
    try:
        values = tuple(item(part.strip()) for part in text.split(",")
                       if part.strip())
    except ValueError as exc:
        usage_error(f"{option}: {exc}")
    unknown = [str(value) for value in values if known and value not in known]
    if unknown:
        usage_error(f"{option}: unknown {', '.join(unknown)} "
                    f"(known: {', '.join(map(str, known))})")
    if not values:
        usage_error(f"{option} needs a comma-separated list, got {text!r}")
    return values


def checked(build: Callable, *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with its ``ValueError`` a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        usage_error(str(exc))


@dataclass
class Gate:
    """One gate run: the failures it found and how to report them."""

    name: str
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, failure: str) -> bool:
        """A per-run predicate: record ``failure`` unless ``ok``."""
        if not ok:
            self.failures.append(failure)
        return bool(ok)

    def require(self, where: str, metrics: Mapping[str, float],
                table: Mapping[str, str]) -> Dict[str, bool]:
        """Per-run predicates: each ``table`` metric must reach 1 in one
        run's ``metrics``, or the run records ``where: <failure text>``.
        Returns each metric's verdict."""
        return {metric: self.check(metrics.get(metric, 0) >= 1,
                                   f"{where}: {failure}")
                for metric, failure in table.items()}

    def invariance(self, axis: str, variants: Sequence, run: Callable,
                   cells: Optional[Callable] = None
                   ) -> Tuple[Dict[Any, Any], Dict[str, Any]]:
        """Run every variant of ``axis`` and require equal digests.

        ``run(variant)`` returns one run's metrics or, given ``cells``,
        anything ``cells`` maps to ``{cell: metrics}`` (a sweep, a seed
        list of sharded runs).  Returns every variant's ``run`` output
        and the BENCH ``digests`` section: per variant label a digest
        (or ``{cell: digest}``), plus ``identical``.
        """
        if len(set(variants)) < 2:
            usage_error(f"{self.name}: the {axis} axis needs two distinct "
                        f"variants to compare, got {tuple(variants)}")
        label, project = AXES[axis]
        outputs = {variant: run(variant) for variant in variants}
        per_cell: Dict[str, Dict[str, str]] = {}
        for variant, output in outputs.items():
            runs = cells(output) if cells else {"": output}
            per_cell[label(variant)] = {
                cell: metrics_digest(project(metrics))
                for cell, metrics in runs.items()}
        for cell in sorted(set().union(*per_cell.values())):
            row = " ".join(f"{name}={digests.get(cell, 'missing')[:12]}"
                           for name, digests in per_cell.items())
            self.check(len({digests.get(cell)
                            for digests in per_cell.values()}) == 1,
                       f"{axis} digests differ"
                       f"{' at ' + cell if cell else ''}: {row}")
        section: Dict[str, Any] = {
            name: digests if cells else digests[""]
            for name, digests in per_cell.items()}
        first = next(iter(per_cell.values()))
        section["identical"] = all(digests == first
                                   for digests in per_cell.values())
        return outputs, section

    def sweep(self, spec: SweepSpec, procs: Sequence[int] = (1, 2),
              progress: Optional[Callable] = None
              ) -> Tuple[Dict[int, SweepResult], Dict[str, Any]]:
        """The ``procs`` axis over a harness sweep of ``spec``; the BENCH
        document is the last variant's sweep layout plus ``digests``."""
        def run(count: int) -> SweepResult:
            print(f"{self.name}: {spec.bench} sweep, {len(spec.seeds)} "
                  f"seed(s), procs={count}")
            return run_sweep(replace(spec, procs=count), progress=progress)
        results, digests = self.invariance("procs", procs, run,
                                           cells=sweep_cells)
        return results, {**sweep_to_dict(results[procs[-1]]),
                         "digests": digests}

    def sharded(self, layout: ScaleLayout, seeds: Sequence[int],
                procs: Sequence[int] = (1, 2, 4)
                ) -> Tuple[Dict[int, Dict[str, Any]], Dict[str, Any]]:
        """The ``procs`` axis over ``layout`` run once per seed."""
        def run(count: int) -> Dict[str, Any]:
            print(f"{self.name}: {len(seeds)} seed(s) x {layout.regions} "
                  f"regions, procs={count}")
            return {f"seed={seed}": run_sharded(replace(layout, seed=seed),
                                                procs=count)
                    for seed in seeds}
        return self.invariance("procs", procs, run, cells=dict)

    def finish(self, out: Optional[str], document: Mapping[str, object],
               summary: str) -> int:
        """Write ``BENCH_<name>.json``, report, and return the exit code."""
        path = write_bench_json(out or bench_json_path(self.name),
                                dict(document), bench=self.name)
        if self.failures:
            print(f"\n{self.name} gate FAILED:")
            for failure in self.failures:
                print(f"  - {failure}")
            print(f"wrote {path}")
            return 1
        print(f"\n{self.name} gate passed: {summary}; wrote {path}")
        return 0
