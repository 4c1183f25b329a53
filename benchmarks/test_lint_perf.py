"""reprolint performance microbenchmark.

The lint gate runs on every CI push, so it must stay cheap: a full-repo
pass (parse + three AST passes over ~100 files) and the ``--deep``
whole-program pass each have to finish well inside a generous
wall-clock bound.  These tests only assert the budgets; the per-pass
deep-lint seconds are recorded in ``BENCH_lint.json`` by its one
writer, ``python -m repro lint src --deep --bench``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintEngine, load_baseline

from benchmarks.conftest import mean_seconds

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Generous ceiling for one full-repo lint, seconds.  Typical runs are
#: well under a second; the bound only exists to catch an accidentally
#: quadratic pass before it ships.
FULL_LINT_BUDGET_SECONDS = 20.0

#: Ceiling for the --deep whole-program pass (call graph + dataflow
#: fixpoint over every function).  The PR 5 acceptance bound.
DEEP_LINT_BUDGET_SECONDS = 30.0


def test_full_repo_lint_under_budget(benchmark):
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")

    def run():
        engine = LintEngine(baseline=baseline)
        return engine.lint_paths([SRC_ROOT])

    report = benchmark(run)
    assert report.new_findings == []
    assert report.files_scanned > 80

    mean = mean_seconds(benchmark, run)
    assert mean < FULL_LINT_BUDGET_SECONDS, (
        f"full-repo lint took {mean:.2f}s, budget "
        f"{FULL_LINT_BUDGET_SECONDS}s")


def test_deep_lint_under_budget(benchmark):
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")

    def run():
        engine = LintEngine(baseline=baseline, deep=True)
        return engine.lint_paths([SRC_ROOT])

    report = benchmark(run)
    assert report.new_findings == []
    assert set(report.deep_timings) >= {"project-index", "detflow",
                                        "races", "conservation", "fsm",
                                        "units", "shard-isolation",
                                        "fidelity-parity"}

    mean = mean_seconds(benchmark, run)
    assert mean < DEEP_LINT_BUDGET_SECONDS, (
        f"deep lint took {mean:.2f}s, budget "
        f"{DEEP_LINT_BUDGET_SECONDS}s")
