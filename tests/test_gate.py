"""Tests for the gate runner (repro.harness.gate) and the CLI gates.

Stub variants pin the runner's contract -- the invariance check, the
per-run predicates and the BENCH tail -- without simulating anything;
small in-process runs through ``main()`` check that each gate still
writes the BENCH layout the checked-in files carry, that ``sweep`` and
``report`` refuse what would write or ignore the wrong thing, and that
``list`` names every command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.check
import repro.harness.gate as gate_module
import repro.workload.scenario
from repro.__main__ import (
    CHAOS_REQUIRES,
    COMMANDS,
    OBS_REQUIRES,
    OBS_SHARDED_REQUIRES,
    SCALE_REQUIRES,
    TOURNAMENT_REQUIRES,
    main,
)
from repro.analysis.cli import LINT_REQUIRES
from repro.harness.gate import (
    Gate,
    checked,
    parse_gate_args,
    parse_list,
)
from repro.harness.results import metrics_digest
from repro.scale.regions import ScaleLayout

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the runner on stub variants
# ----------------------------------------------------------------------

def test_invariance_equal_digests_pass():
    gate = Gate("stub")
    outputs, section = gate.invariance(
        "procs", (1, 2), lambda procs: {"seed=1": {"pings": 3.0}},
        cells=dict)
    digest = metrics_digest({"pings": 3.0})
    assert gate.failures == []
    assert section == {"procs1": {"seed=1": digest},
                       "procs2": {"seed=1": digest}, "identical": True}
    assert set(outputs) == {1, 2}


def test_invariance_names_the_differing_cell_and_both_variants():
    gate = Gate("stub")
    _, section = gate.invariance(
        "procs", (1, 4), lambda procs: {"seed=1": {"pings": 3.0},
                                        "seed=2": {"pings": float(procs)}},
        cells=dict)
    assert section["identical"] is False
    (failure,) = gate.failures
    assert "seed=2" in failure and "seed=1" not in failure
    assert "procs1=" in failure and "procs4=" in failure


def test_fidelity_axis_compares_through_the_comparable_projection():
    gate = Gate("stub")
    _, section = gate.invariance(
        "fidelity", ("per_char", "frame"),
        lambda level: {"pings": 3.0,
                       "events_executed": 900.0 if level == "per_char"
                       else 40.0})
    assert gate.failures == []
    assert section["per_char"] == section["frame"]
    assert section["identical"] is True


def test_axis_needs_two_distinct_variants():
    ran = []
    with pytest.raises(SystemExit) as exit_info:
        Gate("stub").invariance("procs", (1, 1), ran.append)
    assert exit_info.value.code == 2
    assert ran == []


def test_failed_predicate_is_a_named_failure():
    gate = Gate("stub")
    assert gate.check(True, "never recorded")
    assert not gate.check(False, "seed=1: no packets born")
    assert gate.failures == ["seed=1: no packets born"]


def test_tail_writes_out_and_reports(tmp_path, capsys):
    gate = Gate("stub")
    gate.check(False, "seed=1: watchdog never recovered the TNC")
    out = tmp_path / "stub.json"
    assert gate.finish(str(out), {"digests": {}}, "all good") == 1
    printed = capsys.readouterr().out
    assert "stub gate FAILED:" in printed
    assert "  - seed=1: watchdog never recovered the TNC" in printed
    document = json.loads(out.read_text())
    assert document["bench"] == "stub" and document["schema"] == 1

    assert Gate("stub").finish(str(out), {}, "all good") == 0
    assert "stub gate passed: all good" in capsys.readouterr().out


def test_shared_options_parse_and_validate():
    args = parse_gate_args(argparse.ArgumentParser(),
                           ["--seeds", "2", "--seed-base", "5"], "stub")
    assert args.seed_list == (5, 6) and args.out is None
    with pytest.raises(SystemExit) as exit_info:
        parse_gate_args(argparse.ArgumentParser(), ["--seeds", "0"], "stub")
    assert exit_info.value.code == 2
    only_out = parse_gate_args(argparse.ArgumentParser(), [], "stub",
                               seeds=0)
    assert vars(only_out) == {"out": None}


def test_list_option_parses_and_rejects_in_one_line(capsys):
    assert parse_list("--worlds", " lapb2, ,hidden3 ",
                      known=("lapb2", "hidden3")) == ("lapb2", "hidden3")
    assert parse_list("--speeds", "1200,9600", item=int) == (1200, 9600)
    for text, item, known, named in (
            ("", str, (), "needs a comma-separated list"),
            (" , ", str, (), "needs a comma-separated list"),
            ("lapb2,nope", str, ("lapb2",), "unknown nope (known: lapb2)"),
            ("12x", int, (), "invalid literal")):
        with pytest.raises(SystemExit) as exit_info:
            parse_list("--opt", text, item=item, known=known)
        assert exit_info.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("--opt") and named in line


def test_procs_below_one_is_a_usage_error(capsys):
    def parse(argv):
        parser = argparse.ArgumentParser()
        parser.add_argument("--procs", type=int, default=2)
        return parse_gate_args(parser, argv, "stub")

    assert parse(["--procs", "1"]).procs == 1
    with pytest.raises(SystemExit) as exit_info:
        parse(["--procs", "0"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "--procs must be >= 1, got 0\n"


def test_checked_turns_a_value_error_into_a_usage_error(capsys):
    assert checked(int, "7") == 7
    with pytest.raises(SystemExit) as exit_info:
        checked(ScaleLayout, regions=0)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "regions must be in 1..200\n"


# The hand-written per-run checks the predicate tables replaced, as
# each gate wrote them (the chaos recovery bound stays a separate check).

def _old_chaos(gate, seed, metrics):
    where = f"seed={seed}"
    gate.check(metrics.get("watchdog_recoveries", 0) >= 1,
               f"{where}: watchdog never recovered the TNC")
    gate.check(metrics.get("post_fault_pings_ok", 0) >= 1,
               f"{where}: no post-recovery ping succeeded")


def _old_tournament(gate, seed, metrics, params):
    gate.check(metrics.get("obs_conservation_ok", 0) >= 1,
               f"seed={seed} {params}: "
               f"span conservation violated")


def _old_obs(gate, seed, metrics, params):
    where = f"seed={seed} {params}"
    gate.check(metrics.get("obs_conservation_ok", 0) >= 1,
               f"{where}: span conservation violated")
    gate.check(metrics.get("obs_born_total", 0) >= 1,
               f"{where}: no packets born (dead scenario)")


def _old_obs_shard(gate, seed, metrics):
    where = f"seed={seed}"
    born = metrics.get("total/obs_born_total", 0)
    gate.check(metrics.get("total/obs_sharded_conservation_ok", 0) >= 1,
               f"shard {where}: cross-shard span conservation violated")
    gate.check(born >= 1, f"shard {where}: no packets born")


def _old_scale(gate, seed, metrics):
    gate.check(metrics.get("total/pings_received", 0) >= 1,
               f"seed={seed}: no cross-region ping completed")


def _old_scale_headline(gate, metrics):
    gate.check(metrics.get("total/pings_received", 0) >= 1,
               "headline run: no cross-region ping completed")


def _old_lint(gate, seed, metrics):
    gate.check(metrics["obs_born_total"] >= 1,
               f"sanitize seed={seed}: no packets born (dead scenario)")


PARAMS = {"variant": "chaos"}
#: case -> (gate name, predicate table, where, the hand-written checks).
PREDICATE_CASES = {
    "chaos": ("chaos", CHAOS_REQUIRES, "seed=2",
              lambda gate, m: _old_chaos(gate, 2, m)),
    "tournament": ("tournament", TOURNAMENT_REQUIRES, f"seed=2 {PARAMS}",
                   lambda gate, m: _old_tournament(gate, 2, m, PARAMS)),
    "obs": ("obs", OBS_REQUIRES, f"seed=2 {PARAMS}",
            lambda gate, m: _old_obs(gate, 2, m, PARAMS)),
    "obs-shard": ("obs", OBS_SHARDED_REQUIRES, "shard seed=2",
                  lambda gate, m: _old_obs_shard(gate, 2, m)),
    "scale": ("scale", SCALE_REQUIRES, "seed=2",
              lambda gate, m: _old_scale(gate, 2, m)),
    "scale-headline": ("scale", SCALE_REQUIRES, "headline run",
                       _old_scale_headline),
    "lint": ("lint", LINT_REQUIRES, "sanitize seed=2",
             lambda gate, m: _old_lint(gate, 2, m)),
}


@pytest.mark.parametrize("case", sorted(PREDICATE_CASES))
def test_predicate_table_records_what_the_hand_written_checks_did(case):
    name, table, where, old = PREDICATE_CASES[case]
    metric_names = list(table)
    # Every metric at 0, below 1, at 1 and above it; all but the lint
    # bench, which indexed its metric, also with every metric missing.
    values = [0.0, 0.5, 1.0, 3.0] + ([None] if case != "lint" else [])
    for row in itertools.product(values, repeat=len(metric_names)):
        metrics = {metric: value for metric, value in zip(metric_names, row)
                   if value is not None}
        new_gate, old_gate = Gate(name), Gate(name)
        verdicts = new_gate.require(where, metrics, table)
        old(old_gate, metrics)
        assert new_gate.failures == old_gate.failures, row
        assert verdicts == {metric: value is not None and value >= 1
                            for metric, value in zip(metric_names, row)}


# ----------------------------------------------------------------------
# the CLI gates, in process
# ----------------------------------------------------------------------

def test_tournament_single_layout_is_a_usage_error(tmp_path):
    """``--procs 1`` used to compare the inline layout with itself.

    The other cases are values the gate cannot run: an empty
    ``--speeds`` used to fall back to the registry's default grid, a
    malformed one ended in a traceback, and ``--procs 0`` ran the whole
    inline sweep before failing.  Each must exit 2 before any sweep.
    """
    out = tmp_path / "BENCH_tournament.json"
    for speeds, procs in (("9600", "1"), ("", "2"), ("12x", "2"),
                          ("9600", "0")):
        with pytest.raises(SystemExit) as exit_info:
            main(["repro", "tournament", "--procs", procs, "--seeds", "1",
                  "--plans", "noise", "--speeds", speeds,
                  "--duration", "30", "--out", str(out)])
        assert exit_info.value.code == 2, (speeds, procs)
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mc", "--worlds", "", "--out", "BENCH_mc.json"],
    ["mc", "--worlds", ",", "--out", "BENCH_mc.json"],
    ["chaos", "--stations", "0", "--out", "BENCH_chaos.json"],
    ["chaos", "--duration", "0", "--out", "BENCH_chaos.json"],
    ["tournament", "--duration", "0", "--out", "BENCH_tournament.json"],
    ["tournament", "--plans", "wedge", "--duration", "0",
     "--out", "BENCH_tournament.json"],
    ["scale", "--stations", "0", "--out", "BENCH_scale.json"],
    ["scale", "--regions", "0", "--out", "BENCH_scale.json"],
    ["scale", "--flow", "-5", "--out", "BENCH_scale.json"],
    ["report", "--stations", "0"],
    ["lint", str(REPO_ROOT / "src"), "--deep", "--bench", "--stations", "0"],
], ids=("mc-worlds-empty", "mc-worlds-comma", "chaos-stations-0",
        "chaos-duration-0", "tournament-duration-0",
        "tournament-wedge-duration-0", "scale-stations-0",
        "scale-regions-0", "scale-flow-negative", "report-stations-0",
        "lint-bench-stations-0"))
def test_bad_value_exits_2_in_one_line_before_any_run(argv, tmp_path,
                                                      monkeypatch, capsys):
    """Each of these used to pass on nothing (``mc``) or end in a
    ``ValueError`` traceback from inside its first run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run started before the options were checked")

    for module, name in ((gate_module, "run_sweep"),
                         (gate_module, "run_sharded"),
                         (repro.check, "Explorer"),
                         (repro.workload.scenario, "build_scenario")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["repro", *argv])
    assert exit_info.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, argv", [
    ("chaos", ["chaos", "--seeds", "1", "--stations", "8",
               "--duration", "90"]),
    ("scale", ["scale", "--seeds", "1", "--flow", "50", "--duration", "20",
               "--headline-flow", "0"]),
    ("mc", ["mc", "--worlds", "hidden3", "--skip-por-ratio",
            "--skip-mutation-gate"]),
    ("tournament", ["tournament", "--seeds", "1", "--plans", "noise",
                    "--speeds", "9600", "--duration", "60"]),
    ("obs", ["report", "--bench", "--seeds", "1"]),
])
def test_gate_writes_the_checked_in_layout(name, argv, tmp_path, capsys):
    out = tmp_path / f"BENCH_{name}.json"
    assert main(["repro", *argv, "--out", str(out)]) == 0
    assert f"{name} gate passed" in capsys.readouterr().out
    written = json.loads(out.read_text())
    checked_in = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    assert set(written) == set(checked_in)
    if "digests" in written:
        assert written["digests"]["identical"] is True


def test_bench_diff_fails_only_on_a_compared_difference(tmp_path):
    """CI's comparison of a fresh BENCH file with the committed one:
    the named sections, or the whole file less the skipped per-preset
    keys."""
    committed = {"digests": {"procs1": "a"}, "overhead": 1.0,
                 "presets": [{"states": 5, "elapsed_s": 0.5}]}
    bench = tmp_path / "BENCH_x.json"
    bench.write_text(json.dumps(committed))
    for command in (["init", "-q"], ["add", bench.name],
                    ["commit", "-qm", "bench"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *command],
                       cwd=tmp_path, check=True)

    def diff(fresh, *args):
        bench.write_text(json.dumps({**committed, **fresh}))
        return subprocess.run(
            [sys.executable,
             str(REPO_ROOT / ".github" / "scripts" / "bench_diff.py"),
             bench.name, *args],
            cwd=tmp_path, capture_output=True).returncode

    assert diff({"overhead": 2.0}, "digests") == 0
    assert diff({"digests": {"procs1": "b"}}, "digests", "overhead") == 1
    skip = ("--skip-preset-key", "elapsed_s")
    assert diff({"presets": [{"states": 5, "elapsed_s": 0.7}]}, *skip) == 0
    assert diff({"presets": [{"states": 6, "elapsed_s": 0.5}]}, *skip) == 1


def test_sweep_leaves_gate_files_to_their_gates(tmp_path, monkeypatch,
                                                capsys):
    """A gate's BENCH file has one writer: ``sweep`` needs ``--out``."""
    monkeypatch.chdir(tmp_path)
    assert main(["repro", "sweep", "--bench", "chaos", "--seeds", "1"]) == 2
    assert "python -m repro chaos" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["--duration", "20", "--stations", "2"], "--out"),
    (["--bench", "--seeds", "1", "--stations", "2"], "--stations"),
], ids=("single-report", "bench"))
def test_report_rejects_options_its_mode_ignores(argv, named, tmp_path,
                                                 capsys):
    out = tmp_path / "BENCH_obs.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["repro", "report", *argv, "--out", str(out)])
    assert exit_info.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith(f"ignores {named}")
    assert not out.exists()


def test_list_shows_every_command_with_its_summary(capsys):
    assert main(["repro", "list"]) == 0
    listed = dict(line.split(None, 1)
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  "))
    assert set(listed) == set(COMMANDS)
    assert all(summary.strip() for summary in listed.values())
    assert main(["repro", "no-such-command"]) == 2
    assert "no-such-command" in capsys.readouterr().err


def test_lint_bench_reports_a_dead_scenario_not_a_disagreement(
        tmp_path, monkeypatch, capsys):
    """A run that births no packet is its own failure; the conservation
    row counts only failed sanitizer checks."""
    from repro.analysis.cli import _run_bench
    from repro.analysis.engine import LintReport

    monkeypatch.chdir(tmp_path)
    assert _run_bench(LintReport(), seeds=1, stations=4,
                      duration=20.0) == 1
    assert "no packets born (dead scenario)" in capsys.readouterr().out
    document = json.loads((tmp_path / "BENCH_lint.json").read_text())
    assert document["agreement"]["conservation"] == {
        "static_findings": 0, "dynamic_failures": 0, "agree": True}
    assert all(row["agree"] for row in document["agreement"].values())
    sanitize = [run for run in document["runs"]
                if run["params"]["case"] == "sanitize"]
    assert [run["metrics"]["obs_born_total"] for run in sanitize] == [0.0]
