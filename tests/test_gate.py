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
import json
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, main
from repro.harness.gate import Gate, parse_gate_args
from repro.harness.results import metrics_digest

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
