"""Tests for the reprolint static-analysis framework.

Each rule gets positive (must flag) and negative (must stay silent)
snippets; then the framework features — inline suppression, baseline
subtraction, JSON round trip — and finally the gate itself: the repo's
own ``src/`` tree must lint clean, and a seeded violation must fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintEngine,
    load_baseline,
    rule_table,
    write_baseline,
)
from repro.analysis.baseline import BaselineError
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"


def rules_hit(source: str) -> list:
    """Rule ids reprolint reports for an in-memory snippet."""
    report = LintEngine().lint_source(source)
    return [finding.rule for finding in report.new_findings]


# ----------------------------------------------------------------------
# determinism pass
# ----------------------------------------------------------------------

def test_det001_flags_global_rng_calls():
    assert "DET001" in rules_hit(
        "import random\nx = random.random()\n")
    assert "DET001" in rules_hit(
        "import random\nrandom.seed(7)\n")
    assert "DET001" in rules_hit(  # aliased import still resolves
        "import random as rnd\nx = rnd.randint(1, 6)\n")
    assert "DET001" in rules_hit(  # from-import of a global-RNG function
        "from random import shuffle\n")


def test_det001_allows_private_random_instances():
    assert rules_hit(
        "import random\nrng = random.Random(42)\nx = rng.random()\n") == []
    assert rules_hit(  # rng parameter pattern used across workload/
        "def draw(rng):\n    return rng.expovariate(2.0)\n") == []
    assert rules_hit("from random import Random\n") == []


def test_det002_flags_wall_clock_and_entropy():
    assert "DET002" in rules_hit("import time\nt = time.time()\n")
    assert "DET002" in rules_hit(
        "from datetime import datetime\nnow = datetime.now()\n")
    assert "DET002" in rules_hit("import uuid\nu = uuid.uuid4()\n")
    assert "DET002" in rules_hit("import os\nb = os.urandom(8)\n")
    assert "DET002" in rules_hit(
        "import secrets\nt = secrets.token_hex()\n")


def test_det002_allows_perf_counter_and_unrelated_time_attrs():
    # Wall-duration diagnostics are excluded from reproducibility
    # comparisons by the results schema; perf_counter is sanctioned.
    assert rules_hit("import time\nt = time.perf_counter()\n") == []
    # An object that happens to have a .time() method is not the clock.
    assert rules_hit("t = sim.clock.time()\n") == []


def test_det003_flags_set_iteration():
    assert "DET003" in rules_hit("for x in {1, 2, 3}:\n    pass\n")
    assert "DET003" in rules_hit("out = list(set(items))\n")
    assert "DET003" in rules_hit(
        "keys = set(a) | set(b)\nd = {k: a[k] for k in keys}\n")
    assert "DET003" in rules_hit("text = ','.join(set(names))\n")


def test_det003_allows_sorted_sets_and_dict_iteration():
    assert rules_hit("for x in sorted(set(items)):\n    pass\n") == []
    assert rules_hit("for k, v in mapping.items():\n    pass\n") == []
    assert rules_hit(  # membership tests don't consume order
        "allowed = set(names)\nok = probe in allowed\n") == []


# ----------------------------------------------------------------------
# sim-safety pass
# ----------------------------------------------------------------------

def test_sim001_flags_blocking_calls():
    assert "SIM001" in rules_hit("import time\ntime.sleep(1)\n")
    assert "SIM001" in rules_hit(
        "import socket\ns = socket.socket()\n")
    assert "SIM001" in rules_hit(
        "import subprocess\nsubprocess.run(['ls'])\n")
    assert "SIM001" in rules_hit("fh = open('x.bin', 'rb')\n")


def test_sim001_allows_simulated_io():
    # The simulated socket API lives in repro.inet.sockets; calls on
    # those objects (or anything that isn't the stdlib module) pass.
    assert rules_hit(
        "from repro.inet.sockets import TcpSocket\n"
        "s = TcpSocket.connect(stack, '44.0.0.1', 23)\n") == []
    assert rules_hit("record = path.read_text()\n") == []


def test_sim002_flags_raw_counter_mutation():
    assert "SIM002" in rules_hit("self.counters['ip_received'] += 1\n")
    assert "SIM002" in rules_hit("stack.counters['x'] = 5\n")
    assert "SIM002" in rules_hit("stack.counters.update({'x': 1})\n")


def test_sim002_allows_counterset_usage():
    assert rules_hit("self.counters.bump('ip_received')\n") == []
    assert rules_hit("n = stack.counters['ip_received']\n") == []
    assert rules_hit("snapshot = stack.counters.snapshot()\n") == []


# ----------------------------------------------------------------------
# protocol-invariant pass
# ----------------------------------------------------------------------

def test_proto001_flags_divergent_constants():
    hits = rules_hit("FEND = 0xC1\n")
    assert hits == ["PROTO001"]
    assert "PROTO001" in rules_hit("PID_NETROM = 0xCE\n")
    # Aliases from sibling protocols are held to the shared value.
    assert "PROTO001" in rules_hit("SLIP_END = 0xC1\n")
    assert "PROTO001" in rules_hit("SSID_MASK = 0x1F\n")


def test_proto001_allows_correct_and_unrelated_constants():
    assert rules_hit("FEND = 0xC0\n") == []
    assert rules_hit("SLIP_END = 0xC0\n") == []
    # Tunables with generic names are not wire-format law (TCP has its
    # own DEFAULT_WINDOW, unrelated to LAPB's k parameter).
    assert rules_hit("DEFAULT_WINDOW = 4096\n") == []
    assert rules_hit("MY_LIMIT = 0x7F\n") == []


def test_proto002_flags_hex_rehardcodes_only():
    assert "PROTO002" in rules_hit("if byte == 0xC0:\n    pass\n")
    assert "PROTO002" in rules_hit("frame = bytes((0xDB, 0xDC))\n")
    # The same values written in decimal mean something else (FTP's
    # reply 220, classful-address threshold 192) and must pass.
    assert rules_hit("reply(220, 'service ready')\n") == []
    assert rules_hit("if top < 192:\n    pass\n") == []


# ----------------------------------------------------------------------
# fault-handling pass
# ----------------------------------------------------------------------

def test_fault001_flags_bare_except():
    assert "FAULT001" in rules_hit(
        "try:\n    work()\nexcept:\n    recover()\n")
    assert "FAULT001" in rules_hit(
        "try:\n    work()\nexcept BaseException:\n    log()\n")


def test_fault001_flags_swallowed_broad_handlers():
    assert "FAULT001" in rules_hit(
        "try:\n    work()\nexcept Exception:\n    pass\n")
    assert "FAULT001" in rules_hit(
        "try:\n    work()\nexcept Exception:\n    ...\n")
    assert "FAULT001" in rules_hit(  # qualified name still resolves
        "try:\n    work()\nexcept builtins.Exception:\n    pass\n")


def test_fault001_allows_specific_and_handled_exceptions():
    assert rules_hit(
        "try:\n    work()\nexcept ValueError:\n    pass\n") == []
    assert rules_hit(  # broad catch that actually handles is fine
        "try:\n    work()\nexcept Exception:\n    count += 1\n") == []
    assert rules_hit(
        "try:\n    work()\nexcept Exception:\n    return None\n") == []


# ----------------------------------------------------------------------
# observability pass
# ----------------------------------------------------------------------

def test_obs001_flags_bare_print():
    assert "OBS001" in rules_hit("print('queued frame')\n")
    assert "OBS001" in rules_hit(
        "def _transmit(self):\n    print(self.backlog)\n")


def test_obs001_allows_tracer_and_shadowed_print():
    assert rules_hit("self.tracer.log('driver.tx', 'NT7GW', 'keyed')\n") == []
    # A method named print on some object is not stdout.
    assert rules_hit("report.print(summary)\n") == []


def test_obs001_allowlists_cli_and_tools(tmp_path):
    engine = LintEngine()
    noisy = "print('hello')\n"
    for relative in ("repro/tools/netstat.py", "repro/__main__.py"):
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(noisy)
    simulated = tmp_path / "repro/tnc/kiss_tnc.py"
    simulated.parent.mkdir(parents=True, exist_ok=True)
    simulated.write_text(noisy)
    report = engine.lint_paths([tmp_path])
    assert [f.rule for f in report.new_findings] == ["OBS001"]
    assert report.new_findings[0].file.endswith("kiss_tnc.py")
    assert report.allowlisted == 2


def _lint_at(tmp_path, relative, source):
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return LintEngine().lint_paths([tmp_path])


def test_obs002_flags_unknown_literal_reason(tmp_path):
    report = _lint_at(
        tmp_path, "repro/scale/gateway_link.py",
        "def relay(self, span, key):\n"
        "    self.recorder.drop_key(key, 'gateway', 'GW0', 'oops_lost')\n")
    assert [f.rule for f in report.new_findings] == ["OBS002"]
    assert "oops_lost" in report.new_findings[0].message


def test_obs002_flags_computed_reason(tmp_path):
    report = _lint_at(
        tmp_path, "repro/obs/merge.py",
        "def close(self, span, why):\n"
        "    self.recorder.shed_packet(span, 'ip', 'R1', reason=why)\n")
    assert [f.rule for f in report.new_findings] == ["OBS002"]
    assert "computed reason" in report.new_findings[0].message


def test_obs002_allows_vocabulary_and_forwarding(tmp_path):
    clean = (
        "def relay(self, span, key, reason):\n"
        "    self.recorder.drop(span, 'gateway', 'GW0', 'link_giveup')\n"
        "    self.recorder.drop_key(key, 'gateway', 'GW0', reason)\n"
        "    self.recorder.lost_key(key, 'serial', 'GW0',\n"
        "                           reason='serial_backlog')\n")
    report = _lint_at(tmp_path, "repro/scale/shard.py", clean)
    assert report.new_findings == []


def test_obs002_scope_is_scale_and_obs_only(tmp_path):
    # Same unknown literal in a layer outside the OBS002 scope: the
    # fast pass stays quiet (the --deep CONS001 pass covers it).
    report = _lint_at(
        tmp_path, "repro/tnc/kiss_tnc.py",
        "def toss(self, span):\n"
        "    self.recorder.drop(span, 'tnc', 'NT7GW', 'oops_lost')\n")
    assert report.new_findings == []


# ----------------------------------------------------------------------
# snapshot pass
# ----------------------------------------------------------------------

def test_snap001_flags_lambda_and_generator_on_self():
    assert "SNAP001" in rules_hit(
        "class Port:\n"
        "    def __init__(self):\n"
        "        self.on_frame = lambda frame: frame\n")
    assert "SNAP001" in rules_hit(
        "class Port:\n"
        "    def __init__(self, frames):\n"
        "        self.pending = (f for f in frames)\n")


def test_snap001_flags_os_handles_on_self():
    assert "SNAP001" in rules_hit(
        "class Log:\n"
        "    def __init__(self):\n"
        "        self.sink = open('trace.log', 'w')\n")
    assert "SNAP001" in rules_hit(  # from-import resolves to threading.Lock
        "from threading import Lock\n"
        "class Queue:\n"
        "    def __init__(self):\n"
        "        self.lock = Lock()\n")


def test_snap001_flags_lambda_scheduled_as_event():
    assert "SNAP001" in rules_hit(
        "class Hub:\n"
        "    def kick(self, sim):\n"
        "        sim.schedule(10, lambda: self.flush())\n")
    assert "SNAP001" in rules_hit(
        "class Hub:\n"
        "    def kick(self, sim):\n"
        "        sim.call_soon(lambda: self.flush(), label='flush')\n")


def test_snap001_quiet_on_snapshot_safe_idioms():
    # Bound methods rebind to the restored object: the safe idiom.
    assert rules_hit(
        "class Hub:\n"
        "    def kick(self, sim):\n"
        "        sim.schedule(10, self.flush, label='hub-flush')\n") == []
    # Storing a passed-in callable is the caller's problem, not this
    # assignment's; and the repo's own Event class is not threading's.
    assert rules_hit(
        "from repro.sim.engine import Event\n"
        "class Hub:\n"
        "    def __init__(self, callback):\n"
        "        self.callback = callback\n"
        "        self.marker = Event(0, 0, None, (), {})\n") == []
    # sorted(key=lambda) is not a scheduler call.
    assert rules_hit(
        "def order(frames):\n"
        "    return sorted(frames, key=lambda f: f.seq)\n") == []


def test_snap001_allowlists_harness_and_cli(tmp_path):
    noisy = ("class Worker:\n"
             "    def __init__(self):\n"
             "        self.progress = lambda record: None\n")
    report = _lint_at(tmp_path, "repro/harness/pool.py", noisy)
    assert report.new_findings == []
    assert report.allowlisted == 1
    report = _lint_at(tmp_path, "repro/radio/switchboard.py", noisy)
    assert [f.rule for f in report.new_findings] == ["SNAP001"]


# ----------------------------------------------------------------------
# framework: suppressions, baseline, JSON
# ----------------------------------------------------------------------

def test_inline_suppression_silences_named_rule():
    source = ("import time\n"
              "t = time.time()  # reprolint: disable=DET002 -- wall\n")
    report = LintEngine().lint_source(source)
    assert report.new_findings == []
    assert report.suppressed == 1


def test_inline_suppression_is_rule_specific():
    source = ("import time\n"
              "t = time.time()  # reprolint: disable=DET001\n")
    assert [f.rule for f in
            LintEngine().lint_source(source).new_findings] == ["DET002"]


def test_inline_suppression_all_and_multiple_rules():
    assert LintEngine().lint_source(
        "import time\n"
        "t = time.time()  # reprolint: disable=all\n").new_findings == []
    assert LintEngine().lint_source(
        "import time\n"
        "time.sleep(time.time())  "
        "# reprolint: disable=DET002,SIM001\n").new_findings == []


def test_parse_suppressions_table():
    table = parse_suppressions([
        "x = 1",
        "y = 2  # reprolint: disable=DET001, sim002 -- justification",
    ])
    assert table == {2: {"DET001", "SIM002"}}


def test_baseline_round_trip(tmp_path):
    finding = Finding(file="pkg/mod.py", line=3, col=0, rule="DET002",
                      severity="error", message="time.time() ...")
    path = tmp_path / "baseline.json"
    write_baseline(path, [finding])
    assert load_baseline(path) == {finding.fingerprint()}
    # fingerprints survive the finding moving to another line
    moved = Finding(file="pkg/mod.py", line=99, col=4, rule="DET002",
                    severity="error", message="time.time() ...")
    assert moved.fingerprint() == finding.fingerprint()


def test_baseline_subtracts_old_findings(tmp_path):
    source = "import time\nt = time.time()\n"
    dirty = tmp_path / "dirty.py"
    dirty.write_text(source)
    first = LintEngine().lint_paths([dirty])
    assert [f.rule for f in first.new_findings] == ["DET002"]

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.new_findings)
    second = LintEngine(
        baseline=load_baseline(baseline_path)).lint_paths([dirty])
    assert second.new_findings == []
    assert [f.rule for f in second.baselined] == ["DET002"]
    assert second.exit_code == 0


def test_missing_baseline_is_empty_and_bad_baseline_raises(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(BaselineError):
        load_baseline(broken)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": 99, "findings": []}))
    with pytest.raises(BaselineError):
        load_baseline(wrong)


def test_finding_json_schema_round_trip():
    finding = Finding(file="a.py", line=10, col=4, rule="SIM001",
                      severity="error", message="time.sleep() blocks")
    clone = Finding.from_dict(json.loads(json.dumps(finding.to_dict())))
    assert clone == finding
    assert finding.to_dict()["fingerprint"] == finding.fingerprint()


def test_report_json_shape(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    report = LintEngine().lint_paths([dirty])
    document = json.loads(report.render_json())
    assert document["schema"] == 1
    assert document["summary"]["new"] == 1
    assert document["summary"]["files_scanned"] == 1
    entry = document["findings"][0]
    assert entry["rule"] == "DET002"
    assert Finding.from_dict(entry) == report.new_findings[0]


def test_rule_table_covers_all_four_passes():
    table = rule_table()
    assert {"DET001", "DET002", "DET003",
            "SIM001", "SIM002",
            "PROTO001", "PROTO002",
            "FAULT001", "SNAP001"} <= set(table)
    for rule in table.values():
        assert rule.severity in ("error", "warning")
        assert rule.summary


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    report = LintEngine().lint_paths([bad])
    assert report.parse_errors and report.exit_code == 1


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------

def test_repo_src_lints_clean():
    """The checked-in tree must be free of new findings."""
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    report = LintEngine(baseline=baseline).lint_paths([SRC_ROOT])
    rendered = "\n".join(f.render() for f in report.new_findings)
    assert report.new_findings == [], f"lint regressions:\n{rendered}"
    assert report.files_scanned > 80


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_main([str(dirty)]) == 1
    assert lint_main([str(tmp_path / "nowhere")]) == 2
    capsys.readouterr()


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(dirty), "--baseline", str(baseline),
                      "--write-baseline"]) == 0
    assert lint_main([str(dirty), "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "PROTO002" in out


def test_module_entry_point_gates_seeded_violation(tmp_path):
    """``python -m repro lint`` fails on a stray time.time()."""
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import time\nSTAMP = time.time()\n")
    env_src = str(SRC_ROOT)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(scratch),
         "--format", "json"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 1, completed.stderr
    document = json.loads(completed.stdout)
    assert document["summary"]["new"] == 1
    assert document["findings"][0]["rule"] == "DET002"


# ----------------------------------------------------------------------
# PR 5 deep passes: whole-program fixtures
# ----------------------------------------------------------------------

from repro.analysis.callgraph import CallGraph, ProjectInfo, module_dotted_name  # noqa: E402
from repro.analysis.registry import ModuleInfo  # noqa: E402
from tests.conftest import deep_findings  # noqa: E402


def _deep_rules(tmp_path, files):
    return [finding.rule for finding in deep_findings(tmp_path, files)]


# ---------------------------------------------------------------- DETFLOW001

def test_detflow001_flags_rng_into_sim_state(tmp_path):
    rules = _deep_rules(tmp_path, {"model.py": (
        "import random\n"
        "class Model:\n"
        "    def jitter(self):\n"
        "        self.delay = random.random()\n")})
    assert "DETFLOW001" in rules


def test_detflow001_follows_taint_through_helper_return(tmp_path):
    # The laundering case DET002 cannot see: perf_counter is exempt
    # per-file, but its value must not steer the model.
    rules = _deep_rules(tmp_path, {
        "clockutil.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"),
        "model.py": (
            "from pkg.clockutil import stamp\n"
            "class Model:\n"
            "    def mark(self):\n"
            "        self.when = stamp()\n"),
    })
    assert "DETFLOW001" in rules


def test_detflow001_allows_seeded_streams(tmp_path):
    rules = _deep_rules(tmp_path, {"model.py": (
        "class Model:\n"
        "    def jitter(self, rng):\n"
        "        self.delay = rng.random()\n")})
    assert "DETFLOW001" not in rules


def test_detflow001_allows_diagnostic_perf_counter(tmp_path):
    # Timing a computation without the value reaching model state.
    rules = _deep_rules(tmp_path, {"model.py": (
        "import time\n"
        "def timed(fn):\n"
        "    started = time.perf_counter()\n"
        "    fn()\n"
        "    return time.perf_counter() - started\n")})
    assert "DETFLOW001" not in rules


#: Self-recursive helpers that pass a parameter to themselves: each
#: fixpoint sweep adds one ``callee ->`` hop to their reach text, so
#: summaries must compare on facts for the fixpoint to settle.
_RECURSIVE_STORE = (
    "import time\n"
    "class Model:\n"
    "    def store(self, path, value):\n"
    "        if path:\n"
    "            self.store(path[1:], value)\n"
    "        self.table = value\n"
    "    def tick(self):\n"
    "        self.store('ab', time.time())\n")
_RECURSIVE_WAIT = (
    "class Timer:\n"
    "    def wait(self, n, delay):\n"
    "        if n:\n"
    "            self.wait(n - 1, delay)\n"
    "        self.sim.schedule(delay, self.tick)\n"
    "    def tick(self):\n"
    "        pass\n"
    "    def start(self, timeout_seconds):\n"
    "        self.wait(3, timeout_seconds)\n")


def test_detflow001_names_a_recursive_helper_once(tmp_path):
    findings = [f for f in deep_findings(tmp_path,
                                         {"model.py": _RECURSIVE_STORE})
                if f.rule == "DETFLOW001"]
    assert len(findings) == 1
    message = findings[0].message
    assert "reaches pkg.model.Model.store -> self.table (call-arg)" in message
    assert message.count("Model.store") == 1


def test_fixpoint_settles_on_recursive_helpers(tmp_path):
    from repro.analysis.absint import UnitEngine
    from repro.analysis.dataflow import TaintEngine
    from repro.analysis.passes.detflow import _taint_sources

    (tmp_path / "model.py").write_text(_RECURSIVE_STORE)
    (tmp_path / "timer.py").write_text(_RECURSIVE_WAIT)
    modules = [ModuleInfo.parse(path, path.name)
               for path in sorted(tmp_path.glob("*.py"))]
    project = ProjectInfo.build(modules)
    graph = CallGraph(project)
    taint = TaintEngine(project, graph, sources=_taint_sources())
    units = UnitEngine(project, graph)
    for engine in (taint, units):
        engine.run()
        settled = {qual: dict(vars(summary))
                   for qual, summary in engine.summaries.items()}
        engine.run()  # one more sweep, compared field by field
        assert {qual: dict(vars(summary))
                for qual, summary in engine.summaries.items()} == settled
    assert set(taint.summaries["model.Model.store"].params_to_state) == {1}
    assert set(units.summaries["timer.Timer.wait"].params_to_sink) == {1}


# ---------------------------------------------------------------- DETFLOW002

def test_detflow002_flags_unsorted_view_reaching_wire(tmp_path):
    rules = _deep_rules(tmp_path, {"table.py": (
        "class Table:\n"
        "    def advertise(self):\n"
        "        out = []\n"
        "        for route in self.routes.values():\n"
        "            out.append(route.pack())\n"
        "        self.port.send_frame(b''.join(out))\n")})
    assert "DETFLOW002" in rules


def test_detflow002_flags_comprehension_returned_to_encoder(tmp_path):
    rules = _deep_rules(tmp_path, {"table.py": (
        "class Table:\n"
        "    def entries(self):\n"
        "        rows = [route for route in self.routes.values()]\n"
        "        return rows\n"
        "    def advertise(self):\n"
        "        self.port.send_frame(bytes(self.entries()))\n")})
    assert "DETFLOW002" in rules


def test_detflow002_allows_sorted_iteration_and_searches(tmp_path):
    rules = _deep_rules(tmp_path, {"table.py": (
        "class Table:\n"
        "    def advertise(self):\n"
        "        out = []\n"
        "        for route in sorted(self.routes.values(), key=str):\n"
        "            out.append(route.pack())\n"
        "        self.port.send_frame(b''.join(out))\n"
        "    def find(self, key):\n"
        "        for route in self.routes.values():\n"
        "            if route.key == key:\n"
        "                return route\n"
        "        return None\n")})
    assert "DETFLOW002" not in rules


# ------------------------------------------------------------------ RACE001

_RACE_POSITIVE = (
    "class Node:\n"
    "    def start(self):\n"
    "        self.sim.schedule(10, self._drain)\n"
    "        self.sim.schedule(10, self._reset)\n"
    "    def _drain(self):\n"
    "        self.backlog -= 1\n"
    "    def _reset(self):\n"
    "        self.backlog = 0\n")


def test_race001_flags_same_delay_conflicting_callbacks(tmp_path):
    assert "RACE001" in _deep_rules(tmp_path, {"node.py": _RACE_POSITIVE})


def test_race001_allows_distinct_delays_and_disjoint_state(tmp_path):
    rules = _deep_rules(tmp_path, {"node.py": (
        "class Node:\n"
        "    def start(self):\n"
        "        self.sim.schedule(10, self._drain)\n"
        "        self.sim.schedule(20, self._reset)\n"   # different instant
        "        self.sim.schedule(10, self._count)\n"   # disjoint attrs
        "    def _drain(self):\n"
        "        self.backlog -= 1\n"
        "    def _reset(self):\n"
        "        self.backlog = 0\n"
        "    def _count(self):\n"
        "        self.ticks += 1\n")})
    assert "RACE001" not in rules


def test_race001_follows_conflicts_through_helpers(tmp_path):
    rules = _deep_rules(tmp_path, {"node.py": (
        "class Node:\n"
        "    def start(self):\n"
        "        self.sim.schedule(10, self._drain)\n"
        "        self.sim.schedule(10, self._reset)\n"
        "    def _drain(self):\n"
        "        self._shrink()\n"
        "    def _shrink(self):\n"
        "        self.backlog -= 1\n"
        "    def _reset(self):\n"
        "        self.backlog = 0\n")})
    assert "RACE001" in rules


# ------------------------------------------------------------------ CONS001

def test_cons001_flags_invented_reason_word(tmp_path):
    findings = deep_findings(tmp_path, {"layer.py": (
        "class Layer:\n"
        "    def toss(self, recorder, key):\n"
        "        recorder.drop_key(key, 'ip.rx', 'gw', 'gremlins_ate_it')\n")})
    assert any(f.rule == "CONS001" and "gremlins_ate_it" in f.message
               for f in findings)


def test_cons001_allows_vocabulary_reasons(tmp_path):
    rules = _deep_rules(tmp_path, {"layer.py": (
        "class Layer:\n"
        "    def toss(self, recorder, key):\n"
        "        recorder.drop_key(key, 'ip.rx', 'gw', 'no_route')\n")})
    assert "CONS001" not in rules


def test_cons001_flags_unpaired_drop_counter(tmp_path):
    # Pairing obligation only binds the four drop-owning modules, so the
    # fixture lives at a matching path suffix.
    rules = _deep_rules(tmp_path, {"netif/queues.py": (
        "class Queue:\n"
        "    def push(self, frame):\n"
        "        self.drops += 1\n")})
    assert "CONS001" in rules


def test_cons001_allows_paired_drop_counter(tmp_path):
    rules = _deep_rules(tmp_path, {"netif/queues.py": (
        "class Queue:\n"
        "    def push(self, frame):\n"
        "        self.drops += 1\n"
        "        self.tracer.log('ifq.drop', self.name, 'queue full')\n")})
    assert "CONS001" not in rules


def test_cons001_pairing_not_required_outside_target_modules(tmp_path):
    rules = _deep_rules(tmp_path, {"elsewhere.py": (
        "class Widget:\n"
        "    def push(self, frame):\n"
        "        self.drops += 1\n")})
    assert "CONS001" not in rules


def test_cons001_flags_undeclared_netstack_counter(tmp_path):
    rules = _deep_rules(tmp_path, {"inet/netstack.py": (
        "def CounterSet(names):\n"
        "    return dict.fromkeys(names, 0)\n"
        "class Stack:\n"
        "    def __init__(self):\n"
        "        self.counters = CounterSet(('ip_bad',))\n"
        "    def input(self):\n"
        "        self.counters.bump('ip_badd')\n"   # typo'd row
        "        self.tracer.log('ip.drop', 'h', 'bad header')\n")})
    assert "CONS001" in rules


# ------------------------------------------------------------------- FSM001

_FSM_PREAMBLE = (
    "import enum\n"
    "class LinkState(enum.Enum):\n"
    "    UP = 1\n"
    "    DOWN = 2\n"
    "    GHOST = 3\n")


def test_fsm001_flags_dead_unreachable_and_unhandled_states(tmp_path):
    findings = deep_findings(tmp_path, {"link.py": (
        _FSM_PREAMBLE +
        "class Link:\n"
        "    def __init__(self):\n"
        "        self.state = LinkState.UP\n"       # UP entered
        "    def poll(self):\n"
        "        if self.state is LinkState.DOWN:\n"  # DOWN compared only
        "            pass\n")})
    messages = [f.message for f in findings if f.rule == "FSM001"]
    assert any("dead state" in m and "GHOST" in m for m in messages)
    assert any("unreachable state" in m and "DOWN" in m for m in messages)
    assert any("unhandled state" in m and "UP" in m for m in messages)


def test_fsm001_quiet_on_fully_covered_machine(tmp_path):
    rules = _deep_rules(tmp_path, {"link.py": (
        _FSM_PREAMBLE +
        "class Link:\n"
        "    def __init__(self):\n"
        "        self.state = LinkState.UP\n"
        "    def fail(self):\n"
        "        self.state = LinkState.DOWN\n"
        "    def haunt(self):\n"
        "        self.state = LinkState.GHOST\n"
        "    def poll(self):\n"
        "        if self.state is LinkState.UP:\n"
        "            return 1\n"
        "        if self.state is LinkState.DOWN:\n"
        "            return 0\n"
        "        if self.state is LinkState.GHOST:\n"
        "            return -1\n")})
    assert "FSM001" not in rules


def test_fsm001_dict_dispatch_counts_as_handling(tmp_path):
    # ``{state: handler}[self.state]`` is dispatch, not a transition:
    # every key here must register as *compared* so a fully-covered
    # table-driven machine lints clean.
    rules = _deep_rules(tmp_path, {"link.py": (
        _FSM_PREAMBLE +
        "class Link:\n"
        "    def __init__(self):\n"
        "        self.state = LinkState.UP\n"
        "    def fail(self):\n"
        "        self.state = LinkState.DOWN\n"
        "    def haunt(self):\n"
        "        self.state = LinkState.GHOST\n"
        "    def poll(self):\n"
        "        handlers = {\n"
        "            LinkState.UP: self._up,\n"
        "            LinkState.DOWN: self._down,\n"
        "            LinkState.GHOST: self._spook,\n"
        "        }\n"
        "        return handlers[self.state]()\n")})
    assert "FSM001" not in rules


def test_fsm001_dict_dispatch_values_still_enter_states(tmp_path):
    # A transition table's *values* are entries, not dispatch: a state
    # that only ever appears as a dict value must still be flagged as
    # unhandled (no branch or key ever tests for it).
    findings = deep_findings(tmp_path, {"link.py": (
        _FSM_PREAMBLE +
        "class Link:\n"
        "    def __init__(self):\n"
        "        self.state = LinkState.UP\n"
        "    def step(self):\n"
        "        table = {\n"
        "            LinkState.UP: LinkState.DOWN,\n"
        "            LinkState.GHOST: LinkState.DOWN,\n"
        "        }\n"
        "        self.state = table[self.state]\n"
        "    def haunt(self):\n"
        "        self.state = LinkState.GHOST\n")})
    messages = [f.message for f in findings if f.rule == "FSM001"]
    assert any("unhandled state" in m and "DOWN" in m for m in messages)
    assert not any("GHOST" in m for m in messages)


def test_fsm001_skips_machines_referenced_opaquely(tmp_path):
    # A bare reference to the class (iteration, serialization) means the
    # pass cannot prove anything member-wise; it must stay silent.
    rules = _deep_rules(tmp_path, {"link.py": (
        _FSM_PREAMBLE +
        "def dump():\n"
        "    return [member.name for member in LinkState]\n")})
    assert "FSM001" not in rules


# ------------------------------------------------- the call graph itself

def _synthetic_project(tmp_path):
    pkg = tmp_path / "cgpkg"
    pkg.mkdir()
    (pkg / "__init__.py").touch()
    (pkg / "a.py").write_text(
        "from cgpkg.b import helper\n"
        "def top():\n"
        "    return helper()\n")
    (pkg / "b.py").write_text(
        "import cgpkg.c\n"
        "def helper():\n"
        "    return cgpkg.c.leaf()\n")
    (pkg / "c.py").write_text(
        "def leaf():\n"
        "    return 1\n"
        "def make():\n"
        "    return Thing()\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return 2\n")
    modules = [ModuleInfo.parse(path, path.name)
               for path in sorted(pkg.glob("*.py"))]
    project = ProjectInfo.build(modules)
    return project, CallGraph(project)


def test_module_dotted_name_walks_init_chain(tmp_path):
    pkg = tmp_path / "cgpkg"
    sub = pkg / "sub"
    sub.mkdir(parents=True)
    (pkg / "__init__.py").touch()
    (sub / "__init__.py").touch()
    (sub / "mod.py").touch()
    assert module_dotted_name(sub / "mod.py") == "cgpkg.sub.mod"
    assert module_dotted_name(sub / "__init__.py") == "cgpkg.sub"


def test_callgraph_resolves_imports_methods_and_constructors(tmp_path):
    project, graph = _synthetic_project(tmp_path)
    assert "cgpkg.b.helper" in graph.callees("cgpkg.a.top")
    assert "cgpkg.c.leaf" in graph.callees("cgpkg.b.helper")
    assert "cgpkg.c.Thing.step" in graph.callees("cgpkg.c.Thing.run")
    assert "cgpkg.c.Thing.__init__" in graph.callees("cgpkg.c.make")
    assert "cgpkg.b.helper" in graph.callers_of("cgpkg.c.leaf")


def test_projectinfo_symbol_tables(tmp_path):
    project, _ = _synthetic_project(tmp_path)
    assert set(project.modules) >= {"cgpkg.a", "cgpkg.b", "cgpkg.c"}
    assert "cgpkg.c.Thing" in project.classes
    assert "cgpkg.a.top" in project.functions
    assert project.functions["cgpkg.c.Thing.run"].cls == "Thing"


# ------------------------------------------------- the deep gate itself

def test_repo_src_deep_lints_clean(src_deep_report):
    report = src_deep_report
    deep_rules = {"DETFLOW001", "DETFLOW002", "RACE001", "CONS001",
                  "FSM001", "UNIT001", "UNIT002", "SHARD001", "SHARD002",
                  "FID001"}
    offenders = [f for f in report.new_findings if f.rule in deep_rules]
    assert offenders == [], [f.render() for f in offenders]
    assert set(report.deep_timings) >= {"project-index", "detflow",
                                        "races", "conservation", "fsm",
                                        "units", "shard-isolation",
                                        "fidelity-parity"}


def test_repo_baseline_is_empty_by_policy():
    """Every true positive gets fixed in-code, never grandfathered.

    The CI lint job asserts the same thing from the shell; this twin
    keeps the policy visible to anyone running only pytest.
    """
    document = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    assert document["findings"] == [], (
        "lint-baseline.json must stay empty: fix findings in code "
        "instead of baselining them")
