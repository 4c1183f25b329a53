"""Units-of-measure lattice and UNIT001/UNIT002 abstract interpretation.

Three layers, mirroring the implementation:

* the lattice algebra itself (join/meet laws, arithmetic tables),
* the seeding tables, live-checked against the real ``Simulator`` /
  ``SerialLine`` / clock / instruments signatures the way PROTO001
  live-checks protocol constants — renaming an API without updating
  the seeds fails here, loudly,
* whole-program fixtures through the deep engine: direct unit mixing,
  wrong-sink flows, and the interprocedural ms-vs-s laundering case
  where only the combination of caller and helper is wrong.
"""

import itertools
import subprocess
import sys
from pathlib import Path

from repro.analysis import units
from repro.analysis.units import MIXED, UNKNOWN
from tests.conftest import deep_findings

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

_ELEMENTS = (UNKNOWN, MIXED) + units.DIMENSIONS


def _rules(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# lattice algebra
# ----------------------------------------------------------------------

def test_join_lattice_laws():
    for a, b, c in itertools.product(_ELEMENTS, repeat=3):
        assert units.join(a, b) == units.join(b, a)
        assert units.join(units.join(a, b), c) == \
            units.join(a, units.join(b, c))
    for a in _ELEMENTS:
        assert units.join(a, a) == a            # idempotent
        assert units.join(a, UNKNOWN) == a      # bottom is identity
        assert units.join(a, MIXED) == MIXED    # top absorbs


def test_meet_lattice_laws():
    for a, b, c in itertools.product(_ELEMENTS, repeat=3):
        assert units.meet(a, b) == units.meet(b, a)
        assert units.meet(units.meet(a, b), c) == \
            units.meet(a, units.meet(b, c))
    for a in _ELEMENTS:
        assert units.meet(a, a) == a
        assert units.meet(a, MIXED) == a        # top is identity
        assert units.meet(a, UNKNOWN) == UNKNOWN  # bottom absorbs


def test_join_meet_absorption():
    for a, b in itertools.product(_ELEMENTS, repeat=2):
        assert units.join(a, units.meet(a, b)) == a
        assert units.meet(a, units.join(a, b)) == a


def test_add_conflict_excludes_count_and_unknown():
    assert units.add_conflict("sim_us", "sim_seconds")
    assert units.add_conflict("bytes", "bits")
    assert not units.add_conflict("sim_us", "sim_us")
    assert not units.add_conflict("count", "sim_us")   # scaling/offset
    assert not units.add_conflict(UNKNOWN, "sim_us")


def test_arithmetic_tables_model_serial_line_math():
    # byte_time arithmetic: bytes * sim_us -> sim_us (both orders).
    assert units.mul_result("bytes", "sim_us") == "sim_us"
    assert units.mul_result("sim_us", "bytes") == "sim_us"
    # 8N1 framing: bits / baud -> seconds on the line.
    assert units.div_result("bits", "baud") == "sim_seconds"
    # A ratio of like quantities is a pure number.
    assert units.div_result("sim_us", "sim_us") == "count"
    # Unrepresentable products stay silent, not wrong.
    assert units.mul_result("baud", "bytes") == UNKNOWN
    assert units.div_result("bytes", "sim_us") == UNKNOWN


def test_name_seeding_conventions():
    assert units.unit_for_name("duration_seconds") == "sim_seconds"
    assert units.unit_for_name("link_latency") == "sim_us"
    assert units.unit_for_name("sent_at") == "sim_us"
    assert units.unit_for_name("baud") == "baud"
    assert units.unit_for_name("payload_bytes") == "bytes"
    assert units.unit_for_name("bits_per_char") == "bits"
    assert units.unit_for_name("retries") == UNKNOWN
    # The bare suffix itself is not a convention match.
    assert units.unit_for_name("_us") == UNKNOWN


def test_len_unit_distinguishes_buffers_from_collections():
    assert units.len_unit("data") == "bytes"
    assert units.len_unit("payload") == "bytes"
    assert units.len_unit("self.rtts_us") == "count"
    assert units.len_unit("stations") == "count"
    assert units.len_unit(None) == "count"


# ----------------------------------------------------------------------
# seeding tables vs the real APIs (PROTO001-style liveness)
# ----------------------------------------------------------------------

def test_seed_tables_match_live_signatures():
    """Every seeded API still exists with the assumed shape."""
    failures = units.live_seed_check()
    assert failures == {}, failures


def test_scheduler_sink_set_matches_dataflow():
    """The units sinks stay a subset of the taint scheduler set."""
    from repro.analysis.dataflow import SCHEDULER_METHODS
    assert units.SCHEDULER_SINKS <= SCHEDULER_METHODS
    # call_soon takes no delay argument, so it is *not* a units sink;
    # requeue takes no callback but does take a time.
    assert "call_soon" not in units.SCHEDULER_SINKS
    assert "requeue" in units.SCHEDULER_SINKS


# ----------------------------------------------------------------------
# UNIT001 fixtures
# ----------------------------------------------------------------------

def test_unit001_flags_seconds_plus_microseconds(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Region:\n"
        "    def deadline(self, start_us, duration_seconds):\n"
        "        return start_us + duration_seconds\n")})
    assert "UNIT001" in _rules(findings)
    hit = next(f for f in findings if f.rule == "UNIT001")
    assert "sim_us" in hit.message and "sim_seconds" in hit.message
    assert hit.provenance, "UNIT findings must carry a provenance chain"
    assert any("duration_seconds" in step for step in hit.provenance)


def test_unit001_flags_wall_clock_vs_sim_clock_compare(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "import time\n"
        "class Watch:\n"
        "    def late(self, deadline_us):\n"
        "        started_wall = time.monotonic()\n"
        "        return started_wall > deadline_us\n")})
    assert "UNIT001" in _rules(findings)


def test_unit001_silent_on_consistent_arithmetic(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Region:\n"
        "    def deadline(self, start_us, pause_us, count):\n"
        "        return start_us + pause_us * count + 1\n")})
    assert "UNIT001" not in _rules(findings)


def test_unit001_silent_on_dimensional_conversion(tmp_path):
    # bits / baud and bytes * byte_time are the sanctioned algebra.
    findings = deep_findings(tmp_path, {"model.py": (
        "class Line:\n"
        "    def airtime(self, payload_bytes, byte_time):\n"
        "        return payload_bytes * byte_time\n")})
    assert "UNIT001" not in _rules(findings)


# ----------------------------------------------------------------------
# UNIT002 fixtures
# ----------------------------------------------------------------------

def test_unit002_flags_seconds_into_scheduler(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Station:\n"
        "    def wait(self, duration_seconds):\n"
        "        self.sim.schedule(duration_seconds, self.poll)\n")})
    assert "UNIT002" in _rules(findings)


def test_unit002_flags_seconds_into_requeue(tmp_path):
    """A requeued event's time is a scheduler time like ``at``'s."""
    findings = deep_findings(tmp_path, {"model.py": (
        "class Station:\n"
        "    def retry(self, event, backoff_seconds):\n"
        "        self.sim.requeue(event, backoff_seconds)\n")})
    assert "UNIT002" in _rules(findings)


def test_unit002_flags_interprocedural_laundering(tmp_path):
    """The ms-vs-s case where neither function alone looks wrong."""
    findings = deep_findings(tmp_path, {"model.py": (
        "class Station:\n"
        "    def wait(self, pause):\n"
        "        self.sim.schedule(pause, self.poll)\n"
        "\n"
        "    def start(self, drain_seconds):\n"
        "        self.wait(drain_seconds)\n")})
    hits = [f for f in findings if f.rule == "UNIT002"]
    assert hits, "laundered sim_seconds must reach the scheduler sink"
    assert any("argument" in f.message for f in hits)
    chain = next(f for f in hits if f.provenance)
    assert any("reaches" in step for step in chain.provenance)


def test_unit002_flags_time_into_bare_counter(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Cloud:\n"
        "    def account(self, airtime):\n"
        "        self.counters.bump('bursts', airtime)\n")})
    assert "UNIT002" in _rules(findings)


def test_unit002_silent_when_counter_name_declares_unit(tmp_path):
    # flow.py's pattern: the dashboard name says microseconds.
    findings = deep_findings(tmp_path, {"model.py": (
        "class Cloud:\n"
        "    def account(self, airtime):\n"
        "        self.counters.bump('flow_airtime_us', airtime)\n")})
    assert "UNIT002" not in _rules(findings)


def test_unit002_flags_bits_stored_as_bytes(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Frame:\n"
        "    def size(self, header_bits):\n"
        "        self.length_bytes = header_bits\n")})
    assert "UNIT002" in _rules(findings)


def test_unit002_silent_after_explicit_conversion(tmp_path):
    findings = deep_findings(tmp_path, {
        "clock.py": (
            "SECOND = 1_000_000\n"
            "def seconds(value):\n"
            "    return int(round(value * SECOND))\n"),
        "model.py": (
            "from pkg.clock import seconds\n"
            "class Station:\n"
            "    def wait(self, duration_seconds):\n"
            "        self.sim.schedule(seconds(duration_seconds),\n"
            "                          self.poll)\n")})
    assert "UNIT002" not in _rules(findings)


# ----------------------------------------------------------------------
# provenance plumbing and the CLI
# ----------------------------------------------------------------------

def test_finding_provenance_roundtrips_json(tmp_path):
    findings = deep_findings(tmp_path, {"model.py": (
        "class Region:\n"
        "    def deadline(self, start_us, duration_seconds):\n"
        "        return start_us + duration_seconds\n")})
    hit = next(f for f in findings if f.rule == "UNIT001")
    document = hit.to_dict()
    assert document["provenance"] == list(hit.provenance)
    from repro.analysis.findings import Finding
    assert Finding.from_dict(document) == hit
    # Provenance wording must not invalidate baselines.
    stripped = Finding.from_dict({**document, "provenance": []})
    assert stripped.fingerprint() == hit.fingerprint()


def test_cli_explain_prints_live_provenance():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--explain", "UNIT002"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    assert "provenance:" in completed.stdout
    assert "Sanctioned fix" in completed.stdout


def test_cli_explain_unknown_rule_is_usage_error():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--explain", "NOPE999"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 2
    assert "unknown rule" in completed.stderr


def test_cli_explain_covers_every_new_rule():
    from repro.analysis.explain import explain_rule, explained_rules
    assert set(explained_rules()) >= {"UNIT001", "UNIT002", "SHARD001",
                                      "SHARD002", "FID001",
                                      "SNAP001", "OBS002"}
    for rule in explained_rules():
        text = explain_rule(rule)
        assert "What the engine reports" in text, (
            f"{rule}: curated example no longer trips its own rule")
    # Uncurated rules degrade to the registry summary, never None.
    assert explain_rule("DET001") is not None
    assert explain_rule("ZZZ999") is None


def test_cli_explain_scoped_rule_lints_inside_its_scope():
    # OBS002 only fires under repro/scale or repro/obs; the curated
    # example must be linted at a display path inside that scope or
    # the live finding silently vanishes.
    from repro.analysis.explain import explain_rule
    text = explain_rule("OBS002")
    assert "repro/obs/example.py" in text
    assert "OBS002" in text.split("What the engine reports")[1]
