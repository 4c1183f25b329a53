"""SHARD001/SHARD002 isolation passes and FID001 fidelity parity.

The SHARD001 positive fixture is the regression that motivated the
rule: the pre-fix class-global Pinger ident counter from PR 6, which
made wire bytes a function of interpreter history and broke cross-
process digest determinism.  The negatives pin down the precision
contract — ``__all__`` lists, frozen constant tables, and dataclass
field defaults must stay silent because the rule requires an observed
mutation, not mere mutability.
"""

from repro.analysis.engine import DEFAULT_ALLOWLIST
from tests.conftest import deep_findings


def _rules(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# SHARD001: the Pinger regression and its negatives
# ----------------------------------------------------------------------

#: The pre-fix PR 6 shape, reproduced synthetically: a class-global
#: ident counter.  Every Pinger ever constructed in the process shifts
#: later idents; an ident byte landing on FEND/FESC changes KISS
#: escaping and therefore serial byte counts across shard layouts.
_PREFIX_PINGER = (
    "class Pinger:\n"
    "    next_ident = 100\n"
    "\n"
    "    def __init__(self, stack):\n"
    "        self.stack = stack\n"
    "        self.ident = Pinger.next_ident\n"
    "        Pinger.next_ident += 1\n")


def test_shard001_catches_prefix_pinger_ident_counter(tmp_path):
    findings = deep_findings(tmp_path, {"ping.py": _PREFIX_PINGER})
    hits = [f for f in findings if f.rule == "SHARD001"]
    assert hits, "the PR 6 Pinger ident bug must be caught"
    assert "next_ident" in hits[0].message
    assert hits[0].line == 2  # reported at the class-level binding
    assert any("__init__" in step for step in hits[0].provenance)


def test_shard001_catches_cls_and_type_self_spellings(tmp_path):
    findings = deep_findings(tmp_path, {"ping.py": (
        "class A:\n"
        "    counter = 0\n"
        "    def bump(self):\n"
        "        type(self).counter += 1\n"
        "class B:\n"
        "    counter = 0\n"
        "    @classmethod\n"
        "    def bump(cls):\n"
        "        cls.counter += 1\n")})
    hits = [f for f in findings if f.rule == "SHARD001"]
    assert len(hits) == 2


def test_shard001_catches_module_registry_mutation(tmp_path):
    findings = deep_findings(tmp_path, {"state.py": (
        "LISTENERS = []\n"
        "def subscribe(callback):\n"
        "    LISTENERS.append(callback)\n")})
    assert "SHARD001" in _rules(findings)


def test_shard001_catches_imported_registry_mutation(tmp_path):
    findings = deep_findings(tmp_path, {
        "state.py": "CACHE = {}\n",
        "user.py": (
            "from pkg import state\n"
            "def remember(key, value):\n"
            "    state.CACHE[key] = value\n")})
    assert "SHARD001" in _rules(findings)


def test_shard001_catches_shared_class_level_list(tmp_path):
    # Mutable class-level literal mutated through self, never rebound
    # per-instance: all instances share one list.
    findings = deep_findings(tmp_path, {"model.py": (
        "class Stack:\n"
        "    listeners = []\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def attach(self, callback):\n"
        "        self.listeners.append(callback)\n")})
    assert "SHARD001" in _rules(findings)


def test_shard001_silent_on_dunder_all(tmp_path):
    findings = deep_findings(tmp_path, {"api.py": (
        "__all__ = ['one', 'two']\n"
        "def one():\n"
        "    return 1\n"
        "def two():\n"
        "    return 2\n")})
    assert "SHARD001" not in _rules(findings)


def test_shard001_silent_on_frozen_constants(tmp_path):
    # Read-only module tables are fine: no observed mutation, no report.
    findings = deep_findings(tmp_path, {"consts.py": (
        "ESCAPES = {0xC0: b'\\\\xdb\\\\xdc'}\n"
        "NAMES = ['fend', 'fesc']\n"
        "def escape(byte):\n"
        "    return ESCAPES.get(byte)\n"
        "def named(index):\n"
        "    return NAMES[index]\n")})
    assert "SHARD001" not in _rules(findings)


def test_shard001_silent_on_per_instance_rebind(tmp_path):
    # The fixed Pinger shape: identity derived from owned state.
    findings = deep_findings(tmp_path, {"ping.py": (
        "class Pinger:\n"
        "    def __init__(self, stack):\n"
        "        self.ident = 100 + len(stack.icmp_listeners)\n"
        "        self.rtts = []\n"
        "    def record(self, rtt):\n"
        "        self.rtts.append(rtt)\n")})
    assert "SHARD001" not in _rules(findings)


def test_shard001_silent_on_local_shadowing(tmp_path):
    findings = deep_findings(tmp_path, {"state.py": (
        "ITEMS = []\n"
        "def build():\n"
        "    ITEMS = []\n"
        "    ITEMS.append(1)\n"
        "    return ITEMS\n")})
    assert "SHARD001" not in _rules(findings)


def test_shard001_allowlists_the_analysis_registries(src_deep_report):
    """PASS_REGISTRY/DEEP_PASS_REGISTRY are by-design decorator state."""
    assert any(pattern.endswith("repro/analysis/*")
               for pattern in DEFAULT_ALLOWLIST["SHARD001"])
    shard = [f for f in src_deep_report.new_findings if f.rule == "SHARD001"]
    assert shard == [], [f.render() for f in shard]


# ----------------------------------------------------------------------
# SHARD002: cross-simulator escapes
# ----------------------------------------------------------------------

_TWO_REGIONS_HEADER = (
    "class Simulator:\n"
    "    def __init__(self):\n"
    "        self.queue = []\n"
    "    def schedule(self, delay, fn):\n"
    "        self.queue.append((delay, fn))\n"
    "class NetStack:\n"
    "    def __init__(self, sim):\n"
    "        self.sim = sim\n"
    "        self.neighbors = []\n")


def test_shard002_flags_object_escaping_into_other_region(tmp_path):
    findings = deep_findings(tmp_path, {"regions.py": (
        _TWO_REGIONS_HEADER +
        "def build():\n"
        "    sim_a = Simulator()\n"
        "    sim_b = Simulator()\n"
        "    stack_a = NetStack(sim_a)\n"
        "    stack_b = NetStack(sim_b)\n"
        "    stack_b.neighbors.append(stack_a)\n")})
    hits = [f for f in findings if f.rule == "SHARD002"]
    assert hits
    assert "Simulator@" in hits[0].message
    assert hits[0].provenance


def test_shard002_flags_callback_scheduled_on_foreign_sim(tmp_path):
    findings = deep_findings(tmp_path, {"regions.py": (
        _TWO_REGIONS_HEADER +
        "def build():\n"
        "    sim_a = Simulator()\n"
        "    sim_b = Simulator()\n"
        "    stack_b = NetStack(sim_b)\n"
        "    sim_a.schedule(10, stack_b.poll)\n")})
    assert "SHARD002" in _rules(findings)


def test_shard002_silent_within_one_region(tmp_path):
    findings = deep_findings(tmp_path, {"regions.py": (
        _TWO_REGIONS_HEADER +
        "def build():\n"
        "    sim = Simulator()\n"
        "    stack_a = NetStack(sim)\n"
        "    stack_b = NetStack(sim)\n"
        "    stack_b.neighbors.append(stack_a)\n"
        "    sim.schedule(10, stack_a.poll)\n")})
    assert "SHARD002" not in _rules(findings)


def test_shard002_silent_on_byte_handoff(tmp_path):
    # The sanctioned seam: regions exchange bytes, and bytes() scrubs
    # the region identity.
    findings = deep_findings(tmp_path, {"regions.py": (
        _TWO_REGIONS_HEADER +
        "def relay(frame):\n"
        "    sim_a = Simulator()\n"
        "    sim_b = Simulator()\n"
        "    stack_a = NetStack(sim_a)\n"
        "    stack_b = NetStack(sim_b)\n"
        "    stack_b.neighbors.append(bytes(stack_a.sim.queue[0][0]))\n")})
    assert "SHARD002" not in _rules(findings)


# ----------------------------------------------------------------------
# FID001: fidelity emission parity
# ----------------------------------------------------------------------

def test_fid001_flags_one_armed_emission(tmp_path):
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self.instruments.bump('frames_sent')\n"
        "            self.sim.schedule(10, self.done)\n"
        "        else:\n"
        "            self.sim.schedule(1, self.step)\n")})
    hits = [f for f in findings if f.rule == "FID001"]
    assert hits
    assert "frames_sent" in hits[0].message
    assert any("else-arm" in step for step in hits[0].provenance)


def test_fid001_flags_missing_else_arm(tmp_path):
    # The implicit empty else is an arm too.
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self.instruments.bump('writes')\n")})
    assert "FID001" in _rules(findings)


def test_fid001_silent_on_symmetric_emission(tmp_path):
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self.instruments.bump('writes')\n"
        "            self.sim.schedule(10, self.done)\n"
        "        else:\n"
        "            self.instruments.bump('writes')\n"
        "            self.sim.schedule(1, self.step)\n")})
    assert "FID001" not in _rules(findings)


def test_fid001_silent_on_pure_dispatch(tmp_path):
    # No emissions anywhere: behaviour may differ, digests cannot.
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self.sim.schedule(10, self.done)\n"
        "        else:\n"
        "            self.sim.schedule(1, self.step)\n")})
    assert "FID001" not in _rules(findings)


def test_fid001_silent_on_validation_raise(tmp_path):
    # validate_line_fidelity's shape: a raise-only guard branch.
    findings = deep_findings(tmp_path, {"fidelity.py": (
        "LEVELS = ('per_char', 'frame')\n"
        "def validate(fidelity):\n"
        "    if fidelity not in LEVELS:\n"
        "        raise ValueError(fidelity)\n"
        "    return fidelity\n")})
    assert "FID001" not in _rules(findings)


def test_fid001_sees_through_project_helpers(tmp_path):
    # Pushing the emission into a helper must not fake an asymmetry.
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def _account(self):\n"
        "        self.instruments.bump('writes')\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self._account()\n"
        "        else:\n"
        "            self.instruments.bump('writes')\n")})
    assert "FID001" not in _rules(findings)


def test_fid001_sees_asymmetry_through_helpers(tmp_path):
    findings = deep_findings(tmp_path, {"line.py": (
        "class Endpoint:\n"
        "    def _account(self):\n"
        "        self.instruments.bump('frames_sent')\n"
        "    def write(self, data):\n"
        "        if self.fidelity == 'frame':\n"
        "            self._account()\n"
        "        else:\n"
        "            self.sim.schedule(1, self.step)\n")})
    assert "FID001" in _rules(findings)


# ----------------------------------------------------------------------
# the sharded fidelity gate the rules protect
# ----------------------------------------------------------------------

def test_fidelity_comparable_strips_prefixed_bookkeeping():
    """Sharded metric dicts prefix per-region keys; the neutral set
    must apply to the last path segment or the sharded fidelity gate
    compares event-queue bookkeeping."""
    from repro.harness.results import comparable_metrics
    metrics = {"total/events_executed": 99.0,
               "region0/events_executed": 44.0,
               "total/pings_sent": 3.0,
               "events_executed": 143.0}
    assert comparable_metrics(metrics) == {"total/pings_sent": 3.0}
