"""``python -m repro lint --explain RULE``: rule rationale on demand.

Each entry pairs three things a reviewer needs when a rule fires at
them: *why the rule exists* (tied to the invariant it protects), *a
live example* — the snippet is actually linted here, so the printed
finding and its provenance chain come from the real engine, not from
prose that can rot — and *the sanctioned fix pattern*.

Rules without a curated entry still explain themselves from the
registry summary, so ``--explain`` never dead-ends.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, rule_table


@dataclass(frozen=True)
class Explanation:
    """Curated teaching material for one rule."""

    rule: str
    rationale: str       #: why the rule exists (the invariant at stake)
    example: str         #: minimal source that trips the rule
    fix: str             #: the sanctioned pattern
    #: Display path the example is linted under.  Scope-sensitive rules
    #: (OBS002 only fires under repro/scale or repro/obs) need the
    #: example to live at a path inside their scope.
    display: str = "example.py"


_EXPLANATIONS: Dict[str, Explanation] = {}


def _register(entry: Explanation) -> None:
    _EXPLANATIONS[entry.rule] = entry


_register(Explanation(
    rule="SNAP001",
    rationale="""
        The model checker (repro.check) snapshots whole worlds by
        pickling them and branches execution from restored copies.
        Bound methods are rebound to the restored object, so a
        scheduled self._flush in a copy points at the *copied*
        component.  Lambdas, generator expressions and OS handles (open
        files, threading primitives, sockets) cannot be pickled, so
        StateCapturer.capture raises on a world that holds one: the
        checker fails at the first snapshot instead of exploring.
        Anything stored on sim state, or handed to the scheduler, must
        survive the snapshot.
    """,
    example="""
        class CollisionHub:
            def __init__(self, sim):
                self.pending = (f for f in [])
                self.arrival = lambda frame: self.pending
            def defer(self, sim, frame):
                sim.call_soon(lambda: self.flush(frame))
    """,
    fix="""
        Store and schedule bound methods; materialise generators::

            class CollisionHub:
                def __init__(self, sim):
                    self.pending = []
                def defer(self, sim, frame):
                    sim.call_soon(self.flush, frame, label="hub-flush")
    """,
))

_register(Explanation(
    rule="OBS002",
    rationale="""
        The sharding layer (repro/scale) and the observability layer
        (repro/obs) aggregate other layers' drop terminals and re-emit
        them across region boundaries.  The merged flight-recorder view
        reconciles per-region histograms *by reason word*: an invented
        literal in these layers splits a histogram row into two keys
        the reconciliation cannot match, so the merge silently loses
        conservation.  Every reason must be a literal from the live
        repro.obs.spans.REASONS vocabulary — the one non-literal
        allowed is forwarding a parameter named ``reason``, which keeps
        the word chosen by the layer that owned the drop.
    """,
    example="""
        class GatewaySeam:
            def relay(self, span, key):
                self.recorder.drop_key(key, 'gateway', 'GW0',
                                       'vanished_in_transit')
    """,
    fix="""
        Use the vocabulary (or forward the owning layer's reason)::

            def relay(self, span, key, reason):
                self.recorder.drop_key(key, 'gateway', 'GW0',
                                       'link_giveup')
                self.recorder.drop_key(key, 'gateway', 'GW0', reason)
    """,
    display="repro/obs/example.py",
))

_register(Explanation(
    rule="UNIT001",
    rationale="""
        The simulator clock ticks in integer microseconds; durations
        arrive from layouts and scenarios as float seconds; serial
        arithmetic speaks baud, bits, and bytes.  Adding or comparing
        across those systems is the classic ms-vs-s bug — off by a
        factor of one million with no exception raised.  The units
        lattice seeds dimensions from known APIs and naming conventions
        (``*_seconds``, ``*_us``, ``link_latency``, ``baud``) and flags
        additive arithmetic whose operands disagree.
    """,
    example="""
        class Region:
            def deadline(self, start_us, duration_seconds):
                return start_us + duration_seconds
    """,
    fix="""
        Convert at the boundary with the sanctioned converters::

            from repro.sim.clock import seconds
            return start_us + seconds(duration_seconds)
    """,
))

_register(Explanation(
    rule="UNIT002",
    rationale="""
        Some sinks demand one dimension: ``Simulator.schedule`` /
        ``.at`` take integer sim microseconds, ``Rate.tick`` takes the
        sim clock, counters take counts unless their *name* declares a
        unit (``..._us``), and a ``*_bytes`` slot must not receive a
        bit count.  The abstract interpretation follows values through
        assignments, arithmetic, and project calls — including a helper
        that forwards its parameter into the scheduler, the laundering
        case where neither function alone looks wrong.
    """,
    example="""
        class Station:
            def wait(self, pause):
                self.sim.schedule(pause, self.poll)

            def start(self, drain_seconds):
                self.wait(drain_seconds)
    """,
    fix="""
        Convert once, at the call site that owns the float::

            from repro.sim.clock import seconds
            self.wait(seconds(drain_seconds))
    """,
))

_register(Explanation(
    rule="SHARD001",
    rationale="""
        Sharded regions are re-runnable only if every region is a pure
        function of (layout, seed, region index).  Module- or
        class-level mutable state that sim code mutates — the pre-fix
        Pinger ident counter is the canonical case — makes wire bytes
        depend on how many objects the *process* ever constructed, so
        one shard re-run or a different process layout changes digests.
        Bindings that are never written (frozen constant tables,
        ``__all__``) are fine: the rule requires an observed mutation.
    """,
    example="""
        class Pinger:
            next_ident = 100

            def __init__(self, stack):
                self.ident = Pinger.next_ident
                Pinger.next_ident += 1
    """,
    fix="""
        Derive identity from owned, per-instance state::

            def __init__(self, stack):
                self.ident = 100 + len(stack.icmp_listeners)
    """,
))

_register(Explanation(
    rule="SHARD002",
    rationale="""
        Regions may exchange *bytes* across the gateway seam — never
        live objects.  An object constructed under one region's
        Simulator that lands in another region's structures or
        callbacks couples their event orders, which breaks the window
        barrier that makes sharded execution equal single-process
        execution.  The pass tracks Simulator identities per function
        and flags stores/calls that mix two of them.
    """,
    example="""
        def build(layout):
            sim_a = Simulator()
            sim_b = Simulator()
            stack_a = NetStack(sim_a)
            stack_b = NetStack(sim_b)
            stack_b.neighbors.append(stack_a)
    """,
    fix="""
        Serialize at the seam; hand the other region bytes, not objects::

            stack_b.enqueue(bytes(frame_from_a))
    """,
))

_register(Explanation(
    rule="FID001",
    rationale="""
        per_char/frame digest equivalence is gated dynamically, but the
        easiest way to break it is structural: a branch on the fidelity
        level that bumps a counter or records a span on one arm only.
        FID001 collects the instrument set emitted on every arm of a
        fidelity branch (following project helpers two hops deep) and
        demands symmetry — or total silence, which pure behavioural
        dispatch satisfies.
    """,
    example="""
        class Endpoint:
            def write(self, data):
                if self.fidelity == "frame":
                    self.instruments.bump("frames_sent")
                    self.sim.schedule(10, self.done)
                else:
                    self.sim.schedule(1, self.step)
    """,
    fix="""
        Emit the same instruments on every level (or none)::

            if self.fidelity == "frame":
                self.instruments.bump("writes")
                self.sim.schedule(10, self.done)
            else:
                self.instruments.bump("writes")
                self.sim.schedule(1, self.step)
    """,
))


def _live_findings(rule_id: str, example: str,
                   display: str = "example.py") -> List[Finding]:
    """Lint the example snippet for real and keep the rule's findings.

    Deep rules need a project index, so the snippet is wrapped in a
    one-module synthetic project; per-file rules go through
    ``lint_source``.  Either way the finding (and its provenance chain)
    is produced by the actual engine.
    """
    import ast

    from repro.analysis.callgraph import CallGraph, ProjectInfo
    from repro.analysis.engine import LintEngine
    from repro.analysis.registry import DEEP_PASS_REGISTRY

    deep_rules = {rule.id for cls in DEEP_PASS_REGISTRY
                  for rule in cls.rules}
    if rule_id not in deep_rules:
        report = LintEngine(allowlist={}).lint_source(example,
                                                      display=display)
        return [f for f in report.new_findings if f.rule == rule_id]

    module = ModuleInfo(path=Path(display), display=display,
                        source=example, tree=ast.parse(example),
                        lines=example.splitlines())
    project = ProjectInfo.build([module])
    graph = CallGraph(project)
    out: List[Finding] = []
    for cls in DEEP_PASS_REGISTRY:
        if any(rule.id == rule_id for rule in cls.rules):
            out.extend(f for f in cls().check_project(project, graph)
                       if f.rule == rule_id)
    return out


def explain_rule(rule_id: str) -> Optional[str]:
    """The full ``--explain`` text for one rule id, or None if unknown."""
    rule_id = rule_id.upper()
    table = rule_table()
    rule = table.get(rule_id)
    if rule is None:
        return None

    lines = [f"{rule.id} ({rule.name}) [{rule.severity}]",
             "", rule.summary]
    entry = _EXPLANATIONS.get(rule_id)
    if entry is None:
        lines += ["", "No curated example for this rule yet; the "
                      "summary above is the rationale of record."]
        return "\n".join(lines)

    example = textwrap.dedent(entry.example).strip("\n")
    lines += ["", "Why this rule exists:",
              textwrap.indent(
                  textwrap.fill(" ".join(
                      textwrap.dedent(entry.rationale).split()), 68),
                  "  ")]
    lines += ["", "Example that trips it:",
              textwrap.indent(example, "  ")]

    findings = _live_findings(rule_id, example, entry.display)
    if findings:
        lines += ["", "What the engine reports for that example:"]
        for finding in findings:
            lines.append(textwrap.indent(finding.render(), "  "))
    lines += ["", "Sanctioned fix:",
              textwrap.indent(textwrap.dedent(entry.fix).strip("\n"),
                              "  ")]
    return "\n".join(lines)


def explained_rules() -> List[str]:
    """Rule ids with curated explanations (for the CLI help text)."""
    return sorted(_EXPLANATIONS)
