"""RACE001: same-timestamp event-callback conflicts.

The engine breaks equal-time ties by registration order (``Event.seq``),
so two callbacks registered for the same instant run in whatever order
the registering code happened to execute.  That order is deterministic
for one binary, but it is an *accident*, not a contract: reordering the
registrations (or letting the SimSanitizer's shuffle perturb the
tie-break) changes which callback sees the other's writes.

The pass walks every class, collects callsites that hand a bound
``self.<method>`` to a scheduler entry point (``schedule`` / ``at`` /
``at_series`` / ``call_soon``, the rows of ``units.SCHEDULER_ENTRY_POINTS``
that take a callback; ``requeue`` re-arms an event it is handed),
and groups registrations made *from the same function with the same
delay expression* — statically "schedulable at the same timestamp with
no deterministic tie-break key".  For each pair of distinct callbacks
in a group it intersects the ``self.*`` attributes each reads and
writes (following ``self.helper()`` calls through the call graph, same
class, bounded depth); a write/write or read/write overlap is a
finding.  FIFO self-succession (the same callback twice) is the
engine's documented per-handler ordering guarantee and is exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    ProjectInfo,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectPass, Rule, register_deep_pass
from repro.analysis.units import SCHEDULER_ENTRY_POINTS

RULE_CALLBACK_RACE = Rule(
    id="RACE001", name="same-timestamp-callback-race", severity="error",
    summary="two callbacks schedulable at the same timestamp touch the "
            "same attribute; order is an accident of registration",
)


#: Transitive ``self.helper()`` depth when collecting attr effects.
_EFFECT_DEPTH = 3


@register_deep_pass
class EventRacePass(ProjectPass):
    name = "races"
    rules = (RULE_CALLBACK_RACE,)

    def check_project(self, project: ProjectInfo,
                      graph: CallGraph) -> Iterator[Finding]:
        for cls_info in project.classes.values():
            yield from self._check_class(project, graph, cls_info)

    def _check_class(self, project: ProjectInfo, graph: CallGraph,
                     cls_info: ClassInfo) -> Iterator[Finding]:
        # (registering function, delay key) -> [(callback name, node)]
        groups: Dict[Tuple[str, str], List[Tuple[str, ast.Call]]] = {}
        for method in cls_info.methods.values():
            for node in ast.walk(method.node):
                registration = _registration(node)
                if registration is None:
                    continue
                callback, delay_key = registration
                groups.setdefault((method.qualname, delay_key),
                                  []).append((callback, node))
        effects: Dict[str, Tuple[Set[str], Set[str]]] = {}
        for (registrar, delay_key), entries in sorted(groups.items()):
            names = sorted({name for name, _ in entries})
            if len(names) < 2:
                continue
            for i, first in enumerate(names):
                for second in names[i + 1:]:
                    conflict = self._conflict(
                        project, graph, cls_info, first, second, effects)
                    if conflict is None:
                        continue
                    attr, kind = conflict
                    node = max((n for name, n in entries
                                if name in (first, second)),
                               key=lambda n: n.lineno)
                    yield self.finding(
                        project.modules[cls_info.module], node,
                        RULE_CALLBACK_RACE,
                        f"callbacks {cls_info.name}.{first} and "
                        f"{cls_info.name}.{second} are registered from "
                        f"{registrar.rsplit('.', 1)[-1]} with the same "
                        f"delay and both touch self.{attr} ({kind}); "
                        f"their relative order is only the registration "
                        f"accident — give them distinct delays or merge "
                        f"them into one callback",
                    )

    def _conflict(self, project: ProjectInfo, graph: CallGraph,
                  cls_info: ClassInfo, first: str, second: str,
                  cache: Dict[str, Tuple[Set[str], Set[str]]],
                  ) -> Optional[Tuple[str, str]]:
        reads_a, writes_a = self._effects(project, graph, cls_info,
                                          first, cache)
        reads_b, writes_b = self._effects(project, graph, cls_info,
                                          second, cache)
        for attr in sorted(writes_a & writes_b):
            return attr, "write/write"
        for attr in sorted((writes_a & reads_b) | (reads_a & writes_b)):
            return attr, "read/write"
        return None

    def _effects(self, project: ProjectInfo, graph: CallGraph,
                 cls_info: ClassInfo, method_name: str,
                 cache: Dict[str, Tuple[Set[str], Set[str]]],
                 ) -> Tuple[Set[str], Set[str]]:
        """(reads, writes) of ``self.*`` attrs, transitively in-class."""
        method = project.lookup_method(cls_info, method_name)
        if method is None:
            return set(), set()
        if method.qualname in cache:
            return cache[method.qualname]
        cache[method.qualname] = (set(), set())  # cycle guard
        reads, writes = _direct_effects(method, cls_info)
        frontier = [method.qualname]
        seen = {method.qualname}
        for _ in range(_EFFECT_DEPTH):
            next_frontier: List[str] = []
            for qual in frontier:
                for callee in sorted(graph.callees(qual)):
                    callee_fn = project.functions.get(callee)
                    if (callee_fn is None or callee in seen
                            or callee_fn.cls is None
                            or callee_fn.module != cls_info.module):
                        continue
                    seen.add(callee)
                    sub_reads, sub_writes = _direct_effects(callee_fn,
                                                            cls_info)
                    reads |= sub_reads
                    writes |= sub_writes
                    next_frontier.append(callee)
            frontier = next_frontier
            if not frontier:
                break
        cache[method.qualname] = (reads, writes)
        return reads, writes


def _registration(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(callback method name, delay key) for scheduler registrations.

    Only ``self.<method>`` callbacks count: a lambda or free function is
    not attributable to shared object state by name.  The delay key is
    the dump of the first time argument (``call_soon``, which takes
    none, is delay 0 by contract), so only textually identical delays
    group together.
    """
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCHEDULER_ENTRY_POINTS):
        return None
    entry = SCHEDULER_ENTRY_POINTS[node.func.attr]
    if entry.callback is None or len(node.args) <= entry.callback:
        return None
    callback = node.args[entry.callback]
    if not (isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"):
        return None
    if not entry.times:
        delay_key = "delay:0"
    else:
        delay_key = f"{node.func.attr}:{ast.dump(node.args[entry.times[0]])}"
    return callback.attr, delay_key


def _direct_effects(method: FunctionInfo,
                    cls_info: ClassInfo) -> Tuple[Set[str], Set[str]]:
    """Non-transitive (reads, writes) of ``self.*`` data attributes."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    called_attrs: Set[int] = set()
    for node in ast.walk(method.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            called_attrs.add(id(node.func))
    for node in ast.walk(method.node):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            continue
        if node.attr in cls_info.methods or id(node) in called_attrs:
            continue  # bound-method access, not data state
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            writes.add(node.attr)
        elif isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    for node in ast.walk(method.node):
        if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute):
            target = node.target
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                reads.add(target.attr)
                writes.add(target.attr)
    return reads, writes
