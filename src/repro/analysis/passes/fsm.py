"""FSM001: state-dispatch exhaustiveness for protocol machines.

The paper's kernel talks to peers through explicit state machines
(LAPB §3, TCP over the gateway §2.3); this reproduction declares each
one as an ``enum.Enum`` subclass named ``*State`` (``LapbState``,
``TcpState``, ``CircuitState``).  A state machine rots in three ways a
type checker never sees:

* a **dead state** — declared, never referenced: the enum promises a
  lifecycle phase the code no longer has;
* an **unreachable state** — dispatch branches test for it, but no
  transition ever enters it (the branch is dead code wearing a
  protocol costume);
* an **unhandled state** — transitions enter it, but no dispatch ever
  tests for it, so frames arriving in that state fall through whatever
  default the code happens to have.

References are collected project-wide (a state stored in one module
may be dispatched in another).  Annotations are skipped — ``state:
LapbState`` names the type, not a member — and any *bare* use of the
enum class (iteration, ``list(TcpState)``) makes the machine opaque to
this analysis, so the pass conservatively skips it rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.analysis.callgraph import CallGraph, ProjectInfo
from repro.analysis.findings import Finding
from repro.analysis.imports import dotted_name
from repro.analysis.registry import ModuleInfo, ProjectPass, Rule, register_deep_pass

RULE_FSM = Rule(
    id="FSM001", name="state-dispatch-exhaustiveness", severity="error",
    summary="every declared protocol state must be entered by some "
            "transition and tested by some dispatch",
)

_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


@dataclass
class _Machine:
    """One ``*State`` enum and what the project does with its members."""

    cls_name: str
    module: ModuleInfo
    node: ast.ClassDef
    members: List[str]
    entered: Set[str] = field(default_factory=set)
    compared: Set[str] = field(default_factory=set)
    referenced: Set[str] = field(default_factory=set)
    opaque: bool = False


@register_deep_pass
class FsmPass(ProjectPass):
    name = "fsm"
    rules = (RULE_FSM,)

    def check_project(self, project: ProjectInfo,
                      graph: CallGraph) -> Iterator[Finding]:
        machines = self._collect_machines(project)
        if not machines:
            return
        for module in project.modules.values():
            _Collector(machines).scan(module.tree)
        for machine in machines.values():
            if machine.opaque:
                continue
            for member in machine.members:
                state = f"{machine.cls_name}.{member}"
                if member not in machine.referenced:
                    yield self.finding(
                        machine.module, machine.node, RULE_FSM,
                        f"dead state: {state} is declared but never "
                        f"referenced; delete it or wire the missing "
                        f"lifecycle phase",
                    )
                elif member not in machine.entered:
                    yield self.finding(
                        machine.module, machine.node, RULE_FSM,
                        f"unreachable state: {state} is tested by "
                        f"dispatch but no transition ever enters it",
                    )
                elif member not in machine.compared:
                    yield self.finding(
                        machine.module, machine.node, RULE_FSM,
                        f"unhandled state: transitions enter {state} "
                        f"but no dispatch branch ever tests for it",
                    )

    def _collect_machines(self,
                          project: ProjectInfo) -> Dict[str, _Machine]:
        machines: Dict[str, _Machine] = {}
        for mod_name, module in project.modules.items():
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.ClassDef)
                        and node.name.endswith("State")
                        and _is_enum(node)):
                    continue
                members = [
                    target.id
                    for statement in node.body
                    if isinstance(statement, ast.Assign)
                    for target in statement.targets
                    if isinstance(target, ast.Name)
                    and not target.id.startswith("_")
                ]
                if len(members) >= 2:
                    machines[node.name] = _Machine(
                        cls_name=node.name, module=module,
                        node=node, members=members)
        return machines


def _is_enum(node: ast.ClassDef) -> bool:
    for base in node.bases:
        text = dotted_name(base)
        if text is not None and text.split(".")[-1] in _ENUM_BASES:
            return True
    return False


class _Collector:
    """Classifies every reference to a tracked machine's members.

    Context matters: a member inside any comparison (including the
    tuple of an ``in (A, B)`` test) or used as a dict-literal key (a
    dispatch table) counts as *dispatch*; a member in
    any other expression position — assignment value, return, call
    argument, default — counts as a potential *transition into* the
    state.  Annotation subtrees and the enum's own declaration body are
    skipped entirely.
    """

    def __init__(self, machines: Dict[str, _Machine]) -> None:
        self.machines = machines

    def scan(self, tree: ast.Module) -> None:
        self._visit_block(tree.body, in_compare=False)

    # -- statements ----------------------------------------------------

    def _visit_block(self, body: List[ast.stmt],
                     in_compare: bool) -> None:
        for statement in body:
            self._visit_statement(statement, in_compare)

    def _visit_statement(self, node: ast.stmt, in_compare: bool) -> None:
        if isinstance(node, ast.ClassDef):
            if node.name in self.machines:
                return  # the declaration itself is not a reference
            self._visit_block(node.body, in_compare)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in (node.args.defaults
                            + [d for d in node.args.kw_defaults
                               if d is not None]):
                self._visit_expr(default, in_compare=False)
            self._visit_block(node.body, in_compare)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._visit_expr(node.value, in_compare=False)
            return  # the annotation names the type, not a member
        if isinstance(node, (ast.If, ast.While)):
            self._visit_expr(node.test, in_compare=True)
            self._visit_block(node.body, in_compare=False)
            self._visit_block(node.orelse, in_compare=False)
            return
        # Generic statement: expressions with compare detection.
        # ``iter_child_nodes`` flattens list fields, so a compound
        # statement's body statements arrive here as stmt children.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, in_compare=False)
            elif isinstance(child, ast.stmt):
                self._visit_statement(child, in_compare)
            elif isinstance(child, ast.excepthandler):
                self._visit_block(child.body, in_compare)
            elif isinstance(child, ast.withitem):
                self._visit_expr(child.context_expr, in_compare=False)

    # -- expressions ---------------------------------------------------

    def _visit_expr(self, node: ast.expr, in_compare: bool) -> None:
        if isinstance(node, ast.Compare):
            self._visit_expr(node.left, in_compare=True)
            for comparator in node.comparators:
                self._visit_expr(comparator, in_compare=True)
            return
        if isinstance(node, ast.IfExp):
            self._visit_expr(node.test, in_compare=True)
            self._visit_expr(node.body, in_compare)
            self._visit_expr(node.orelse, in_compare)
            return
        if isinstance(node, ast.Dict):
            # A dict literal keyed by members is a dispatch table --
            # ``{LapbState.CONNECTED: on_frame, ...}[self.state]`` tests
            # states exactly like an ``==`` chain would, so the keys
            # count as dispatch; the values stay ordinary expressions
            # (a transition table's value really does *enter* a state).
            for key in node.keys:
                if key is not None:  # None is a ``**splat`` entry
                    self._visit_expr(key, in_compare=True)
            for value in node.values:
                self._visit_expr(value, in_compare)
            return
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id in self.machines):
                self._classify(node, in_compare)
                return  # the root Name is the classified access itself
            self._visit_expr(node.value, in_compare)
            return
        if isinstance(node, ast.Name):
            machine = self.machines.get(node.id)
            if machine is not None:
                # Bare class use (iteration, constructor lookup...):
                # the member set escapes syntactic tracking.
                machine.opaque = True
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, in_compare)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter, in_compare=False)
                for condition in child.ifs:
                    self._visit_expr(condition, in_compare=True)

    def _classify(self, node: ast.Attribute, in_compare: bool) -> None:
        if not isinstance(node.value, ast.Name):
            return
        machine = self.machines.get(node.value.id)
        if machine is None or node.attr not in machine.members:
            return
        machine.referenced.add(node.attr)
        if in_compare:
            machine.compared.add(node.attr)
        else:
            machine.entered.add(node.attr)
