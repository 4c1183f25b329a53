"""SNAP001: sim state must survive a snapshot.

The model checker (:mod:`repro.check`) freezes whole worlds by
pickling them and branches execution from the restored copies.  Bound
methods are rebound to the restored object -- a scheduled
``self._flush`` in a copy points at the copied component -- but three
idioms break that contract:

* a **lambda or generator expression stored on an object** cannot be
  pickled: a lambda (like any nested function) has no importable name,
  and a generator's frame cannot be rebuilt;
* an **OS handle stored on an object** -- ``open()`` files,
  ``threading`` primitives, ``socket.socket()`` -- cannot be pickled,
  and a copy could not share the kernel object behind it anyway;
* a **lambda handed to the scheduler** (``schedule`` / ``call_soon`` /
  ``at`` / ``at_series``) is captured inside a pending event, where it
  closes over the live world.

Any of these makes ``StateCapturer.capture`` raise at run time, so a
broken world fails loudly instead of aliasing the live one.  This pass
catches the same idioms statically, before a checker run trips over
them.  The fix is the same in every case: make the callback a bound
method and keep handles off simulated objects.  Harness, analysis, and
CLI code never gets snapshotted and is allowlisted in the engine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.imports import ImportMap, call_qualname
from repro.analysis.registry import (
    LintPass,
    ModuleInfo,
    Rule,
    register_pass,
)
from repro.analysis.units import SCHEDULER_ENTRY_POINTS

RULE_SNAPSHOT = Rule(
    id="SNAP001", name="un-snapshotable-sim-state", severity="error",
    summary="lambda/generator/OS handle stored on sim state (or lambda "
            "scheduled as an event) cannot be snapshotted and fails "
            "StateCapturer.capture; use a bound method / keep handles "
            "off sim objects",
)

#: Resolved call-target prefixes that return OS-level handles.
#: Matching on the *resolved* name means ``from threading import Lock``
#: still hits, while the repo's own ``Event`` (sim.engine) never
#: false-positives.
_HANDLE_PREFIXES = ("threading.", "socket.", "mmap.", "subprocess.")

#: Bare builtins returning handles.
_HANDLE_BUILTINS = frozenset({"open"})


@register_pass
class SnapshotSafetyPass(LintPass):
    """Flags state the model checker's StateCapturer cannot freeze."""

    name = "snapshot"
    rules = (RULE_SNAPSHOT,)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap.collect(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assignment(module, imports, node)
            elif isinstance(node, ast.Call):
                yield from self._check_scheduler_call(module, node)

    # -- stored state --------------------------------------------------

    def _check_assignment(self, module: ModuleInfo, imports: ImportMap,
                          node: ast.stmt) -> Iterator[Finding]:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        attribute = next(
            (target for target in targets
             if isinstance(target, ast.Attribute)
             and isinstance(target.value, ast.Name)
             and target.value.id == "self"),
            None)
        value = getattr(node, "value", None)
        if attribute is None or value is None:
            return
        stored = f"self.{attribute.attr}"
        if isinstance(value, ast.Lambda):
            yield self.finding(
                module, node, RULE_SNAPSHOT,
                f"lambda stored on {stored} cannot be pickled, so a "
                f"snapshot of this object fails; store a bound method "
                f"instead",
            )
        elif isinstance(value, ast.GeneratorExp):
            yield self.finding(
                module, node, RULE_SNAPSHOT,
                f"generator expression stored on {stored} cannot be "
                f"snapshotted; materialise it or iterate it where it "
                f"is built",
            )
        elif isinstance(value, ast.Call):
            handle = self._handle_call(imports, value)
            if handle is not None:
                yield self.finding(
                    module, node, RULE_SNAPSHOT,
                    f"OS handle from {handle}() stored on {stored} does "
                    f"not survive a snapshot; keep handles off sim "
                    f"objects (or give the class a __reduce__)",
                )

    @staticmethod
    def _handle_call(imports: ImportMap, node: ast.Call) -> Optional[str]:
        resolved = call_qualname(node, imports)
        if resolved is None:
            return None
        if resolved in _HANDLE_BUILTINS:
            return resolved
        if resolved.startswith(_HANDLE_PREFIXES):
            return resolved
        return None

    # -- scheduled callbacks -------------------------------------------

    def _check_scheduler_call(self, module: ModuleInfo,
                              node: ast.Call) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULER_ENTRY_POINTS):
            return
        callbacks = list(node.args)
        callbacks += [keyword.value for keyword in node.keywords
                      if keyword.arg != "label"]
        for argument in callbacks:
            if isinstance(argument, (ast.Lambda, ast.GeneratorExp)):
                what = ("lambda" if isinstance(argument, ast.Lambda)
                        else "generator expression")
                yield self.finding(
                    module, argument, RULE_SNAPSHOT,
                    f"{what} scheduled through .{node.func.attr}() is "
                    f"captured inside a pending event, where it "
                    f"closes over the live world and fails the "
                    f"snapshot -- schedule a bound method",
                )
