"""SHARD: cross-shard state isolation over the whole program.

PR 6's regional sharding holds only if every region is a pure function
of ``(layout, seed, region index)``.  Two hazards broke or nearly broke
that in practice, and both are structural enough for the AST to catch:

* **SHARD001 shared-mutable-state** — module-level or class-level
  mutable state that project code *mutates*.  The canonical instance is
  the pre-fix Pinger ident counter: a class-level ``next_ident``
  incremented per construction leaks interpreter history into wire
  bytes, so two shards (or one shard re-run) disagree byte-for-byte.
  Bindings that are never mutated (frozen constant tables, ``__all__``)
  are fine and stay silent: the rule requires an observed write, not
  mere mutability.
* **SHARD002 cross-simulator-escape** — an object constructed under one
  region's :class:`Simulator` passed into the structures or callbacks
  of an object constructed under a *different* Simulator in the same
  function (``stack_b.neighbors.append(stack_a)``,
  ``sim_a.schedule(d, stack_b.poll)``).  Regions may exchange *bytes*
  across gateway seams — never live objects; scrubbing constructors
  (``bytes``, ``str``, ...) therefore clear the region identity.

Both rules are deliberately intra-procedural about *identity* (a sim
identity never crosses a call boundary) and whole-program about
*bindings* (any function anywhere mutating a module global counts), the
combination that stays sound without alias analysis.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, ProjectInfo
from repro.analysis.dataflow import ForwardEngine, ForwardWalker
from repro.analysis.findings import Finding
from repro.analysis.imports import dotted_name
from repro.analysis.registry import ProjectPass, Rule, register_deep_pass

RULE_SHARED_STATE = Rule(
    id="SHARD001", name="shared-mutable-state", severity="error",
    summary="module- or class-level mutable state mutated by sim code; "
            "shard determinism requires per-instance (per-region) state",
)
RULE_SIM_ESCAPE = Rule(
    id="SHARD002", name="cross-simulator-escape", severity="error",
    summary="object constructed under one Simulator escapes into another "
            "Simulator's structures or callbacks; regions exchange bytes, "
            "not live objects",
)

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
})

#: Constructors of shared mutable containers.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
})

#: Calls whose result carries no region identity even when built from
#: region-owned objects (the sanctioned cross-region currency).
_SCRUBBING_CALLS = frozenset({
    "bytes", "bytearray", "str", "int", "float", "bool", "len",
    "repr", "memoryview", "tuple",
})


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _binding_names(target: ast.expr) -> Set[str]:
    """Names a target expression actually *binds* locally.

    ``x = ...`` and ``x, y = ...`` bind; ``obj.attr = ...`` and
    ``table[k] = ...`` mutate an existing object — the names inside
    them must not shadow module-level bindings.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in target.elts:
            out |= _binding_names(element)
        return out
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


@register_deep_pass
class ShardIsolationPass(ProjectPass):
    name = "shard-isolation"
    rules = (RULE_SHARED_STATE, RULE_SIM_ESCAPE)

    def check_project(self, project: ProjectInfo,
                      graph: CallGraph) -> Iterator[Finding]:
        yield from self._shared_state(project)
        engine = _SimEscapeEngine(project, graph)
        engine.run()
        for fn in project.functions.values():
            seen = set()
            for node, message, provenance in engine.hits(fn.qualname):
                key = (getattr(node, "lineno", 0), message)
                if key not in seen:
                    seen.add(key)
                    yield self.finding(fn.module_info, node,
                                       RULE_SIM_ESCAPE, message, provenance)

    # ------------------------------------------------------------------
    # SHARD001
    # ------------------------------------------------------------------

    def _shared_state(self, project: ProjectInfo) -> Iterator[Finding]:
        module_bindings = self._module_bindings(project)
        class_attrs = self._class_attrs(project)
        module_mutations: Dict[str, List[str]] = {}
        class_mutations: Dict[Tuple[str, str], List[str]] = {}

        for fn in project.functions.values():
            self._collect_mutations(project, fn, module_bindings,
                                    class_attrs, module_mutations,
                                    class_mutations)

        for qual, sites in sorted(module_mutations.items()):
            module_name, _, var = qual.rpartition(".")
            info = project.modules.get(module_name)
            node = module_bindings.get(qual)
            if info is None or node is None:
                continue
            yield self.finding(
                info, node, RULE_SHARED_STATE,
                f"module-level mutable '{var}' is mutated by sim code "
                f"({sites[0]}); interpreter history leaks across shard "
                "re-runs — move the state onto the owning object",
                tuple(f"mutated in {site}" for site in sites[:3]),
            )
        for (cls_qual, attr), sites in sorted(class_mutations.items()):
            cls_info = project.classes.get(cls_qual)
            if cls_info is None:
                continue
            info = project.modules.get(cls_info.module)
            node = class_attrs.get((cls_qual, attr), cls_info.node)
            if info is None:
                continue
            yield self.finding(
                info, node, RULE_SHARED_STATE,
                f"class-level '{cls_qual.rsplit('.', 1)[-1]}.{attr}' is "
                f"mutated ({sites[0]}); every instance in the process "
                "shares it, so shard digests depend on construction "
                "history — derive the value per instance instead",
                tuple(f"mutated in {site}" for site in sites[:3]),
            )

    def _module_bindings(self, project: ProjectInfo) -> Dict[str, ast.stmt]:
        out: Dict[str, ast.stmt] = {}
        for module_name, info in project.modules.items():
            for stmt in info.tree.body:
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                if not isinstance(target, ast.Name) or value is None:
                    continue
                if _is_dunder(target.id) or not _is_mutable_literal(value):
                    continue
                out[f"{module_name}.{target.id}"] = stmt
        return out

    def _class_attrs(self, project: ProjectInfo
                     ) -> Dict[Tuple[str, str], ast.stmt]:
        """Class-body assignments: (class qualname, attr) -> statement.

        Tracks *all* class-level assignments (not just mutable literals)
        because the Pinger-counter shape rebinds an immutable int via
        ``Cls.attr += 1`` — the hazard is the class-level home, not the
        value type.
        """
        out: Dict[Tuple[str, str], ast.stmt] = {}
        for cls_qual, cls_info in project.classes.items():
            for stmt in cls_info.node.body:
                target: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                if isinstance(target, ast.Name) \
                        and not _is_dunder(target.id):
                    out[(cls_qual, target.id)] = stmt
        return out

    def _collect_mutations(
            self, project: ProjectInfo, fn: FunctionInfo,
            module_bindings: Dict[str, ast.stmt],
            class_attrs: Dict[Tuple[str, str], ast.stmt],
            module_mutations: Dict[str, List[str]],
            class_mutations: Dict[Tuple[str, str], List[str]]) -> None:
        local_names = set(fn.params)
        declared_globals: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                declared_globals.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    local_names |= _binding_names(target)
        local_names -= declared_globals

        site = f"{fn.qualname}"
        init_rebinds = self._init_rebinds(project, fn)

        for node in ast.walk(fn.node):
            # ``global X`` + assignment: rebinding shared module state.
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    self._mutation_target(
                        project, fn, target, declared_globals,
                        module_bindings, class_attrs, module_mutations,
                        class_mutations, site, subscript=False)
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                self._mutator_receiver(
                    project, fn, node.func.value, local_names,
                    module_bindings, class_attrs, module_mutations,
                    class_mutations, site, init_rebinds)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        self._mutator_receiver(
                            project, fn, target.value, local_names,
                            module_bindings, class_attrs,
                            module_mutations, class_mutations, site,
                            init_rebinds)

    def _mutation_target(self, project, fn, target, declared_globals,
                         module_bindings, class_attrs, module_mutations,
                         class_mutations, site, subscript):
        # ``global X; X = ...`` rebinding a tracked module binding.
        if isinstance(target, ast.Name) and target.id in declared_globals:
            qual = f"{fn.module}.{target.id}"
            if qual in module_bindings:
                module_mutations.setdefault(qual, []).append(site)
            return
        # ``Cls.attr = ...`` / ``cls.attr += 1`` / ``type(self).attr``.
        if isinstance(target, ast.Attribute):
            cls_qual = self._class_receiver(project, fn, target.value)
            if cls_qual is not None and not _is_dunder(target.attr):
                key = (cls_qual, target.attr)
                class_mutations.setdefault(key, []).append(site)
                # A monkey-patch of an attr the class body never
                # declares is still shared-state mutation; synthesize a
                # report anchor at the class definition.
                if key not in class_attrs and cls_qual in project.classes:
                    class_attrs[key] = project.classes[cls_qual].node

    def _mutator_receiver(self, project, fn, base, local_names,
                          module_bindings, class_attrs, module_mutations,
                          class_mutations, site, init_rebinds):
        text = dotted_name(base)
        if text is None:
            return
        root, _, rest = text.partition(".")
        # ``REGISTRY.append(x)`` on a module-level binding (local names
        # shadow; ``self`` handled below).
        if not rest and root not in local_names and root != "self":
            candidates = [f"{fn.module}.{root}"]
            imports = project.imports.get(fn.module)
            if imports is not None:
                resolved = imports.resolve(root)
                if resolved is not None:
                    candidates.append(resolved)
            for qual in candidates:
                if qual in module_bindings:
                    module_mutations.setdefault(qual, []).append(site)
                    return
        # ``imported_module.BINDING.append(x)``.
        if rest and root not in local_names and root != "self":
            imports = project.imports.get(fn.module)
            if imports is not None:
                resolved = imports.resolve(root)
                if resolved is not None \
                        and f"{resolved}.{rest}" in module_bindings:
                    module_mutations.setdefault(
                        f"{resolved}.{rest}", []).append(site)
                    return
        # ``Cls.shared.append(x)`` / ``cls.shared.append(x)``.
        if rest and "." not in rest:
            cls_qual = self._class_receiver(
                project, fn, base.value if isinstance(base, ast.Attribute)
                else None)
            if cls_qual is not None:
                key = (cls_qual, rest)
                if key in class_attrs:
                    class_mutations.setdefault(key, []).append(site)
                    return
        # ``self.shared.append(x)`` where ``shared`` is a class-level
        # mutable literal never rebound per-instance in ``__init__``.
        if root == "self" and rest and "." not in rest \
                and fn.cls is not None:
            cls_qual = f"{fn.module}.{fn.cls}"
            key = (cls_qual, rest)
            stmt = class_attrs.get(key)
            if stmt is not None and rest not in init_rebinds:
                value = (stmt.value if isinstance(stmt, (ast.Assign,
                                                         ast.AnnAssign))
                         else None)
                if value is not None and _is_mutable_literal(value):
                    class_mutations.setdefault(key, []).append(site)

    def _class_receiver(self, project: ProjectInfo, fn: FunctionInfo,
                        node: Optional[ast.AST]) -> Optional[str]:
        """Class qualname for ``Cls`` / ``cls`` / ``type(self)``."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if node.id == "cls" and fn.cls is not None:
                return f"{fn.module}.{fn.cls}"
            if node.id == "self":
                return None
            resolved = project.resolve_name(fn.module, node.id)
            if resolved is not None and resolved in project.classes:
                return resolved
            return None
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type" and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self" and fn.cls is not None):
            return f"{fn.module}.{fn.cls}"
        return None

    def _init_rebinds(self, project: ProjectInfo,
                      fn: FunctionInfo) -> Set[str]:
        """Attrs ``__init__`` of fn's class rebinds on ``self``."""
        if fn.cls is None:
            return set()
        init = project.functions.get(f"{fn.module}.{fn.cls}.__init__")
        if init is None:
            return set()
        out: Set[str] = set()
        for node in ast.walk(init.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        out.add(target.attr)
        return out


class _SimEscapeWalker(ForwardWalker[FrozenSet[str]]):
    """SHARD002: per-function Simulator identity tracking.

    A name's value is the set of ``Simulator@line`` construction sites
    it may belong to, joined by union.
    """

    bottom: FrozenSet[str] = frozenset()

    def _join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def _param(self, index: int, name: str) -> FrozenSet[str]:
        return frozenset()

    def summary(self) -> None:
        return None  # identity never crosses a call boundary

    def _augmented(self, node: ast.AugAssign) -> FrozenSet[str]:
        """``x op= value`` keeps ``x``'s regions; the value is still read."""
        self._expr(node.value)
        return self._read(node.target)

    def _assign(self, target: ast.expr, value: FrozenSet[str],
                statement: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            # ``owned_by_a.attr = object_of_b``
            base = self._expr(target.value)
            self._check_mix(statement, base, value,
                            f"stored into .{target.attr} of")
        elif isinstance(target, ast.Subscript):
            base = self._expr(target.value)
            self._check_mix(statement, base, value,
                            "stored into container of")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, statement)

    # -- expressions ---------------------------------------------------

    def _expr(self, node: Optional[ast.expr]) -> FrozenSet[str]:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            return self._expr(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Lambda, ast.Constant)):
            return frozenset()
        out: FrozenSet[str] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._expr(child)
        return out

    def _call(self, node: ast.Call) -> FrozenSet[str]:
        arg_sims = [self._expr(arg) for arg in node.args]
        arg_sims += [self._expr(kw.value) for kw in node.keywords]

        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _SCRUBBING_CALLS:
                return frozenset()
            if func.id == "Simulator" or self._resolves_to_simulator(node):
                return frozenset({f"Simulator@{node.lineno}"})
        elif isinstance(func, ast.Attribute) \
                and self._resolves_to_simulator(node):
            return frozenset({f"Simulator@{node.lineno}"})

        # Method call: the receiver's regions must cover the arguments'.
        if isinstance(func, ast.Attribute):
            receiver = self._expr(func.value)
            joined: FrozenSet[str] = frozenset()
            for sims in arg_sims:
                joined |= sims
            self._check_mix(node, receiver, joined,
                            f"passed into .{func.attr}() of")
            return receiver | joined

        out: FrozenSet[str] = frozenset()
        for sims in arg_sims:
            out |= sims
        return out

    def _resolves_to_simulator(self, node: ast.Call) -> bool:
        resolved = self.engine.graph.resolve_call(node, self.fn.module,
                                                  self.fn.cls)
        if resolved is None:
            return False
        return (resolved.endswith(".Simulator.__init__")
                or resolved.endswith(".Simulator"))

    def _check_mix(self, node: ast.AST, owner: FrozenSet[str],
                   value: FrozenSet[str], how: str) -> None:
        if owner and value and owner.isdisjoint(value):
            self.hits.append((
                node,
                f"object constructed under {sorted(value)[0]} {how} an "
                f"object of {sorted(owner)[0]} (in {self.fn.qualname}); "
                "regions exchange bytes across the gateway seam, never "
                "live objects",
                (f"value belongs to {', '.join(sorted(value))}",
                 f"owner belongs to {', '.join(sorted(owner))}",
                 f"{how.strip()} at line {getattr(node, 'lineno', 0)}"),
            ))


class _SimEscapeEngine(ForwardEngine):
    """Runs the SHARD002 walker over every function.

    Its summary is always None, so the first sweep changes nothing and
    is the only one.
    """

    walker = _SimEscapeWalker
