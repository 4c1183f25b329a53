"""Forward dataflow over function ASTs: one walker, several domains.

:class:`ForwardWalker` is a forward abstract interpreter generic in its
domain.  It owns the control flow: the statement scan, the fork and
join at branches, loop bodies scanned twice (enough for the
loop-carried assignments this codebase writes), reading a name back
out of the environment, and -- in :class:`ForwardEngine` -- the
project fixpoint that re-walks every function until no per-function
summary changes.  A domain supplies its bottom value, its join, the
entry value of a parameter, the expression transfer (``_expr``), the
store transfer (``_assign``) and the summary it exports; it may also
override the augmented-assignment and loop-element rules.  Three
domains exist: taint, below, units of measure in
:mod:`repro.analysis.absint`, and SHARD002's Simulator identity in
:mod:`repro.analysis.passes.shard`.

Summaries compare by their facts only (parameter indices, returned
origins or dimensions, sink kinds), never by the printable reach text
they carry for reports: a self-recursive helper that passes a
parameter to itself grows that text by one ``callee ->`` hop per
sweep, so a text comparison would never settle.

**The taint domain.**  Each local name maps to a *set of origins*
(powerset lattice, join = union), where an origin is either a true
nondeterminism source (``time.time()`` observed somewhere along the
chain) or one of the function's own parameters.  Parameter origins
never become findings directly -- they exist so the fixpoint can
compute per-function summaries:

* ``returns`` -- origins that can flow into a return value,
* ``params_to_state`` -- parameter indices whose value can reach sim
  object state (a ``self.attr`` store or a scheduler argument), with
  the attribute/callee it reaches,

and the caller-side analysis can then turn "I passed a tainted value
into parameter 2 of ``netstack.NetStack.set_stamp``" into a finding at
the call site.  Attribute state is deliberately untracked: a taint
*dies* at the ``self.attr`` store, which is exactly the point where
DETFLOW reports it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (Any, Dict, FrozenSet, Generic, Iterable, List, Mapping,
                    Optional, Type, TypeVar)

from repro.analysis.callgraph import CallGraph, FunctionInfo, ProjectInfo
from repro.analysis.imports import ImportMap, call_qualname
from repro.analysis.units import SCHEDULER_ENTRY_POINTS

#: Method names that hand a value to the discrete-event scheduler.
SCHEDULER_METHODS = frozenset(SCHEDULER_ENTRY_POINTS)

#: Fixpoint safety valve.  Summaries compare facts only, so the taint
#: domain settles on this repository in 5 sweeps and units in 2.
_MAX_ITERATIONS = 10

#: An abstract value of the walker's domain.
V = TypeVar("V")


class ForwardEngine:
    """Runs one domain's walker over every function to a fixpoint."""

    #: The domain's walker class, set by each engine.
    walker: Type[ForwardWalker]

    def __init__(self, project: ProjectInfo, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.summaries: Dict[str, Any] = {}
        self._hits: Dict[str, List[Any]] = {}

    def run(self) -> None:
        """Iterate summaries to fixpoint, then record final hits."""
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for fn in self.project.functions.values():
                walker = self.walker(self, fn)
                walker.run()
                summary = walker.summary()
                if self.summaries.get(fn.qualname) != summary:
                    self.summaries[fn.qualname] = summary
                    changed = True
                self._hits[fn.qualname] = walker.hits
            if not changed:
                break

    def hits(self, qualname: str) -> List[Any]:
        """Hits of one function from the last sweep."""
        return self._hits.get(qualname, [])


class ForwardWalker(Generic[V]):
    """One forward pass over one function body, in one domain.

    A domain sets ``bottom`` and implements the methods under "the
    domain" below; the augmented-assignment and loop-element rules
    have defaults it may override.
    """

    #: Value of an unbound name, and the identity of :meth:`_join`.
    bottom: V

    def __init__(self, engine: ForwardEngine, fn: FunctionInfo) -> None:
        self.engine = engine
        self.fn = fn
        self.imports: ImportMap = engine.project.imports.get(fn.module,
                                                             ImportMap())
        self.env: Dict[str, V] = {name: self._param(index, name)
                                  for index, name in enumerate(fn.params)}
        self.hits: List[Any] = []
        self.returns: V = self.bottom

    # -- the domain ----------------------------------------------------

    def _join(self, a: V, b: V) -> V:
        """Least upper bound of two values."""
        raise NotImplementedError

    def _param(self, index: int, name: str) -> V:
        """Entry value of parameter ``index``."""
        raise NotImplementedError

    def _expr(self, node: Optional[ast.expr]) -> V:
        """Expression transfer: the value of ``node``, noting any hits."""
        raise NotImplementedError

    def _assign(self, target: ast.expr, value: V,
                statement: ast.stmt) -> None:
        """Store transfer: bind ``value`` to ``target``."""
        raise NotImplementedError

    def summary(self) -> Any:
        """The facts this function exports to its callers."""
        raise NotImplementedError

    def _augmented(self, node: ast.AugAssign) -> V:
        """Value ``target op= value`` stores: the join of both sides."""
        return self._join(self._expr(node.value), self._read(node.target))

    def _loop_element(self, iterable: V) -> V:
        """Value a ``for`` target is bound to: the iterable's own."""
        return iterable

    # -- statements ----------------------------------------------------

    def run(self) -> None:
        self._scan_block(getattr(self.fn.node, "body", []))

    def _scan_block(self, statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            self._scan_statement(statement)

    def _scan_statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(node, ast.Assign):
            value = self._expr(node.value)
            for target in node.targets:
                self._assign(target, value, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._expr(node.value), node)
        elif isinstance(node, ast.AugAssign):
            self._assign(node.target, self._augmented(node), node)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returns = self._join(self.returns,
                                          self._expr(node.value))
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            before = dict(self.env)
            self._scan_block(node.body)
            after_body = self.env
            self.env = before
            self._scan_block(node.orelse)
            self._merge(after_body)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            element = self._loop_element(self._expr(node.iter))
            # Two passes approximate the loop fixpoint.
            for _ in range(2):
                self._assign(node.target, element, node)
                self._scan_block(node.body)
            self._scan_block(node.orelse)
        elif isinstance(node, ast.While):
            for _ in range(2):
                self._expr(node.test)
                self._scan_block(node.body)
            self._scan_block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, node)
            self._scan_block(node.body)
        elif isinstance(node, ast.Try):
            self._scan_block(node.body)
            for handler in node.handlers:
                self._scan_block(handler.body)
            self._scan_block(node.orelse)
            self._scan_block(node.finalbody)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
        # Pass/Break/Continue/Import/Global/Nonlocal/Delete: no flow.

    def _merge(self, other: Dict[str, V]) -> None:
        for name, value in other.items():
            self.env[name] = (self._join(self.env[name], value)
                              if name in self.env else value)

    def _read(self, target: ast.expr) -> V:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, self.bottom)
        return self.bottom


@dataclass(frozen=True)
class Origin:
    """Where a tainted value ultimately came from."""

    kind: str       #: ``source`` (true nondeterminism) or ``param``
    detail: str     #: e.g. ``time.perf_counter()`` or the param name
    line: int = 0   #: line of the source call (param origins: 0)
    param: int = -1  #: parameter index for ``param`` origins
    via: str = ""   #: qualname chain hint for the report

    def described(self) -> str:
        chain = f" via {self.via}" if self.via else ""
        return f"{self.detail}{chain}"


Taint = FrozenSet[Origin]
_CLEAN: Taint = frozenset()


@dataclass(frozen=True)
class SinkHit:
    """A tainted value reaching sim state, with the evidence."""

    node: ast.AST          #: the store / call the taint reached
    sink: str              #: ``state-store`` | ``event-schedule`` | ``call-arg``
    target: str            #: attribute name, scheduler method, or callee
    origins: Taint


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one function.

    Equality compares facts: the returned origins and *which*
    parameters reach state, not the reach text that says how.
    """

    returns: Taint = _CLEAN
    params_to_state: Mapping[int, str] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FunctionSummary)
                and self.returns == other.returns
                and set(self.params_to_state) == set(other.params_to_state))


class _TaintWalker(ForwardWalker[Taint]):
    """The taint domain: origin sets joined by union."""

    engine: TaintEngine
    bottom = _CLEAN

    def __init__(self, engine: TaintEngine, fn: FunctionInfo) -> None:
        super().__init__(engine, fn)
        self.params_to_state: Dict[int, str] = {}

    def _join(self, a: Taint, b: Taint) -> Taint:
        return a | b

    def _param(self, index: int, name: str) -> Taint:
        return frozenset({Origin(kind="param", detail=name, param=index)})

    def summary(self) -> FunctionSummary:
        return FunctionSummary(returns=self.returns,
                               params_to_state=dict(self.params_to_state))

    # -- assignment targets --------------------------------------------

    def _assign(self, target: ast.expr, value: Taint,
                statement: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, statement)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, statement)
        elif isinstance(target, ast.Attribute):
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and value):
                self._record_state_hit(target, target.attr, value)
        elif isinstance(target, ast.Subscript):
            # ``container[k] = tainted``: the container becomes tainted.
            if isinstance(target.value, ast.Name) and value:
                base = self.env.get(target.value.id, _CLEAN)
                self.env[target.value.id] = base | value
            elif (isinstance(target.value, ast.Attribute)
                  and isinstance(target.value.value, ast.Name)
                  and target.value.value.id == "self" and value):
                self._record_state_hit(target, target.value.attr, value)

    def _record_state_hit(self, node: ast.AST, attr: str,
                          taint: Taint) -> None:
        self.hits.append(SinkHit(node=node, sink="state-store",
                                 target=f"self.{attr}", origins=taint))
        for origin in taint:
            if origin.kind == "param" and origin.param >= 0:
                self.params_to_state.setdefault(origin.param, f"self.{attr}")

    # -- expressions ---------------------------------------------------

    def _expr(self, node: Optional[ast.expr]) -> Taint:
        if node is None:
            return _CLEAN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _CLEAN)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self._expr(node.value)
        if isinstance(node, ast.Lambda):
            return _CLEAN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            taint = _CLEAN
            for generator in node.generators:
                taint |= self._expr(generator.iter)
            return taint
        # Everything else: join over child expressions.
        taint = _CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taint |= self._expr(child)
        return taint

    def _call(self, node: ast.Call) -> Taint:
        arg_taints = [self._expr(arg) for arg in node.args]
        kw_taints = [self._expr(kw.value) for kw in node.keywords]
        joined_args = _CLEAN
        for taint in arg_taints + kw_taints:
            joined_args |= taint

        self._check_scheduler(node, arg_taints, kw_taints)

        qual = call_qualname(node, self.imports)
        if qual is not None and qual in self.engine.sources:
            description = self.engine.sources[qual]
            return joined_args | frozenset({Origin(
                kind="source", detail=description, line=node.lineno)})

        resolved = self.engine.graph.resolve_call(node, self.fn.module,
                                                  self.fn.cls)
        if resolved is not None:
            self._check_callee_params(node, resolved, arg_taints)
            summary = self.engine.summaries.get(resolved)
            if summary is not None and summary.returns:
                out = set(joined_args)
                for origin in summary.returns:
                    if origin.kind == "source":
                        via = origin.via or resolved
                        out.add(replace(origin, via=via))
                    # param origins of the callee map to our arg taints
                    elif 0 <= origin.param < len(arg_taints):
                        out |= arg_taints[origin.param]
                return frozenset(out)
            return joined_args

        # Unknown call: taint flows through (str(t), int(t), t.method()).
        func_taint = (self._expr(node.func.value)
                      if isinstance(node.func, ast.Attribute) else _CLEAN)
        return joined_args | func_taint

    def _check_callee_params(self, node: ast.Call, callee: str,
                             arg_taints: List[Taint]) -> None:
        summary = self.engine.summaries.get(callee)
        if summary is None:
            return
        for index, reaches in summary.params_to_state.items():
            if index >= len(arg_taints):
                continue
            taint = arg_taints[index]
            if taint:
                self.hits.append(SinkHit(
                    node=node, sink="call-arg",
                    target=f"{callee} -> {reaches}", origins=taint))
                for origin in taint:
                    if origin.kind == "param" and origin.param >= 0:
                        self.params_to_state.setdefault(
                            origin.param, f"{callee} -> {reaches}")

    def _check_scheduler(self, node: ast.Call, arg_taints: List[Taint],
                         kw_taints: List[Taint]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SCHEDULER_METHODS):
            return
        joined = _CLEAN
        for taint in arg_taints + kw_taints:
            joined |= taint
        if joined:
            self.hits.append(SinkHit(node=node, sink="event-schedule",
                                     target=func.attr, origins=joined))
            for origin in joined:
                if origin.kind == "param" and origin.param >= 0:
                    self.params_to_state.setdefault(
                        origin.param, f"scheduler .{func.attr}()")


class TaintEngine(ForwardEngine):
    """Runs the taint walker to a whole-project fixpoint."""

    walker = _TaintWalker

    def __init__(self, project: ProjectInfo, graph: CallGraph,
                 sources: Mapping[str, str]) -> None:
        """``sources`` maps qualified call names to a short description."""
        super().__init__(project, graph)
        self.sources = dict(sources)

    def source_hits(self, qualname: str) -> List[SinkHit]:
        """Sink hits carrying at least one true-source origin."""
        out = []
        for hit in self.hits(qualname):
            sources = frozenset(o for o in hit.origins if o.kind == "source")
            if sources:
                out.append(replace(hit, origins=sources))
        return out
