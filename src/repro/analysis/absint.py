"""Interprocedural abstract interpretation over the units lattice.

This is the second domain of the forward walker in
:mod:`repro.analysis.dataflow`, which owns the statement scan, the
branch join, the loop passes and the project fixpoint; this module
supplies the units-of-measure lattice from :mod:`repro.analysis.units`
instead of taint origin sets.  Each local name maps to a
:class:`UVal`: the best-known dimension, a bounded provenance chain
explaining *why* we believe it, and the set of the function's own
parameters whose dimension flows into it (the hook for
interprocedural propagation).  Beyond its join and transfers the
domain keeps two rules of its own: ``x op= y`` goes through the
arithmetic transfer, and a ``for`` target inherits only a time
dimension from its iterable.

Two rule families hang off the walk:

* **UNIT001** — additive arithmetic whose operands carry two different
  concrete dimensions (``duration_seconds + link_latency`` adds float
  seconds to integer microseconds),
* **UNIT002** — a dimensioned value reaching a sink that demands a
  different dimension: scheduler delays (``Simulator.schedule`` /
  ``.at``), ``Rate.tick``'s clock argument, counter bumps whose name
  does not declare a unit, the ``seconds()`` converter, and
  bytes/bits-confused stores.

Sink obligations propagate through calls: a helper that forwards its
parameter into ``sim.schedule`` exports ``params_to_sink``, and the
caller-side check fires when a ``sim_seconds`` value is passed into
that parameter — the ms-vs-s *laundering* case where neither function
alone looks wrong.

Soundness posture matches the taint engine: unresolved calls and
unrepresentable arithmetic drop to ``unknown`` (silence), so every
report rests on two concrete, conflicting facts with a printable
provenance chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.analysis.callgraph import FunctionInfo
from repro.analysis.dataflow import ForwardEngine, ForwardWalker
from repro.analysis.imports import call_qualname, dotted_name
from repro.analysis import units
from repro.analysis.units import MIXED, UNKNOWN

#: Provenance chains are evidence, not stack traces.
_MAX_PROVENANCE = 5

#: Builtins whose result keeps the dimension of their arguments.
_PASSTHROUGH_BUILTINS = frozenset(
    {"int", "float", "round", "abs", "max", "min", "sum"})


@dataclass(frozen=True)
class UVal:
    """Abstract value: dimension + evidence + parameter dependence."""

    dim: str = UNKNOWN
    prov: Tuple[str, ...] = ()
    params: FrozenSet[int] = frozenset()

    def with_step(self, step: str) -> "UVal":
        if len(self.prov) >= _MAX_PROVENANCE:
            return self
        return UVal(dim=self.dim, prov=self.prov + (step,),
                    params=self.params)


_TOP_UNKNOWN = UVal()


def _join_vals(a: UVal, b: UVal) -> UVal:
    dim = units.join(a.dim, b.dim)
    # Keep the evidence of whichever side established the joined dim.
    if dim == a.dim and a.prov:
        prov = a.prov
    elif dim == b.dim and b.prov:
        prov = b.prov
    else:
        prov = (a.prov + b.prov)[:_MAX_PROVENANCE]
    return UVal(dim=dim, prov=prov, params=a.params | b.params)


@dataclass(frozen=True)
class SinkObligation:
    """What a callee does with one of its parameters."""

    kind: str                    #: ``scheduler`` | ``tick`` | ``convert``
    target: str                  #: printable sink, e.g. ``.schedule() delay``
    forbidden: FrozenSet[str]    #: dimensions that must not arrive here


@dataclass(frozen=True)
class UnitHit:
    """One rule violation found inside one function."""

    node: ast.AST
    rule: str                    #: ``UNIT001`` or ``UNIT002``
    message: str
    provenance: Tuple[str, ...]

    def key(self) -> tuple:
        return (getattr(self.node, "lineno", 0),
                getattr(self.node, "col_offset", 0),
                self.rule, self.message)


@dataclass(frozen=True)
class UnitSummary:
    """Interprocedural facts about one function.

    Equality compares facts: it leaves out ``returns_prov`` and each
    obligation's printable ``target``.
    """

    returns_dim: str = UNKNOWN
    returns_params: FrozenSet[int] = frozenset()
    returns_prov: Tuple[str, ...] = ()
    params_to_sink: Mapping[int, SinkObligation] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UnitSummary)
                and self._facts() == other._facts())

    def _facts(self) -> tuple:
        return (self.returns_dim, self.returns_params,
                {index: (obligation.kind, obligation.forbidden)
                 for index, obligation in self.params_to_sink.items()})


class _UnitWalker(ForwardWalker[UVal]):
    """The units domain: one :class:`UVal` per local name."""

    bottom = _TOP_UNKNOWN

    def __init__(self, engine: ForwardEngine, fn: FunctionInfo) -> None:
        super().__init__(engine, fn)
        self.params_to_sink: Dict[int, SinkObligation] = {}

    def _join(self, a: UVal, b: UVal) -> UVal:
        return _join_vals(a, b)

    def _param(self, index: int, name: str) -> UVal:
        dim = units.unit_for_name(name)
        prov = ((f"param '{name}' seeds {dim} (name convention)",)
                if dim != UNKNOWN else ())
        return UVal(dim=dim, prov=prov, params=frozenset({index}))

    def run(self) -> None:
        super().run()
        # Loops are scanned twice: keep the first of each repeated hit.
        unique: Dict[tuple, UnitHit] = {}
        for hit in self.hits:
            unique.setdefault(hit.key(), hit)
        self.hits = list(unique.values())

    def summary(self) -> UnitSummary:
        returned = self.returns
        dim = returned.dim if returned.dim != MIXED else UNKNOWN
        return UnitSummary(returns_dim=dim,
                           returns_params=returned.params,
                           returns_prov=returned.prov,
                           params_to_sink=dict(self.params_to_sink))

    def _augmented(self, node: ast.AugAssign) -> UVal:
        return self._binop_value(node.op, self._read(node.target),
                                 self._expr(node.value), node)

    def _loop_element(self, iterable: UVal) -> UVal:
        return UVal(dim=iterable.dim
                    if iterable.dim in units.TIME_DIMENSIONS else UNKNOWN,
                    prov=iterable.prov, params=iterable.params)

    # -- assignment targets --------------------------------------------

    def _assign(self, target: ast.expr, value: UVal,
                statement: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            self._check_declared_store(target, target.id, value, statement)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, _TOP_UNKNOWN, statement)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, _TOP_UNKNOWN, statement)
        elif isinstance(target, ast.Attribute):
            self._check_declared_store(target, target.attr, value, statement)

    def _check_declared_store(self, node: ast.AST, name: str, value: UVal,
                              statement: ast.stmt) -> None:
        """UNIT002: a store into a name whose spelling declares a unit.

        Only the two confusion families the repo actually risks are
        flagged — a time dimension stored under a *different* time
        dimension's name (the ms-vs-s bug), and bits/bytes swaps — so
        generically-named stores stay silent.
        """
        declared = units.unit_for_name(name)
        if declared == UNKNOWN or value.dim == UNKNOWN \
                or value.dim == declared or value.dim == MIXED:
            return
        pair = {declared, value.dim}
        time_swap = pair <= units.TIME_DIMENSIONS
        size_swap = pair == {"bits", "bytes"}
        if not (time_swap or size_swap):
            return
        self.hits.append(UnitHit(
            node=statement, rule="UNIT002",
            message=(f"store into '{name}' (declared {declared}) receives "
                     f"a {value.dim} value; convert explicitly at the "
                     "boundary instead of renaming the unit"),
            provenance=value.prov + (f"stored into '{name}' "
                                     f"declared {declared}",),
        ))

    # -- expressions ---------------------------------------------------

    def _expr(self, node: Optional[ast.expr]) -> UVal:
        if node is None:
            return _TOP_UNKNOWN
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._binop_value(node.op, self._expr(node.left),
                                     self._expr(node.right), node)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return _join_vals(self._expr(node.body), self._expr(node.orelse))
        if isinstance(node, ast.BoolOp):
            out = _TOP_UNKNOWN
            for value in node.values:
                out = _join_vals(out, self._expr(value))
            return out
        if isinstance(node, ast.Compare):
            operands = [self._expr(node.left)]
            operands += [self._expr(comp) for comp in node.comparators]
            self._check_comparison(node, operands)
            return _TOP_UNKNOWN  # booleans are dimensionless
        if isinstance(node, ast.Subscript):
            container = self._expr(node.value)
            self._expr(node.slice)
            # Containers named for a time unit hold timestamps; other
            # element types (a byte of a buffer, a dict value) are not
            # recoverable from the name, so they stay unknown.
            if container.dim in units.TIME_DIMENSIONS:
                return UVal(dim=container.dim, prov=container.prov,
                            params=container.params)
            return _TOP_UNKNOWN
        if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp)):
            return _TOP_UNKNOWN
        if isinstance(node, ast.Constant):
            return _TOP_UNKNOWN
        out = _TOP_UNKNOWN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
        return out

    def _name(self, node: ast.Name) -> UVal:
        if node.id in self.env:
            return self.env[node.id]
        # A module-level constant, possibly imported: SECOND, MS, ...
        resolved = self.imports.resolve(node.id)
        if resolved is not None and resolved in units.NAME_SEEDS:
            dim = units.NAME_SEEDS[resolved]
            return UVal(dim=dim, prov=(f"{resolved} is {dim}",))
        dim = units.unit_for_name(node.id)
        if dim != UNKNOWN:
            return UVal(dim=dim,
                        prov=(f"name '{node.id}' seeds {dim}",))
        return _TOP_UNKNOWN

    def _attribute(self, node: ast.Attribute) -> UVal:
        self._expr(node.value)
        text = dotted_name(node)
        if text is not None:
            root, _, rest = text.partition(".")
            base = self.imports.resolve(root)
            if base is not None and rest:
                qual = f"{base}.{rest}"
                if qual in units.NAME_SEEDS:
                    dim = units.NAME_SEEDS[qual]
                    return UVal(dim=dim, prov=(f"{qual} is {dim}",))
        dim = units.unit_for_name(node.attr)
        if dim != UNKNOWN:
            receiver = (node.value.id
                        if isinstance(node.value, ast.Name) else "<expr>")
            return UVal(dim=dim, prov=(
                f"{receiver}.{node.attr} seeds {dim}",))
        return _TOP_UNKNOWN

    # -- arithmetic ----------------------------------------------------

    def _binop_value(self, op: ast.operator, left: UVal, right: UVal,
                     node: ast.AST) -> UVal:
        if isinstance(op, (ast.Add, ast.Sub)):
            if units.add_conflict(left.dim, right.dim):
                word = "+" if isinstance(op, ast.Add) else "-"
                self.hits.append(UnitHit(
                    node=node, rule="UNIT001",
                    message=(f"arithmetic mixes {left.dim} {word} "
                             f"{right.dim}; convert one side through "
                             "repro.sim.clock before combining"),
                    provenance=(left.prov + right.prov
                                + (f"mixed as {left.dim} {word} "
                                   f"{right.dim}",))[:_MAX_PROVENANCE + 2],
                ))
            dim = units.add_result(left.dim, right.dim)
        elif isinstance(op, ast.Mult):
            dim = units.mul_result(left.dim, right.dim)
        elif isinstance(op, (ast.Div, ast.FloorDiv)):
            dim = units.div_result(left.dim, right.dim)
        else:
            dim = UNKNOWN
        prov = (left.prov + right.prov)[:_MAX_PROVENANCE]
        params = left.params | right.params
        if dim == UNKNOWN:
            # The result carries no dimension, so the evidence and the
            # parameter dependence die with it.
            return _TOP_UNKNOWN
        return UVal(dim=dim, prov=prov, params=params)

    def _check_comparison(self, node: ast.Compare,
                          operands: List[UVal]) -> None:
        """UNIT001 for ``a < b`` comparing two different time dims."""
        dims = [v for v in operands if v.dim in units.TIME_DIMENSIONS]
        for index in range(len(dims) - 1):
            a, b = dims[index], dims[index + 1]
            if a.dim != b.dim:
                self.hits.append(UnitHit(
                    node=node, rule="UNIT001",
                    message=(f"comparison mixes {a.dim} and {b.dim}; "
                             "convert one side through repro.sim.clock "
                             "before comparing"),
                    provenance=(a.prov + b.prov
                                + (f"compared {a.dim} vs {b.dim}",)),
                ))

    # -- calls ---------------------------------------------------------

    def _call(self, node: ast.Call) -> UVal:
        arg_vals = [self._expr(arg) for arg in node.args]
        for keyword in node.keywords:
            self._expr(keyword.value)

        self._check_sinks(node, arg_vals)

        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "len":
                return self._len_call(node)
            if func.id in _PASSTHROUGH_BUILTINS:
                out = _TOP_UNKNOWN
                for value in arg_vals:
                    out = _join_vals(out, value)
                if out.dim == MIXED:
                    return _TOP_UNKNOWN
                return out

        qual = call_qualname(node, self.imports)
        if qual is not None and qual in units.CALL_SEEDS:
            dim = units.CALL_SEEDS[qual]
            return UVal(dim=dim, prov=(f"{qual}() returns {dim}",))

        resolved = self.engine.graph.resolve_call(node, self.fn.module,
                                                  self.fn.cls)
        if resolved is not None:
            summary = self.engine.summaries.get(resolved)
            if summary is not None:
                self._check_callee_obligations(node, resolved, summary,
                                               arg_vals)
                out = UVal(dim=summary.returns_dim,
                           prov=tuple(f"{step} (via {resolved})"
                                      for step in summary.returns_prov[:2]))
                for index in summary.returns_params:
                    if index < len(arg_vals):
                        out = _join_vals(out, arg_vals[index])
                if out.dim in (MIXED,):
                    return _TOP_UNKNOWN
                return out
        return _TOP_UNKNOWN

    def _len_call(self, node: ast.Call) -> UVal:
        argument = node.args[0] if node.args else None
        name = dotted_name(argument) if argument is not None else None
        dim = units.len_unit(name)
        label = name or "<expr>"
        return UVal(dim=dim, prov=(f"len({label}) is {dim}",))

    # -- sinks ---------------------------------------------------------

    def _check_sinks(self, node: ast.Call, arg_vals: List[UVal]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            # ``seconds(x)`` converter called as a bare name.
            qual = call_qualname(node, self.imports)
            if qual == "repro.sim.clock.seconds" and arg_vals:
                self._apply_sink(node, arg_vals[0], SinkObligation(
                    kind="convert", target="clock.seconds() argument",
                    forbidden=frozenset({"sim_us", "bytes", "bits",
                                         "baud"})))
            return
        if func.attr in units.SCHEDULER_SINKS and arg_vals:
            self._apply_sink(node, arg_vals[0], SinkObligation(
                kind="scheduler",
                target=f".{func.attr}() delay/time argument",
                forbidden=units.SCHEDULER_FORBIDDEN))
        elif func.attr == "tick" and arg_vals:
            self._apply_sink(node, arg_vals[0], SinkObligation(
                kind="tick", target=".tick() clock argument",
                forbidden=units.TICK_FORBIDDEN))
        elif func.attr == "bump" and len(node.args) >= 2:
            counter = node.args[0]
            amount = arg_vals[1]
            if (isinstance(counter, ast.Constant)
                    and isinstance(counter.value, str)
                    and amount.dim in units.TIME_DIMENSIONS
                    and not counter.value.endswith(
                        units.COUNTER_DECLARED_SUFFIXES)):
                self.hits.append(UnitHit(
                    node=node, rule="UNIT002",
                    message=(f"{amount.dim} value bumped into counter "
                             f"'{counter.value}' whose name declares no "
                             "unit; rename the counter with a _us/_seconds "
                             "suffix or bump a plain count"),
                    provenance=amount.prov + (
                        f"bumped into counter '{counter.value}'",),
                ))

    def _apply_sink(self, node: ast.Call, value: UVal,
                    obligation: SinkObligation) -> None:
        if value.dim in obligation.forbidden:
            self.hits.append(UnitHit(
                node=node, rule="UNIT002",
                message=(f"{value.dim} value flows into "
                         f"{obligation.target}, which requires "
                         "integer sim microseconds"
                         if obligation.kind != "convert" else
                         f"{value.dim} value flows into "
                         f"{obligation.target}, which expects float "
                         "seconds"),
                provenance=value.prov + (f"reaches {obligation.target}",),
            ))
        # Export the obligation for callers passing through a parameter.
        for index in value.params:
            self.params_to_sink.setdefault(index, obligation)

    def _check_callee_obligations(self, node: ast.Call, callee: str,
                                  summary: UnitSummary,
                                  arg_vals: List[UVal]) -> None:
        for index, obligation in summary.params_to_sink.items():
            if index >= len(arg_vals):
                continue
            value = arg_vals[index]
            chained = SinkObligation(
                kind=obligation.kind,
                target=f"{callee} -> {obligation.target}",
                forbidden=obligation.forbidden)
            self._apply_sink_via_call(node, value, chained, index, callee)

    def _apply_sink_via_call(self, node: ast.Call, value: UVal,
                             obligation: SinkObligation, index: int,
                             callee: str) -> None:
        if value.dim in obligation.forbidden:
            self.hits.append(UnitHit(
                node=node, rule="UNIT002",
                message=(f"{value.dim} value passed as argument "
                         f"{index} of {callee} reaches "
                         f"{obligation.target.split(' -> ')[-1]} "
                         "unconverted; convert at this call site"),
                provenance=value.prov + (
                    f"argument {index} of {callee}",
                    f"reaches {obligation.target.split(' -> ')[-1]}"),
            ))
        for param in value.params:
            self.params_to_sink.setdefault(param, obligation)


class UnitEngine(ForwardEngine):
    """Runs the units walker to a whole-project fixpoint."""

    walker = _UnitWalker
