"""The bounded explicit-state search.

One transition = one head event executed under one decision script.
From a given state the explorer enumerates (a) every pending event at
the earliest timestamp -- each is a legal kernel schedule -- and (b)
for each event, every resolution of the :class:`ChoicePoint` draws it
makes, discovered incrementally: run once with defaults, read the
recorded trace, and branch an alternative script per decision
(an odometer over the choice tree).

Backtracking is snapshot-based: the state is captured once, the first
branch runs on the live world itself, and every later branch runs on a
fresh copy restored from the snapshot, so exploration never needs an
"undo" from any layer of the stack.

Two classic reductions keep the walk tractable:

* **Visited-state dedup.**  States are fingerprinted canonically
  (:mod:`repro.check.snapshot`); re-reaching a fingerprint re-explores
  only transitions not yet taken from it.
* **Sleep-set POR** (Godefroid).  After exploring transition ``t``
  from state ``s``, sibling subtrees need not re-run ``t`` first when
  ``t`` is independent of their own first step -- the two orders
  commute to the same state.  Independence is resource-disjointness as
  declared by the world, which may always answer "conflicts with
  everything" and lose only reduction, never soundness.  The visited
  set stores *explored transition keys* per fingerprint, so a state
  re-reached with a more permissive sleep set re-explores exactly the
  transitions the first visit slept through (the standard patch for
  combining sleep sets with state caching).

Safety invariants are checked at every state.  Liveness is checked
where it is decidable in a finite walk: a terminal (event-free) state
with outstanding obligations, or a lasso back onto the DFS stack with
obligations still pending, is a violation.  The fairness assumption
making this meaningful lives in the worlds: drop budgets are finite,
so "the schedule loses every retransmission forever" is not a
reachable path.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.check.snapshot import StateCapturer, fingerprint
from repro.check.worlds import Lapb2World, World, _args_summary, independent
from repro.faults.inject import ChoicePoint
from repro.sim.engine import Event


@dataclass
class Budget:
    """Exploration bounds; the result reports whether any was hit."""

    max_states: int = 50_000
    max_transitions: int = 500_000
    max_depth: int = 300
    max_wall_seconds: float = 30.0


@dataclass
class Step:
    """One transition on a counterexample path, replayably encoded."""

    time: int
    event_index: int          # position in head_events() (seq order)
    label: str
    choices: List[ChoicePoint] = field(default_factory=list)

    @property
    def script(self) -> List[int]:
        """The decision script that reproduces this step's choices."""
        return [point.chosen for point in self.choices]

    def render(self) -> str:
        text = f"t={self.time}us  event[{self.event_index}] {self.label}"
        if self.choices:
            picks = ", ".join(f"{p.name}={p.chosen}" for p in self.choices)
            text += f"  [{picks}]"
        return text


@dataclass
class Violation:
    """One property violation plus the path that reaches it."""

    kind: str                 # "safety" or "liveness"
    invariant: str
    message: str
    path: List[Step]

    @property
    def depth(self) -> int:
        return len(self.path)

    def render(self) -> str:
        lines = [f"{self.kind} violation of {self.invariant} "
                 f"after {self.depth} step(s): {self.message}"]
        lines += [f"  {index:3d}. {step.render()}"
                  for index, step in enumerate(self.path, 1)]
        return "\n".join(lines)


@dataclass
class ExplorationResult:
    """Everything one bounded walk learned."""

    world: str
    por: bool
    states: int = 0           # distinct fingerprints
    transitions: int = 0      # step_event executions
    revisits: int = 0         # arrivals at an already-known fingerprint
    sleep_skips: int = 0      # transitions pruned by sleep sets
    terminal_states: int = 0
    cycles: int = 0
    truncated: int = 0        # paths cut by the depth bound
    max_depth_seen: int = 0
    elapsed: float = 0.0
    complete: bool = True     # False when any budget tripped
    violations: List[Violation] = field(default_factory=list)

    @property
    def states_per_second(self) -> float:
        return self.states / self.elapsed if self.elapsed > 0 else 0.0

    def shortest_violation(self) -> Optional[Violation]:
        if not self.violations:
            return None
        return min(self.violations, key=lambda violation: violation.depth)

    def summary(self) -> Dict[str, object]:
        """Flat metrics for BENCH json."""
        return {
            "world": self.world,
            "por": self.por,
            "states": self.states,
            "transitions": self.transitions,
            "revisits": self.revisits,
            "sleep_skips": self.sleep_skips,
            "terminal_states": self.terminal_states,
            "cycles": self.cycles,
            "truncated": self.truncated,
            "max_depth": self.max_depth_seen,
            "elapsed_s": round(self.elapsed, 4),
            "states_per_second": round(self.states_per_second, 1),
            "complete": self.complete,
            "violations": len(self.violations),
        }


#: A transition's identity across visits: (event label, payload summary).
TransitionKey = Tuple[str, tuple]


def _transition_key(event: Event) -> TransitionKey:
    label = event.label or getattr(event.fn, "__qualname__", repr(event.fn))
    return (label, _args_summary(event.args))


class Explorer:
    """Bounded DFS over one world's schedules and fault choices."""

    def __init__(self, factory, por: bool = True,
                 budget: Optional[Budget] = None,
                 max_violations: int = 10,
                 dedup: bool = True) -> None:
        self.factory = factory
        self.por = por
        #: Visited-state caching.  Disable (with POR) to walk the raw
        #: execution tree -- the baseline that isolates how much work
        #: partial-order reduction alone saves, as reported in BENCH_mc.
        self.dedup = dedup
        self.budget = budget or Budget()
        self.max_violations = max_violations
        self.capturer = StateCapturer()
        self._visited: Dict[str, Set[TransitionKey]] = {}
        self._stack_fps: Set[str] = set()
        self._started = 0.0
        self.result: Optional[ExplorationResult] = None

    def run(self) -> ExplorationResult:
        """Explore from the world's initial state to fixpoint or budget.

        The world the factory returns is consumed: the first branch
        from each state advances it in place.
        """
        world = self.factory()
        self.result = ExplorationResult(world=world.name, por=self.por)
        self._visited = {}
        self._stack_fps = set()
        self._started = time.perf_counter()
        previous_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous_limit, 8 * self.budget.max_depth + 1000))
        try:
            self._explore(world, depth=0, sleep={}, path=[])
        finally:
            sys.setrecursionlimit(previous_limit)
        self.result.elapsed = time.perf_counter() - self._started
        return self.result

    # ------------------------------------------------------------------

    def _over_budget(self) -> bool:
        result = self.result
        if (result.states >= self.budget.max_states
                or result.transitions >= self.budget.max_transitions
                or time.perf_counter() - self._started
                >= self.budget.max_wall_seconds):
            result.complete = False
            return True
        return False

    def _record(self, kind: str, invariant: str, message: str,
                path: List[Step]) -> None:
        if len(self.result.violations) < self.max_violations:
            self.result.violations.append(
                Violation(kind, invariant, message, list(path)))

    def _explore(self, world: World, depth: int,
                 sleep: Dict[TransitionKey, frozenset],
                 path: List[Step]) -> None:
        result = self.result
        result.max_depth_seen = max(result.max_depth_seen, depth)
        if self._over_budget():
            return

        for invariant in world.invariants:
            message = invariant.check(world)
            if message is not None:
                self._record("safety", invariant.name, message, path)
                return  # a violating state's futures are not interesting

        enabled = world.sim.head_events()
        if not enabled:
            result.terminal_states += 1
            obligations = world.obligations()
            if obligations:
                self._record("liveness", "terminal-obligations",
                             "; ".join(obligations), path)
            return

        fp = fingerprint(world.state_vector())
        if fp in self._stack_fps:
            # A lasso back onto the DFS path: a genuine no-progress
            # cycle, because everything that advances (counters,
            # budgets, timers) is in the fingerprint.
            result.cycles += 1
            obligations = world.obligations()
            if obligations:
                self._record("liveness", "non-progress-cycle",
                             "; ".join(obligations), path)
            return

        if self.dedup:
            explored = self._visited.get(fp)
            if explored is None:
                explored = set()
                self._visited[fp] = explored
                result.states += 1
            else:
                result.revisits += 1
        else:
            # Tree mode: every arrival is fresh; ``states`` counts tree
            # nodes, which is the denominator POR is judged against.
            explored = set()
            result.states += 1

        if depth >= self.budget.max_depth:
            result.truncated += 1
            result.complete = False
            return

        # The first branch advances ``world`` itself, so everything the
        # loop reads off it is taken before any branch runs.
        moves = [(index, event.seq, _transition_key(event),
                  world.resources(event))
                 for index, event in enumerate(enabled)]
        frozen = self.capturer.capture(world)
        live: Optional[World] = world
        self._stack_fps.add(fp)
        try:
            current_sleep = dict(sleep)
            for index, seq, key, resources in moves:
                if self.por and key in current_sleep:
                    result.sleep_skips += 1
                    continue
                if key in explored:
                    # Re-reached state: this transition's subtree was
                    # covered by an earlier visit; it still joins the
                    # sleep set like an explored sibling.
                    if self.por:
                        current_sleep[key] = resources
                    continue
                explored.add(key)
                self._branch(live, frozen, seq, index, depth, path,
                             current_sleep, resources)
                live = None
                if self.por:
                    current_sleep[key] = resources
                if self._over_budget():
                    return
        finally:
            self._stack_fps.discard(fp)

    def _branch(self, live: Optional[World], frozen: bytes, seq: int,
                event_index: int, depth: int, path: List[Step],
                current_sleep: Dict[TransitionKey, frozenset],
                resources: frozenset) -> None:
        """Run one head event under every decision script it exposes.

        The first script runs on ``live`` when given; every other
        script runs on a copy restored from ``frozen``.
        """
        child_sleep = {
            key: held for key, held in current_sleep.items()
            if independent(held, resources)
        } if self.por else {}

        frontier: List[List[int]] = [[]]
        seen_scripts = {()}
        while frontier:
            if self._over_budget():
                return
            script = frontier.pop()
            if live is not None:
                child, live = live, None
            else:
                child = self.capturer.restore(frozen)
            event = self._event_by_seq(child, seq)
            if event is None:
                continue
            child.oracle.begin(script)
            child.sim.step_event(event)
            self.result.transitions += 1
            taken = list(child.oracle.trace)
            # Odometer: branch an alternative for every decision this
            # run resolved by default (past the scripted prefix).
            for position in range(len(script), len(taken)):
                point = taken[position]
                prefix = [p.chosen for p in taken[:position]]
                for alternative in range(point.chosen + 1, point.arms):
                    candidate = prefix + [alternative]
                    frozen_key = tuple(candidate)
                    if frozen_key not in seen_scripts:
                        seen_scripts.add(frozen_key)
                        frontier.append(candidate)
            step = Step(time=child.sim.now, event_index=event_index,
                        label=event.label
                        or getattr(event.fn, "__qualname__", "?"),
                        choices=taken)
            path.append(step)
            self._explore(child, depth + 1, dict(child_sleep), path)
            path.pop()

    @staticmethod
    def _event_by_seq(world: World, seq: int) -> Optional[Event]:
        for event in world.sim.head_events():
            if event.seq == seq:
                return event
        return None


def por_ratio(budget: Budget,
              naive_cap: int) -> Tuple[Dict[str, Any], float, bool]:
    """BENCH_mc.json's ``por_ratio`` section, the unrounded ratio it
    records to two places, and whether the reduced walk completed:
    lapb2's execution tree (no dedup) with POR, against one without it
    capped at ``naive_cap`` states (a lower bound if the cap is
    reached)."""
    tree = Explorer(Lapb2World, por=True, dedup=False, budget=budget).run()
    naive = Explorer(Lapb2World, por=False, dedup=False,
                     budget=replace(budget, max_states=naive_cap)).run()
    ratio = naive.states / tree.states if tree.states else 0.0
    return {"world": "lapb2", "por_states": tree.states,
            "por_transitions": tree.transitions, "naive_states": naive.states,
            "naive_transitions": naive.transitions, "ratio": round(ratio, 2),
            "lower_bound": not naive.complete}, ratio, tree.complete
