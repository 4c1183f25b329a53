"""Deterministic counterexample replay.

A :class:`~repro.check.explorer.Violation` carries a path of
:class:`~repro.check.explorer.Step` records -- which head event fired
(by position in the seq-ordered head list) and which arm every choice
point took.  Because the simulator itself is deterministic, feeding
that path into a *freshly built* world reproduces the violating
execution exactly: same event order, same drops, same timestamps.
Each step must offer the recorded head event and make the recorded
choice points (names and arm counts), or the replay stops with a
:class:`ReplayError`.
The replay re-evaluates the world's invariants at every step, so a
counterexample is confirmed against live code, not trusted from the
exploration that found it -- and the tracer timeline of the replayed
run is the human-readable story of the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.check.explorer import Step, Violation
from repro.check.worlds import World


class ReplayError(RuntimeError):
    """The recorded path diverged from the rebuilt world."""


@dataclass
class ReplayResult:
    """One replayed counterexample."""

    world: World
    steps_run: int
    #: (step number, invariant name, message) for each step where a
    #: safety invariant failed; the final entry is the confirmed bug.
    failures: List[tuple] = field(default_factory=list)
    terminal_obligations: List[str] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        """Did the replay reproduce a violation?"""
        return bool(self.failures) or bool(self.terminal_obligations)

    def timeline(self, category: Optional[str] = None) -> str:
        """The replayed run's trace timeline (the ``obs`` story)."""
        return self.world.tracer.render(category=category)

    def report(self) -> str:
        lines = [f"replayed {self.steps_run} step(s) on {self.world.name}"]
        for step_number, invariant, message in self.failures:
            lines.append(f"  step {step_number}: {invariant}: {message}")
        for obligation in self.terminal_obligations:
            lines.append(f"  at quiescence: {obligation}")
        return "\n".join(lines)


def replay(factory, path: List[Step],
           check_invariants: bool = True) -> ReplayResult:
    """Re-execute a counterexample path on a fresh world.

    ``factory`` must build the same world the path was recorded on
    (same preset, same active mutation).  Raises :class:`ReplayError`
    when the path no longer matches the world -- the signature of a
    stale counterexample after a code change.
    """
    world = factory()
    result = ReplayResult(world=world, steps_run=0)
    for number, step in enumerate(path, 1):
        head = world.sim.head_events()
        if step.event_index >= len(head):
            raise ReplayError(
                f"step {number}: path expects head event "
                f"#{step.event_index} but only {len(head)} enabled")
        event = head[step.event_index]
        label = event.label or getattr(event.fn, "__qualname__", "?")
        if label != step.label:
            raise ReplayError(
                f"step {number}: path recorded {step.label!r} "
                f"but the world offers {label!r}")
        world.oracle.begin(step.script)
        world.sim.step_event(event)
        made = [(point.name, point.arms) for point in world.oracle.trace]
        recorded = [(point.name, point.arms) for point in step.choices]
        if made != recorded:
            raise ReplayError(
                f"step {number}: path recorded choice points {recorded} "
                f"but the world made {made}")
        result.steps_run = number
        if check_invariants:
            for invariant in world.invariants:
                message = invariant.check(world)
                if message is not None:
                    result.failures.append(
                        (number, invariant.name, message))
    if not world.sim.head_events():
        result.terminal_obligations = world.obligations()
    return result


def replay_violation(factory, violation: Violation) -> ReplayResult:
    """Replay one violation's path and confirm it reproduces."""
    return replay(factory, violation.path)
