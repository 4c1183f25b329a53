"""The model checker itself: oracle, engine hooks, explorer, mutants.

The expensive end-to-end claims (three presets clean, POR ratio,
mutation gate) are gated by ``python -m repro mc`` in CI; these tests
pin the component behaviours those claims stand on, plus a compact
version of each claim so a regression fails fast and locally.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check import Budget, Explorer, build_world, por_ratio
from repro.check.invariants import BoundedQueues, ControlNeverShed
from repro.check.mutations import MUTATIONS
from repro.check.replay import ReplayError, replay, replay_violation
from repro.check.snapshot import _REDUCERS, StateCapturer, fingerprint
from repro.check.worlds import (WORLDS, Lapb2World, TcpXferWorld,
                                _args_summary, _Figure1World, independent)
from repro.faults.inject import ChoiceOracle, ChoicePoint
from repro.inet.sockets import TcpServerSocket
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the choice oracle
# ----------------------------------------------------------------------

def test_oracle_defaults_then_replays_script():
    oracle = ChoiceOracle()
    oracle.begin()
    assert oracle.choose("drop", 2) == 0          # default arm
    assert oracle.choose("fade", 3) == 0
    assert oracle.choices_taken == [0, 0]

    oracle.begin([1, 2])
    assert oracle.choose("drop", 2) == 1          # scripted
    assert oracle.choose("fade", 3) == 2
    assert [point.name for point in oracle.trace] == ["drop", "fade"]


def test_oracle_single_arm_is_not_a_choice():
    oracle = ChoiceOracle()
    oracle.begin()
    assert oracle.choose("forced", 1) == 0
    assert oracle.trace == []                     # nothing to branch on


def test_oracle_begin_resets_per_transition():
    oracle = ChoiceOracle()
    oracle.begin([1])
    oracle.choose("a", 2)
    oracle.begin()
    assert oracle.trace == []
    assert oracle.choose("a", 2) == 0             # script gone


# ----------------------------------------------------------------------
# the engine's exploration hooks
# ----------------------------------------------------------------------

def test_head_events_returns_all_earliest_in_seq_order():
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "b", label="b")
    sim.schedule(5, order.append, "a1", label="a1")
    sim.schedule(5, order.append, "a2", label="a2")
    head = sim.head_events()
    assert [event.label for event in head] == ["a1", "a2"]


def test_step_event_runs_only_the_chosen_event():
    sim = Simulator()
    order = []
    first = sim.schedule(5, order.append, "first", label="first")
    sim.schedule(5, order.append, "second", label="second")
    chosen = sim.head_events()[1]
    sim.step_event(chosen)
    assert order == ["second"]
    assert sim.now == 5
    assert [event.label for event in sim.head_events()] == ["first"]
    assert sim.is_queued(first)


def test_is_queued_is_identity_based():
    sim = Simulator()
    event = sim.schedule(5, lambda: None, label="tick")
    assert sim.is_queued(event)
    sim.step_event(sim.head_events()[0])
    # The fired event object still exists; membership must say no.
    assert not sim.is_queued(event)


# ----------------------------------------------------------------------
# worlds and independence
# ----------------------------------------------------------------------

def test_every_registered_world_builds_and_offers_events():
    for name in WORLDS:
        world = build_world(name)
        assert world.name == name
        assert world.invariants
        assert world.sim.head_events(), f"{name} starts with no events"
        fp = world.state_vector()
        assert fp is not None


def test_independence_is_resource_disjointness():
    a = frozenset({"ep:A", "link:A->B"})
    b = frozenset({"ep:B", "link:B->A"})
    star = frozenset({"*"})
    assert independent(a, b)
    assert not independent(a, a)
    assert not independent(a, star) and not independent(star, b)


# ----------------------------------------------------------------------
# the explorer on the lapb2 preset
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def lapb2_explorer():
    explorer = Explorer(Lapb2World, por=True,
                        budget=Budget(max_wall_seconds=60))
    explorer.run()
    return explorer


@pytest.fixture(scope="module")
def lapb2_result(lapb2_explorer):
    return lapb2_explorer.result


def test_lapb2_explores_to_fixpoint_with_zero_violations(lapb2_result):
    assert lapb2_result.complete
    assert lapb2_result.violations == []
    assert lapb2_result.terminal_states > 0
    assert lapb2_result.states > 100
    # POR actually pruned something.
    assert lapb2_result.sleep_skips > 0


def test_lapb2_exploration_is_pinned(lapb2_explorer):
    result = lapb2_explorer.result
    assert (result.states, result.transitions, result.revisits,
            result.sleep_skips, result.terminal_states) == (
                961, 1460, 375, 481, 125)
    # One capture per expanded state.  The first branch from each state
    # runs on the live world, so only the other branches restore.
    capturer = lapb2_explorer.capturer
    assert (capturer.captures, capturer.restores) == (1336, 657)


#: Each other preset's search at the default budget: (states,
#: transitions, revisits, sleep skips, terminal states, max depth) and
#: (captures, restores).
PRESET_PINS = {
    "hidden3": ((95, 106, 6, 2, 6, 19), (101, 13)),
    "shedworld": ((48, 50, 2, 0, 1, 46), (50, 2)),
    "tcpxfer": ((1320, 1399, 65, 0, 15, 193), (1385, 79)),
}


@pytest.mark.parametrize("name", sorted(PRESET_PINS))
def test_preset_exploration_is_pinned(name):
    explorer = Explorer(lambda: build_world(name), por=True,
                        budget=Budget(max_wall_seconds=60))
    result = explorer.run()
    assert result.complete
    assert result.violations == []
    search, snapshots = PRESET_PINS[name]
    assert (result.states, result.transitions, result.revisits,
            result.sleep_skips, result.terminal_states,
            result.max_depth_seen) == search
    capturer = explorer.capturer
    assert (capturer.captures, capturer.restores) == snapshots


class PerCharTcpXferWorld(TcpXferWorld):
    """tcpxfer's kickoff on the figure-1 testbed at per-character fidelity.

    Every serial byte is its own pending event here, so the pending
    vector, the transition keys and ``sim.pending`` all see bytes.
    """

    name = "tcpxfer-per-char"

    def __init__(self) -> None:
        _Figure1World.__init__(self, fidelity="per_char")
        self.enable_loss(1)
        self.server_sockets = []
        self.client = None
        self.server = TcpServerSocket(self.testbed.peer.stack, 7,
                                      self._accept)
        self.invariants = [BoundedQueues(self.queue_bound),
                           ControlNeverShed()]
        self.sim.at(0, self._kickoff, label="kickoff")


def test_per_char_fingerprint_chain_is_pinned():
    """A fixed stepping path through per-char serial bytes, round-tripped
    through a snapshot every 50 steps, yields the pinned fingerprints:
    those of one ``sim.at`` event per serial byte."""
    world = PerCharTcpXferWorld()
    capturer = StateCapturer()
    chain = hashlib.sha256()
    steps = 0
    while True:
        head = world.sim.head_events()
        if not head:
            break
        world.oracle.begin()
        world.sim.step_event(head[steps % len(head)])
        steps += 1
        chain.update(fingerprint(world.state_vector()).encode())
        if steps % 50 == 0:
            world = capturer.restore(capturer.capture(world))
    assert (steps, world.sim.now) == (2815, 18_916_918)
    assert chain.hexdigest() == (
        "bc6e5d63ae0c5f8e36de071c671f41823be518a013521282416f76a973c085b7")


class ReferencePickler(pickle.Pickler):
    """Plain pickle with the capturer's reductions and no learned table."""

    def reducer_override(self, obj):
        reduce = _REDUCERS.get(type(obj))
        return NotImplemented if reduce is None else reduce(obj)


def _reference_dumps(world) -> bytes:
    buffer = io.BytesIO()
    ReferencePickler(buffer, pickle.HIGHEST_PROTOCOL).dump(world)
    return buffer.getvalue()


def _step(world, choice: int, script) -> bool:
    """Run head event ``choice`` (mod the head's size); False if none."""
    head = world.sim.head_events()
    if not head:
        return False
    world.oracle.begin(script)
    world.sim.step_event(head[choice % len(head)])
    return True


def _pending(world):
    """The pending events, in queue order, as comparable values."""
    return [(event.time, event.seq, event.label,
             getattr(event.fn, "__func__", event.fn),
             type(getattr(event.fn, "__self__", None)),
             _args_summary(event.args))
            for event in world.sim.pending_events()]


def _assert_same(primed, reference) -> None:
    assert (fingerprint(primed.state_vector())
            == fingerprint(reference.state_vector()))
    assert _pending(primed) == _pending(reference)


@pytest.mark.parametrize("factory", [
    Lapb2World, WORLDS["hidden3"], WORLDS["shedworld"], TcpXferWorld,
    PerCharTcpXferWorld])
def test_primed_round_trips_match_plain_pickle(factory):
    """A world round-tripped through the capturer's learned table steps
    exactly like one round-tripped through plain pickle."""
    primed, reference = factory(), factory()
    capturer = StateCapturer()
    steps = 0
    while steps < 600:
        # Every fourth step takes a decision's second arm (a loss).
        script = [1] if steps % 4 == 3 else []
        if not _step(primed, steps, script):
            assert not reference.sim.head_events()
            break
        assert _step(reference, steps, script)
        steps += 1
        if steps % 3 == 0:
            frozen = capturer.capture(primed)
            plain = _reference_dumps(reference)
            # As in the explorer, a restored copy runs another branch
            # while the path goes on in the live world; every other
            # time the path goes on in a restored copy instead.
            branches = capturer.restore(frozen), pickle.loads(plain)
            for world in branches:
                _step(world, steps + 1, [1])
            _assert_same(*branches)
            if steps % 6 == 0:
                primed = capturer.restore(frozen)
                reference = pickle.loads(plain)
        _assert_same(primed, reference)
    assert capturer.captures == steps // 3 > 2


def test_per_char_bounded_search_is_pinned():
    # The deepest path is 363 steps: the default depth bound of 300
    # would truncate the search before its fixpoint.
    result = Explorer(PerCharTcpXferWorld, por=True,
                      budget=Budget(max_states=1500, max_depth=400)).run()
    assert result.complete
    assert (result.states, result.transitions) == (687, 689)
    assert [violation.invariant for violation in result.violations] == [
        "bounded-queues"] * 3
    assert all("queue sim.pending depth" in violation.message
               for violation in result.violations)


def test_budget_truncation_is_reported_not_fatal():
    explorer = Explorer(Lapb2World, por=True,
                        budget=Budget(max_states=25))
    result = explorer.run()
    assert not result.complete
    assert result.states <= 25 + 1


def test_por_reduces_the_execution_tree_at_least_2x():
    tree = Explorer(Lapb2World, por=True, dedup=False,
                    budget=Budget(max_wall_seconds=120)).run()
    assert tree.complete, "POR tree walk must reach fixpoint"
    # Give the unreduced walk exactly a 2x state allowance: if POR is
    # worth >= 2x, the naive walk must exhaust it and get truncated.
    cap = 2 * tree.states + 10
    naive = Explorer(Lapb2World, por=False, dedup=False,
                     budget=Budget(max_states=cap,
                                   max_wall_seconds=120)).run()
    assert not naive.complete, (
        f"naive walk finished within 2x ({naive.states} states vs "
        f"{tree.states} reduced): POR ratio has regressed below 2x")


@pytest.mark.parametrize("budget", [
    Budget(max_states=50_000, max_depth=400, max_wall_seconds=60.0),
    Budget(max_wall_seconds=120),
], ids=("mc-gate", "mc-perf-bench"))
def test_por_ratio_is_the_section_bench_mc_holds(budget):
    """Both callers' budgets give the checked-in ``por_ratio`` section:
    ``python -m repro mc`` and benchmarks/test_mc_perf.py, each with the
    unreduced walk capped at 8,000 states."""
    section, ratio, complete = por_ratio(budget, naive_cap=8000)
    assert complete
    bench = json.loads((REPO_ROOT / "BENCH_mc.json").read_text())
    assert section == bench["por_ratio"]
    assert ratio == section["naive_states"] / section["por_states"]


# ----------------------------------------------------------------------
# mutation gate: the checker finds the bugs it claims to find
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught_and_replays(name):
    mutation = MUTATIONS[name]
    with mutation.active():
        explorer = Explorer(lambda: build_world(mutation.world), por=True,
                            budget=Budget(max_states=4000, max_depth=400,
                                          max_wall_seconds=120))
        result = explorer.run()
        violation = result.shortest_violation()
        assert violation is not None, f"{name} was not detected"
        assert violation.invariant == mutation.expected_invariant
        # The counterexample replays deterministically -- twice, on
        # fresh worlds, failing at the same step with the same message.
        first = replay_violation(
            lambda: build_world(mutation.world), violation)
        second = replay_violation(
            lambda: build_world(mutation.world), violation)
        assert first.confirmed and second.confirmed
        assert first.failures == second.failures
        assert first.failures[-1][1] == mutation.expected_invariant
    # With the mutant uninstalled the same path must NOT violate
    # (or must diverge): the bug is in the mutant, not the world.
    try:
        clean = replay(lambda: build_world(mutation.world),
                       violation.path)
    except ReplayError:
        return
    assert not any(inv == mutation.expected_invariant
                   for _, inv, _ in clean.failures)


def test_replay_rejects_a_stale_path():
    explorer = Explorer(Lapb2World, por=True,
                        budget=Budget(max_states=40))
    explorer.run()
    # Forge a path whose first step asks for an event that is not
    # offered at the initial state.
    from repro.check.explorer import Step
    bogus = [Step(time=0, event_index=99, label="nope")]
    with pytest.raises(ReplayError):
        replay(Lapb2World, bogus)


def test_replay_rejects_a_path_whose_choice_points_do_not_match():
    mutation = MUTATIONS["dropped-ack"]
    with mutation.active():
        explorer = Explorer(lambda: build_world(mutation.world), por=True,
                            budget=Budget(max_states=4000))
        violation = explorer.run().shortest_violation()
        # Same arms taken, but every decision renamed and widened: the
        # head events still match, the world's choice points do not.
        forged = [replace(step, choices=[
                      ChoicePoint("no-such-decision", 7, point.chosen)
                      for point in step.choices])
                  for step in violation.path]
        assert forged != violation.path
        assert replay_violation(
            lambda: build_world(mutation.world), violation).confirmed
        with pytest.raises(ReplayError, match="choice points"):
            replay(lambda: build_world(mutation.world), forged)
