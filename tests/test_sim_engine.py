"""Tests for the discrete-event engine."""

from __future__ import annotations

import collections
import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.check.snapshot import StateCapturer
from repro.serialio.line import SerialEndpoint, SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.sanitizer import OrderShuffleSimulator


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for label in "abcde":
        sim.schedule(100, order.append, label)
    sim.run_until_idle()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(250, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [250]
    assert sim.now == 250


def test_zero_delay_runs_after_queued_same_instant_events(sim):
    order = []

    def first():
        order.append("first")
        sim.call_soon(lambda: order.append("soon"))

    sim.schedule(10, first)
    sim.schedule(10, lambda: order.append("second"))
    sim.run_until_idle()
    assert order == ["first", "second", "soon"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10, fired.append, 1)
    event.cancel()
    sim.run_until_idle()
    assert fired == []
    assert not event.pending


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_past_rejected(sim):
    sim.schedule(100, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_run_until_horizon_stops_and_advances_clock(sim):
    fired = []
    sim.schedule(1 * SECOND, fired.append, "early")
    sim.schedule(10 * SECOND, fired.append, "late")
    sim.run(until=5 * SECOND)
    assert fired == ["early"]
    assert sim.now == 5 * SECOND
    sim.run(until=20 * SECOND)
    assert fired == ["early", "late"]


def test_run_until_exact_event_time_includes_event(sim):
    fired = []
    sim.schedule(5 * SECOND, fired.append, "x")
    sim.run(until=5 * SECOND)
    assert fired == ["x"]


def test_events_scheduled_during_run_execute(sim):
    order = []

    def chain(n):
        order.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run_until_idle()
    assert order == [0, 1, 2, 3, 4, 5]


def test_max_events_guard(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(1, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_step_executes_exactly_one(sim):
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_events_pending_counts_uncancelled(sim):
    e1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.events_pending == 2
    e1.cancel()
    assert sim.events_pending == 1


def test_run_not_reentrant(sim):
    """Nor do the exploration hooks run inside ``run()``, whose
    many-lane loop holds a cohort's queue entry while a callback runs."""
    later = sim.schedule(5, lambda: None)

    def reenter():
        for hook in (sim.run, sim.head_events, lambda: sim.step_event(later)):
            with pytest.raises(SimulationError):
                hook()

    sim.schedule(1, reenter)
    sim.run_until_idle()


def test_kwargs_passed_to_callback(sim):
    seen = {}
    sim.schedule(1, lambda **kw: seen.update(kw), value=42)
    sim.run_until_idle()
    assert seen == {"value": 42}


def test_events_executed_counter(sim):
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    sim.run_until_idle()
    assert sim.events_executed == 5


def test_determinism_same_schedule_same_order():
    def build():
        order = []
        local = Simulator()
        for index in range(50):
            local.schedule((index * 7) % 13, order.append, index)
        local.run_until_idle()
        return order

    assert build() == build()


def test_same_timestamp_total_order():
    """PR 5 tie-break audit: (time, seq) stays a total order at scale.

    1000 events on one timestamp must run in exact registration order,
    identically across fresh simulators, and interleaved cancellation
    must not reorder the survivors (a cancelled event keeps its heap
    slot and is skipped at pop, never re-keyed).
    """
    def run_once(cancel_every=None):
        sim = Simulator()
        order = []
        events = [sim.at(1000, order.append, index) for index in range(1000)]
        if cancel_every is not None:
            for index in range(0, 1000, cancel_every):
                events[index].cancel()
        sim.run_until_idle()
        return order

    full = run_once()
    assert full == list(range(1000))
    assert run_once() == full

    survivors = run_once(cancel_every=3)
    assert survivors == [i for i in range(1000) if i % 3 != 0]
    assert run_once(cancel_every=3) == survivors


def test_heap_never_orders_events(monkeypatch):
    """The heap orders ``(time, seq, event)`` entries by ``(time, seq)``.

    ``seq`` is unique, so no comparison may reach an ``Event``: with an
    ``Event.__lt__`` that raises, 1000 equal-time events (every third
    cancelled) still run in registration order.  The salted simulator
    is included because its ``seq`` is a ``(group, seq)`` tuple.
    """
    def refuse(self, other):
        raise AssertionError("the event heap compared two Events")

    monkeypatch.setattr(Event, "__lt__", refuse, raising=False)
    for sim in (Simulator(), OrderShuffleSimulator(order_salt=0xD1CE)):
        order = []
        events = [sim.at(1000, order.append, index) for index in range(1000)]
        for event in events[::3]:
            event.cancel()
        sim.run_until_idle()
        assert order == [i for i in range(1000) if i % 3 != 0]


def test_cancellation_during_dispatch_keeps_equal_time_order():
    """Cancelling a later equal-time event from inside an earlier one
    must not disturb the ordering of the remaining events."""
    sim = Simulator()
    order = []
    events = []

    def head():
        order.append("head")
        events[2].cancel()  # a same-timestamp victim further down

    sim.at(500, head)
    for index in range(5):
        events.append(sim.at(500, order.append, index))
    sim.run_until_idle()
    assert order == ["head", 0, 1, 3, 4]


# ----------------------------------------------------------------------
# per-character serial writes: one event series per write, and writes
# of one length at one instant on several lines as the lanes of a cohort
# ----------------------------------------------------------------------

def per_byte_write(endpoint: SerialEndpoint, data: bytes) -> "list[Event]":
    """The reference schedule: one ``sim.at`` per byte, every key drawn
    when the write is made.  Returns the bytes' events, in order."""
    line = endpoint.line
    sim = line.sim
    arrival = max(sim.now, endpoint._tx_free_at)
    events = []
    for byte in data:
        arrival += line.byte_time
        events.append(sim.at(arrival, endpoint._deliver, byte,
                             label=f"serial {endpoint.name}"))
    endpoint._tx_free_at = arrival
    endpoint.bytes_sent += len(data)
    return events


def series_write(endpoint: SerialEndpoint, data: bytes):
    """The line's own write; returns the series it registered, if any."""
    sim = endpoint.line.sim
    last = sim._last_series
    endpoint.write(data)
    return None if sim._last_series is last else sim._last_series[0]


def plain_write(endpoint: SerialEndpoint, data: bytes) -> None:
    """The line's own write, with no handle to cancel it by."""
    endpoint.write(data)


def cancel_all(sim, handle) -> None:
    """Drop what a series has not dispatched: cancel it, or each of the
    reference's element events still queued."""
    if isinstance(handle, list):
        for event in handle:
            if sim.is_queued(event):
                event.cancel()
    elif handle is not None:
        handle.cancel()


def series_queued(sim, handle) -> bool:
    """``is_queued`` of a series.  For the reference's list of element
    events: whether the first element not dispatched is still queued, as
    a series shows its next element and the head prunes a cancelled one."""
    if not isinstance(handle, list):
        return handle is not None and sim.is_queued(handle)
    for event in handle:
        if event.cancelled or sim.is_queued(event):
            return sim.is_queued(event)
    return False


class Boom(Exception):
    """Raised by line 2's receive handler (side b) on a byte with 0x60 set."""


class SerialScript:
    """Per-char writes both ways on one to five lines, plus tie-making probes.

    ``writes`` are ``(slot, side, data, lines)``, where a slot is a
    multiple of the byte time: one writer event writes ``data`` from
    ``side`` of each listed line (modulo the line count) in turn, so
    writes of one length at one slot on idle lines are the lanes of a
    cohort, as a promiscuous TNC fan-out is.  ``probes`` are ``(slot,
    follow)`` and tie with byte arrivals.  A probe with a non-zero
    ``follow`` schedules another probe that many byte times later: that
    key is drawn after an earlier write, and it ties with that write's
    later bytes.  On side b, line 0 answers a byte with its high bit
    set from inside the receive handler (a write, so a key drawn in the
    middle of an instant's lanes), line 1 calls ``call_soon`` for a byte
    with 0x40 set, and line 2 raises :class:`Boom` for a byte with 0x60
    set.  Line 0 also cancels one of the writes made so far, chosen by
    the byte, for a byte with 0x18 set: a lane still to fire in this
    instant, one that has fired, or a write that is over.
    ``write(endpoint, data)`` returns the handle that
    :func:`cancel_all` and :func:`series_queued` take; ``handles``
    holds them in the order the writes were made.
    """

    def __init__(self, sim, write, writes, probes, lines=1) -> None:
        self.sim = sim
        self.write = write
        self.lines = [SerialLine(sim, baud=9600, name=f"line{index}")
                      for index in range(lines)]
        self.log = []
        self.handles = []
        for index, line in enumerate(self.lines):
            line.a.on_receive(functools.partial(self._rx_a, index))
            line.b.on_receive(functools.partial(self._rx_b, index))
        byte_time = self.lines[0].byte_time
        for slot, side, data, targets in writes:
            sim.at(slot * byte_time, self._write, side, data,
                   tuple(target % lines for target in targets),
                   label="writer")
        for slot, follow in probes:
            sim.at(slot * byte_time, self._probe, follow, label="probe")

    def _write(self, side: str, data: bytes, targets) -> None:
        self.log.append((self.sim.now, "write", side, targets))
        for target in targets:
            self.handles.append(
                self.write(getattr(self.lines[target], side), data))

    def _probe(self, follow: int) -> None:
        self.log.append((self.sim.now, "probe", follow))
        if follow:
            self.sim.schedule(follow * self.lines[0].byte_time, self._probe,
                              0, label="probe")

    def _soon(self, index: int, byte: int) -> None:
        self.log.append((self.sim.now, "soon", index, byte))

    def _rx_a(self, index: int, byte: int) -> None:
        self.log.append((self.sim.now, "a", index, byte))

    def _rx_b(self, index: int, byte: int) -> None:
        self.log.append((self.sim.now, "b", index, byte))
        if index == 0 and byte & 0x18 == 0x18:
            cancel_all(self.sim, self.handles[byte % len(self.handles)])
        if index == 0 and byte & 0x80:
            self.handles.append(self.write(
                self.lines[0].b, bytes([byte & 0x7F]) * (byte & 3)))
        elif index == 1 and byte & 0x40:
            self.sim.call_soon(self._soon, index, byte, label="soon")
        elif index == 2 and byte & 0x60 == 0x60:
            raise Boom(byte)


#: Sparse writes of up to 12 bytes, each on one line, and probes over
#: 60 byte times: on one line, the scripts a single serial line makes.
SPARSE_WRITES = st.lists(st.tuples(st.integers(0, 40), st.sampled_from("ab"),
                                   st.binary(max_size=12),
                                   st.tuples(st.integers(0, 4))),
                         max_size=6)
SPARSE_PROBES = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 5)),
                         max_size=8)
#: Dense short writes, each made on several lines by one writer event,
#: so writes of one length at one slot form cohorts, and probes that
#: tie with their bytes.
DENSE_WRITES = st.lists(st.tuples(st.integers(0, 8), st.sampled_from("ab"),
                                  st.binary(max_size=4),
                                  st.lists(st.integers(0, 4), min_size=1,
                                           max_size=5)),
                        max_size=8)
DENSE_PROBES = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)),
                        max_size=8)
WRITES = st.one_of(SPARSE_WRITES, DENSE_WRITES)
PROBES = st.one_of(SPARSE_PROBES, DENSE_PROBES)
LINES = st.integers(1, 5)
SALTS = st.integers(0, 2**32 - 1)
#: ``run(until=slot * byte_time + offset, max_events=...)`` calls.
STOPS = st.lists(st.tuples(st.integers(0, 15) | st.integers(0, 60),
                           st.integers(-1, 1),
                           st.none() | st.integers(0, 40)), max_size=5)
#: Scripts that reach a cancelled lane of a many-lane cohort in every
#: run.  One write makes a two-byte series on each of three lines, the
#: three lanes of one cohort; line 0's first byte (0x18 set) cancels
#: one of them, chosen by the byte, and a stop at its arrival falls
#: between the cohort passing that lane and leaving the heap.  Line 2's
#: lane has not fired when it is cancelled and is passed over
#: (``_Cohort.position`` must stop showing it); line 0 cancels its own
#: lane, which then sits at the cursor of the horizon entry
#: (``run()`` must skip it there).  Same-instant lanes keep FIFO order
#: under a salt, so the salted run reaches the same lane.
CANCEL_PASSED_LANE = [(0, "a", b"\x1a\x00", (0, 1, 2))]
CANCEL_CURSOR_LANE = [(0, "a", b"\x18\x00", (0, 1, 2))]
CANCEL_SALT = 0xBEEF
#: The scripts' byte time: every line runs at 9600 baud.
BYTE_TIME = SerialLine(Simulator(), baud=9600).byte_time


def script_pair(make_sim, writes, probes, lines=1):
    """The same script under the serial line's write and the reference."""
    return (SerialScript(make_sim(), series_write, writes, probes, lines),
            SerialScript(make_sim(), per_byte_write, writes, probes, lines))


def sim_makers(salt: int):
    return (Simulator, lambda: OrderShuffleSimulator(order_salt=salt))


def event_keys(events) -> collections.Counter:
    return collections.Counter(
        (event.time, event.seq, event.label, event.args,
         getattr(event.fn, "__qualname__", None)) for event in events)


def attempt(call, *args, **kwargs):
    """What ``call`` returned, or the byte of the :class:`Boom` it raised."""
    try:
        return "returned", call(*args, **kwargs)
    except Boom as boom:
        return "raised", boom.args[0]


def drain(sim) -> list:
    """Run ``sim`` until its queue is empty, resuming after each Boom.

    Every raise fires the element that raised, so a script drains in
    far fewer runs than the bound.
    """
    outcomes = [attempt(sim.run)]
    while sim.events_pending and len(outcomes) < 500:
        outcomes.append(attempt(sim.run))
    assert not sim.events_pending
    return outcomes


def assert_same_state(series, reference) -> None:
    assert series.log == reference.log
    assert series.sim.now == reference.sim.now
    assert series.sim.events_executed == reference.sim.events_executed
    assert (event_keys(series.sim.pending_events())
            == event_keys(reference.sim.pending_events()))
    assert series.sim.events_pending == reference.sim.events_pending
    assert ([series_queued(series.sim, handle) for handle in series.handles]
            == [series_queued(reference.sim, handle)
                for handle in reference.handles])


def step_heads(series, reference, picks) -> None:
    """Step head events on both scripts, the index taken from ``picks``
    in turn, until the picks or the head events run out."""
    for pick in picks:
        head = series.sim.head_events()
        reference_head = reference.sim.head_events()
        assert event_keys(head) == event_keys(reference_head)
        assert [event.seq for event in head] == [
            event.seq for event in reference_head]
        if not head:
            return
        index = pick % len(head)
        assert (attempt(series.sim.step_event, head[index])
                == attempt(reference.sim.step_event, reference_head[index]))
        assert_same_state(series, reference)


@settings(max_examples=150, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS, lines=LINES, stops=STOPS)
@example(writes=CANCEL_PASSED_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         stops=[(1, 0, None)])
@example(writes=CANCEL_CURSOR_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         stops=[(1, 0, None)])
def test_serial_writes_dispatch_like_per_byte_events(writes, probes, salt,
                                                     lines, stops):
    for make_sim in sim_makers(salt):
        series, reference = script_pair(make_sim, writes, probes, lines)
        byte_time = series.lines[0].byte_time
        for slot, offset, max_events in stops:
            until = max(0, slot * byte_time + offset)
            assert (attempt(series.sim.run, until, max_events)
                    == attempt(reference.sim.run, until, max_events))
            assert_same_state(series, reference)
        assert drain(series.sim) == drain(reference.sim)
        assert_same_state(series, reference)


@settings(max_examples=100, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS, lines=LINES,
       stops=st.lists(st.integers(0, 15_000) | st.integers(0, 90_000),
                      max_size=4))
@example(writes=CANCEL_PASSED_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         stops=[BYTE_TIME])
@example(writes=CANCEL_CURSOR_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         stops=[BYTE_TIME])
def test_pending_events_list_every_undelivered_byte(writes, probes, salt,
                                                    lines, stops):
    for make_sim in sim_makers(salt):
        series, reference = script_pair(make_sim, writes, probes, lines)
        for stop in sorted(stops):
            assert (attempt(series.sim.run, until=stop)
                    == attempt(reference.sim.run, until=stop))
            assert_same_state(series, reference)
        assert drain(series.sim) == drain(reference.sim)
        assert_same_state(series, reference)


@settings(max_examples=100, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS, lines=LINES,
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=20),
       stops=STOPS)
@example(writes=CANCEL_PASSED_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         picks=[0], stops=[(1, 0, None)])
@example(writes=CANCEL_CURSOR_LANE, probes=[], salt=CANCEL_SALT, lines=3,
         picks=[0], stops=[(1, 0, None)])
def test_stepping_head_events_follows_the_reference(writes, probes, salt,
                                                    lines, picks, stops):
    for make_sim in sim_makers(salt):
        # Always stepping the first head event, or calling step(), is
        # run()'s order.  In any order the script makes at most the
        # events it makes with no write cancelled, which bounds the
        # walks below.
        uncancelled = SerialScript(make_sim(), plain_write, writes, probes,
                                   lines)
        drain(uncancelled.sim)
        bound = uncancelled.sim.events_executed + 1
        run, stepped, single = (
            SerialScript(make_sim(), series_write, writes, probes, lines)
            for _ in range(3))
        drain(run.sim)
        for _ in range(bound):
            if not stepped.sim.head_events():
                break
            attempt(stepped.sim.step_event, stepped.sim.head_events()[0])
        for _ in range(bound):
            if attempt(single.sim.step) == ("returned", False):
                break
        assert stepped.log == run.log == single.log

        series, reference = script_pair(make_sim, writes, probes, lines)
        byte_time = series.lines[0].byte_time
        # Runs that stop inside an instant's lanes, each followed by a
        # walk of ``len(picks)`` steps.
        for slot, offset, max_events in stops:
            until = max(0, slot * byte_time + offset)
            assert (attempt(series.sim.run, until, max_events)
                    == attempt(reference.sim.run, until, max_events))
            assert_same_state(series, reference)
            step_heads(series, reference, picks)
        # Then the rest of the script, cycling through the picks.
        step_heads(series, reference,
                   itertools.islice(itertools.cycle(picks), bound))
        assert not reference.sim.head_events()
        assert_same_state(series, reference)


def test_cancelling_a_series_drops_its_remaining_elements():
    sim = Simulator()
    got = []
    series = sim.at_series(10, 5, got.append, b"abcd", label="bytes")
    assert [(event.time, event.args) for event in sim.head_events()] == [
        (10, (ord("a"),))]
    assert sorted((event.time, event.args[0])
                  for event in sim.pending_events()) == [
        (10, ord("a")), (15, ord("b")), (20, ord("c")), (25, ord("d"))]
    sim.at(17, series.cancel)
    sim.run_until_idle()
    assert got == [ord("a"), ord("b")]
    assert sim.now == 17
    assert sim.events_pending == 0
    assert not sim.is_queued(series)
    assert sim.events_executed == 3


def test_a_run_stopped_at_max_events_leaves_the_clock_at_its_last_event():
    sim = Simulator()
    fired = []
    sim.at(0, lambda: fired.append(sim.now))
    sim.at(5, lambda: fired.append(sim.now))
    assert sim.run(until=10, max_events=1) == 1
    assert sim.now == 0
    assert [event.time for event in sim.head_events()] == [5]
    sim.run()
    assert fired == [0, 5] and sim.now == 5
    # The horizon, and a queue that drains, still move the clock there.
    sim.at(30, lambda: fired.append(sim.now))
    assert sim.run(until=20, max_events=4) == 0 and sim.now == 20
    assert sim.run(until=40, max_events=1) == 1 and sim.now == 40
    assert fired == [0, 5, 30]


class FnSwappingProfiler:
    """Swaps ``event.fn`` in ``count()``, as perfbench's layer timer does.

    The wrapper puts the original back before calling it.  Each counted
    event's ``(time, seq, args)`` is recorded as it shows then, and each
    call of a wrapper as the arguments it got.
    """

    def __init__(self) -> None:
        self.shown = []
        self.wrapped = []

    def count(self, event: Event) -> None:
        self.shown.append((event.time, event.seq, event.args))
        fn = event.fn

        def timed(*args, **kwargs):
            event.fn = fn
            self.wrapped.append(args)
            return fn(*args, **kwargs)

        event.fn = timed


def dispatch_one_series(make_sim, drive, profiler):
    """Run one series, tied with plain events, through ``drive``."""
    sim = make_sim()
    sim.profiler = profiler
    calls = []

    def callback(item):
        calls.append((sim.now, item, (series.time, series.seq, series.args)))

    sim.at(10, calls.append, "plain at 10")
    series = sim.at_series(10, 4, callback, b"wxyz", label="bytes")
    sim.at(14, calls.append, "plain at 14")
    sim.at(22, calls.append, "plain at 22")
    elements = sorted((event.time, event.seq, event.args)
                      for event in sim.pending_events()
                      if event.label == "bytes")
    drive(sim)
    assert series.fn is callback
    return (elements, calls, sim.events_executed,
            profiler and (profiler.shown, profiler.wrapped))


def drive_by_run(sim):
    sim.run_until_idle()


def drive_by_step_event(sim):
    while sim.head_events():
        sim.step_event(sim.head_events()[0])


def drive_by_step(sim):
    while sim.step():
        pass


@pytest.mark.parametrize("profiler", [None, FnSwappingProfiler],
                         ids=["no-profiler", "fn-swapping-profiler"])
@pytest.mark.parametrize("salt", [None, 0xD1CE, 7],
                         ids=["fifo", "salt-d1ce", "salt-7"])
def test_run_rearms_a_series_as_step_event_does(salt, profiler):
    """``run()`` fires a series through its cohort's per-instant loop,
    ``step_event`` and ``step`` one element at a time: each element must
    show the same ``(time, seq, args)``, reach the callback with the same
    argument and count the same in ``events_executed``."""
    make_sim = (Simulator if salt is None
                else lambda: OrderShuffleSimulator(order_salt=salt))
    outcomes = [dispatch_one_series(make_sim, drive,
                                    profiler and profiler())
                for drive in (drive_by_run, drive_by_step_event,
                              drive_by_step)]
    assert outcomes[1] == outcomes[0] == outcomes[2]
    elements, calls, executed, profiled = outcomes[0]
    assert [(time, args) for time, _seq, args in elements] == [
        (10, (ord("w"),)), (14, (ord("x"),)), (18, (ord("y"),)),
        (22, (ord("z"),))]
    # After each element the series shows the next one; after the last
    # it still shows the last.
    assert [call[2] for call in calls if isinstance(call, tuple)] == (
        elements[1:] + elements[-1:])
    assert [call[:2] for call in calls if isinstance(call, tuple)] == [
        (time, args[0]) for time, _seq, args in elements]
    assert executed == 7
    if profiled is not None:
        shown, wrapped = profiled
        assert len(shown) == 7
        assert [args for args in wrapped if isinstance(args[0], int)] == [
            args for _time, _seq, args in elements]


# ----------------------------------------------------------------------
# cohorts: series registered back to back in one instant share an entry
# ----------------------------------------------------------------------

SALTED = [None, 0xD1CE, 7]
SALT_IDS = ["fifo", "salt-d1ce", "salt-7"]


def maker(salt):
    return (Simulator if salt is None
            else lambda: OrderShuffleSimulator(order_salt=salt))


def lanes_of(*events) -> "set[int]":
    """The distinct queue entries (cohorts) that ``events`` sit in."""
    return {id(event.series) for event in events}


def dispatch_a_cohort(make_sim, drive, profiler):
    """Three lanes tied with plain events, driven by ``drive``.

    Returns each lane's callback calls with what its own event showed
    during the call, the plain events' calls, ``events_executed``, what
    the profiler saw and the wrapped callbacks' arguments.
    """
    sim = make_sim()
    sim.profiler = profiler
    calls = []

    def callback(name):
        def lane(item):
            event = lanes[name]
            calls.append((sim.now, name, item,
                          (event.time, event.seq, event.args)))
        return lane

    lanes = {}
    sim.at(10, calls.append, "plain at 10")
    for name in "pqr":
        lanes[name] = sim.at_series(10, 4, callback(name), name.encode() * 3,
                                    label=f"lane {name}")
    assert len(lanes_of(*lanes.values())) == 1
    sim.at(14, calls.append, "plain at 14")
    elements = sorted((event.time, event.seq, event.label, event.args)
                      for event in sim.pending_events()
                      if event.label.startswith("lane"))
    drive(sim)
    return (elements, calls, sim.events_executed,
            profiler and (profiler.shown, profiler.wrapped))


@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_each_lane_shows_its_next_element_to_the_profiler(salt):
    """Every lane is counted, and shows the profiler and its callback
    its next element, as a lone series does, whether the cohort fires
    through ``run()``, ``step()`` or ``step_event``."""
    outcomes = [dispatch_a_cohort(maker(salt), drive, FnSwappingProfiler())
                for drive in (drive_by_run, drive_by_step,
                              drive_by_step_event)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    elements, calls, executed, (shown, wrapped) = outcomes[0]
    assert executed == len(shown) == 11
    lane_calls = [call for call in calls if isinstance(call, tuple)]
    # Key order at each instant is registration order: p, q, r.
    assert [call[:3] for call in lane_calls] == [
        (time, name, ord(name)) for time in (10, 14, 18) for name in "pqr"]
    for name in "pqr":
        mine = [(time, seq, args) for time, seq, label, args in elements
                if label == f"lane {name}"]
        assert [call[3] for call in lane_calls if call[1] == name] == (
            mine[1:] + mine[-1:])
    assert [args for args in wrapped if isinstance(args[0], int)] == [
        (ord(name),) for _ in range(3) for name in "pqr"]
    assert [seen for seen in shown
            if seen[2] and isinstance(seen[2][0], int)] == [
        call[3] for call in lane_calls]


def cohort_and_reference(make_sim, program):
    """``program(sim, register, log)`` with series and with one ``at``
    per element.

    ``register(first, interval, fn, items)`` is ``at_series`` in the
    first run and one ``at`` per item, every key drawn then, in the
    second.  Checks that both runs leave the clock at one time, and
    returns both runs' logs and event counts.
    """
    def by_series(sim):
        return lambda first, interval, fn, items: sim.at_series(
            first, interval, fn, items, label="lane")

    def by_elements(sim):
        def register(first, interval, fn, items):
            return [sim.at(first + index * interval, fn, item, label="lane")
                    for index, item in enumerate(items)]
        return register

    results, clocks = [], []
    for register in (by_series, by_elements):
        sim = make_sim()
        log = []
        program(sim, register(sim), log)
        results.append((log, sim.events_executed))
        clocks.append(sim.now)
    assert clocks[0] == clocks[1]
    return results


@pytest.mark.parametrize("when", ["before", "by-earlier-lane",
                                  "by-tied-plain-before", "by-tied-plain-after"])
@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_cancelled_lane_is_skipped_and_the_rest_fire(salt, when):
    """A lane cancelled before its cohort fires, by an earlier lane's
    callback, or by a plain event tied with an element (keyed before or
    after the lanes) drops its undispatched elements, and only those."""
    def program(sim, register, log):
        handles = {}

        def lane(name):
            def fire(item):
                log.append((sim.now, name, item))
                if when == "by-earlier-lane" and name == "p" and sim.now == 14:
                    cancel_all(sim, handles["r"])
            return fire

        if when == "by-tied-plain-before":
            sim.at(14, lambda: cancel_all(sim, handles["q"]))
        for name in "pqr":
            handles[name] = register(10, 4, lane(name), name.encode() * 3)
        if when == "by-tied-plain-after":
            sim.at(14, lambda: cancel_all(sim, handles["q"]))
        if when == "before":
            cancel_all(sim, handles["q"])
        sim.run_until_idle()

    (log, executed), (reference_log, reference_executed) = (
        cohort_and_reference(maker(salt), program))
    assert log == reference_log
    assert executed == reference_executed
    dropped = {"before": ("q", 10), "by-earlier-lane": ("r", 14),
               "by-tied-plain-before": ("q", 14),
               "by-tied-plain-after": ("q", 18)}[when]
    name, after = dropped
    assert [time for time, lane, _item in log if lane == name] == [
        time for time in (10, 14, 18) if time < after]
    for other in set("pqr") - {name}:
        assert [time for time, lane, _item in log if lane == other] == [
            10, 14, 18]


@pytest.mark.parametrize("by", ["plain-event", "first-lane"])
@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_cohort_of_cancelled_lanes_leaves_the_clock_alone(salt, by):
    """Once every lane is cancelled the cohort fires nothing more, so
    the clock stays where the last fired event left it, as it does for
    per-element events."""
    def program(sim, register, log):
        def lane(name):
            def fire(item):
                log.append((sim.now, name, item))
                if by == "first-lane" and name == "p" and sim.now == 15:
                    for handle in handles:
                        cancel_all(sim, handle)
            return fire

        handles = [register(10, 5, lane(name), b"abcd") for name in "pqr"]
        if by == "plain-event":
            sim.at(17, lambda: [cancel_all(sim, handle) for handle in handles])
        sim.run_until_idle()
        log.append(("now", sim.now))

    (log, executed), (reference_log, reference_executed) = (
        cohort_and_reference(maker(salt), program))
    assert log == reference_log
    assert executed == reference_executed
    assert log[-1] == ("now", {"plain-event": 17, "first-lane": 15}[by])


@pytest.mark.parametrize("stop", ["run-past-it", "run-short-of-it",
                                  "head-events"])
@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_cancelled_lane_leaves_the_queue_where_its_element_would(
        salt, lanes, stop):
    """``is_queued`` of a cancelled series turns False when the queue
    passes its next element: a run past it, a run that stops short of
    it at the horizon, or ``head_events``, each pruning as they do a
    cancelled event at the head.  A lane of a cohort reads as a lone
    series does."""
    def program(sim, register, log):
        handles = [register(10, 4, log.append, name.encode() * 2)
                   for name in "pqr"[:lanes]]
        victim = handles[len(handles) // 2 if stop == "run-past-it" else 0]
        cancel_all(sim, victim)
        log.append(("cancelled", series_queued(sim, victim)))
        if stop == "head-events":
            sim.head_events()
        else:
            sim.run(until=12 if stop == "run-past-it" else 5)
        log.append(("stopped", [series_queued(sim, handle)
                                for handle in handles]))
        sim.run_until_idle()

    (log, executed), (reference_log, reference_executed) = (
        cohort_and_reference(maker(salt), program))
    assert log == reference_log
    assert executed == reference_executed
    assert log[0] == ("cancelled", True)
    stopped = [entry for entry in log
               if isinstance(entry, tuple) and entry[0] == "stopped"]
    victim = lanes // 2 if stop == "run-past-it" else 0
    assert stopped == [("stopped", [index != victim
                                    for index in range(lanes)])]


@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_lane_callback_sees_the_lanes_before_it_as_fired(salt):
    """While ``run()`` fires a cohort, a callback sees the lanes that
    fired before it at this instant as per-element dispatch shows them:
    one cancelled by a later lane is still queued at its next element,
    and ``events_pending`` counts each later element once."""
    def program(sim, register, log):
        handles = {}

        def lane(name):
            def fire(item):
                log.append((sim.now, name, item))
                if name == "r" and sim.now == 14:
                    cancel_all(sim, handles["p"])
                    log.append(("in r", sim.events_pending,
                                [series_queued(sim, handles[other])
                                 for other in "pqr"]))
            return fire

        for name in "pqr":
            handles[name] = register(10, 4, lane(name), name.encode() * 3)
        sim.run_until_idle()

    (log, executed), (reference_log, reference_executed) = (
        cohort_and_reference(maker(salt), program))
    assert log == reference_log
    assert executed == reference_executed
    assert ("in r", 2, [True, True, True]) in log


def test_a_cohort_of_cancelled_lanes_leaves_no_head_event():
    sim = Simulator()
    lanes = [sim.at_series(10, 4, print, b"ab") for _ in range(3)]
    later = sim.at(20, print, "later")
    for lane in lanes:
        lane.cancel()
    assert sim.head_events() == [later]
    assert sim.events_pending == 1
    assert not any(sim.is_queued(lane) for lane in lanes)


def second_joins(between=None, base=10, first=10, interval=4, items=b"cd"):
    """Whether a series joins the one registered just before it."""
    sim = Simulator()
    earlier = sim.at_series(base, 4, print, b"ab")
    if between is not None:
        between(sim, earlier)
    later = sim.at_series(first, interval, print, items)
    joined = earlier.series is later.series
    series_entries = [entry for entry in sim._queue
                      if entry[2].series is not None]
    assert len(series_entries) == (1 if joined else 2)
    return joined


def test_series_join_only_back_to_back_in_one_instant():
    assert second_joins()
    assert second_joins(lambda sim, earlier: None)
    # Refused: a key drawn in between, another instant, the earlier one
    # cancelled, a first time that is now, or another first time,
    # interval or length.
    assert not second_joins(lambda sim, earlier: sim.at(30, print))
    assert not second_joins(lambda sim, earlier: sim.run(until=5))
    assert not second_joins(lambda sim, earlier: earlier.cancel())
    assert not second_joins(base=0, first=0)
    assert not second_joins(first=11)
    assert not second_joins(interval=5)
    assert not second_joins(items=b"cde")


@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_key_drawn_between_two_series_keeps_them_apart(salt):
    """A probe registered between two like series ties with their second
    elements and must fire between them, as per-element events do."""
    def program(sim, register, log):
        record = lambda tag: lambda item=None: log.append((sim.now, tag, item))
        register(10, 4, record("p"), b"pp")
        sim.at(14, record("probe"))
        register(10, 4, record("q"), b"qq")
        sim.run_until_idle()

    (log, _), (reference_log, _) = cohort_and_reference(maker(salt), program)
    assert log == reference_log
    assert [entry[1] for entry in log if entry[0] == 14] == ["p", "probe", "q"]


def test_series_registered_in_other_instants_keep_their_own_keys():
    """With no key drawn in between, a like series registered in a later
    instant must not join: under a salted order its keys can sort before
    the first one's, and before a probe's in between."""
    salts_reversed = 0
    for salt in range(16):
        def program(sim, register, log):
            record = lambda tag: lambda item=None: log.append((sim.now, tag, item))
            sim.at(15, record("probe"))
            sim.at(1, register, 20, 4, record("p"), b"pp")
            sim.at(2, register, 20, 4, record("q"), b"qq")
            sim.run_until_idle()

        (log, _), (reference_log, _) = cohort_and_reference(
            maker(salt), program)
        assert log == reference_log
        salts_reversed += [entry[1] for entry in log
                           if entry[0] == 20] == ["q", "p"]
    assert 0 < salts_reversed < 16


def test_a_lane_that_queues_an_event_lets_the_heap_order_it():
    """A lane whose callback queues an event at the same instant stops
    the instant's loop: under a salted order that event can sort before
    the lanes still to fire."""
    before_rest = 0
    for salt in [None] + list(range(16)):
        def program(sim, register, log):
            def lane(name):
                def fire(item):
                    log.append((sim.now, name, item))
                    if name == "p":
                        sim.call_soon(log.append, (sim.now, "soon", item))
                return fire
            for name in "pqr":
                register(10, 4, lane(name), name.encode() * 2)
            sim.run_until_idle()

        (log, executed), (reference_log, reference_executed) = (
            cohort_and_reference(maker(salt), program))
        assert log == reference_log
        assert executed == reference_executed
        before_rest += [entry[1] for entry in log[:3]] == ["p", "soon", "q"]
    assert 0 < before_rest < 17


class LaneError(Exception):
    """Raised by a lane's callback."""


@pytest.mark.parametrize("salt", SALTED, ids=SALT_IDS)
def test_a_raising_lane_leaves_the_queue_as_per_element_dispatch(salt):
    """After a lane's callback raises, the queue holds what per-element
    dispatch would leave: the raising element has fired, and a new
    ``run()`` goes on with the next lane."""
    def program(sim, register, log):
        def lane(name):
            def fire(item):
                log.append((sim.now, name, item))
                if name == "q" and sim.now == 14:
                    raise LaneError
            return fire
        for name in "pqr":
            register(10, 4, lane(name), name.encode() * 3)
        with pytest.raises(LaneError):
            sim.run()
        log.append(("pending", sorted((event.time, event.seq)
                                      for event in sim.pending_events())))
        sim.run()

    (log, executed), (reference_log, reference_executed) = (
        cohort_and_reference(maker(salt), program))
    assert log == reference_log
    assert executed == reference_executed == 9


class FanOut:
    """Three per-char lines written at once: a three-lane cohort."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.lines = [SerialLine(self.sim, baud=9600, name=f"fan{index}")
                      for index in range(4)]
        self.received = []
        for line in self.lines:
            line.b.on_receive(functools.partial(self.receive, line.name))
        for line in self.lines[:3]:
            line.a.write(b"fan-out")

    def receive(self, name: str, byte: int) -> None:
        self.received.append((self.sim.now, name, byte))


@pytest.mark.parametrize("events", [0, 4, 5, 12])
def test_capture_and_restore_keep_a_live_cohort(events):
    """A world captured while its lanes are queued, mid-instant or not,
    resumes as the uninterrupted run; one captured in the instant the
    lanes were registered still lets a like series join them."""
    def finish(world):
        if events == 0:
            world.lines[3].a.write(b"joiner!")
            assert len(world.sim._queue) == 1
        world.sim.run_until_idle()

    whole = FanOut()
    finish(whole)
    assert len(whole.received) == (28 if events == 0 else 21)
    world = FanOut()
    world.sim.run(max_events=events)
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(world))
    for copy in (world, restored):
        assert copy.sim.events_pending == 21 - events
        finish(copy)
        assert copy.received == whole.received
        assert copy.sim.events_executed == whole.sim.events_executed


def test_series_rejects_past_empty_and_unspaced_schedules(sim):
    sim.schedule(100, lambda: None)
    sim.run_until_idle()
    for first, interval, items in ((50, 5, b"x"), (100, 5, b""),
                                   (100, 0, b"xy")):
        with pytest.raises(SimulationError):
            sim.at_series(first, interval, print, items)
    assert sim.events_pending == 0


# ----------------------------------------------------------------------
# requeue: a fired event re-armed in place dispatches as a fresh at()
# ----------------------------------------------------------------------

class DispatchLog(FnSwappingProfiler):
    """Keeps each dispatched event's ``(time, seq, label, args)``."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def count(self, event: Event) -> None:
        self.log.append((event.time, event.seq, event.label, event.args))
        super().count(event)


class Poller:
    """A callback that re-arms its own event once per gap in ``gaps``."""

    def __init__(self, sim, rearm, name, first, gaps) -> None:
        self.sim = sim
        self.rearm = rearm
        self.gaps = list(gaps)
        self.event = sim.at(first, self.poll, name, label=f"poll {name}")
        #: Per re-arm: did it hand back the event that was firing?
        self.kept = []

    def poll(self, name: str) -> None:
        if not self.gaps:
            return
        event = self.rearm(self.sim, self.event,
                           self.sim.now + self.gaps.pop(0))
        self.kept.append(event is self.event)
        self.event = event


def rearm_by_requeue(sim, event, time):
    return sim.requeue(event, time)


def rearm_by_at(sim, event, time):
    return sim.at(time, event.fn, *event.args, label=event.label)


def requeue_program(make_sim, rearm, drive):
    """Two pollers tied with plain events, some registered mid-run.

    Poller A fires at 10, 15, 15, 20, 23, 25 and 30, poller B at 10, 20,
    25, 25 and 28; plain events fire at 10, 15, 20 and 25, and the one at
    15 registers two more, at 15 and at 20.
    """
    sim = make_sim()
    log = DispatchLog()
    sim.profiler = log
    plain = []

    def spawn(tag: str) -> None:
        plain.append(tag)
        sim.schedule(5, plain.append, tag + "+5", label="plain")
        sim.schedule(0, plain.append, tag + "+0", label="plain")

    first = Poller(sim, rearm, "A", 10, [5, 0, 5, 3, 2, 5])
    for time in (10, 15, 20, 25):
        sim.at(time, spawn if time == 15 else plain.append, f"t{time}",
               label="plain")
    second = Poller(sim, rearm, "B", 10, [10, 5, 0, 3])
    drive(sim)
    return log.log, sim.events_executed, first.kept + second.kept


@pytest.mark.parametrize("drive", [drive_by_run, drive_by_step,
                                   drive_by_step_event],
                         ids=["run", "step", "step_event"])
@pytest.mark.parametrize("salt", [None, 0xD1CE, 7],
                         ids=["fifo", "salt-d1ce", "salt-7"])
def test_requeue_dispatches_as_a_fresh_at_would(salt, drive):
    """A poll that requeues its own event dispatches every element at
    the ``(time, seq, label, args)`` that scheduling a new event with
    ``at`` gives, under FIFO and salted tie-breaks alike, and hands back
    the event that was firing."""
    make_sim = (Simulator if salt is None
                else lambda: OrderShuffleSimulator(order_salt=salt))
    log, executed, kept = requeue_program(make_sim, rearm_by_requeue, drive)
    reference, reference_executed, fresh = requeue_program(
        make_sim, rearm_by_at, drive)
    assert log == reference
    assert executed == reference_executed == len(log) == 18
    assert kept == [True] * 10
    assert fresh == [False] * 10
    polls = sorted((time, args[0]) for time, _seq, label, args in log
                   if label.startswith("poll"))
    assert polls == sorted(
        [(time, "A") for time in (10, 15, 15, 20, 23, 25, 30)]
        + [(time, "B") for time in (10, 20, 25, 25, 28)])


@pytest.mark.parametrize("salt", [None, 0xD1CE, 7],
                         ids=["fifo", "salt-d1ce", "salt-7"])
def test_requeue_refuses_the_past_and_a_series(salt):
    sim = Simulator() if salt is None else OrderShuffleSimulator(salt)
    fired = []
    event = sim.at(10, fired.append, "x", label="once")
    sim.run_until_idle()
    key = event.seq
    with pytest.raises(SimulationError):
        sim.requeue(event, 9)
    assert (event.time, event.seq, sim.events_pending) == (10, key, 0)
    assert not sim.is_queued(event)
    series = sim.at_series(20, 5, fired.append, b"ab", label="bytes")
    with pytest.raises(SimulationError):
        sim.requeue(series, 30)
    assert sim.events_pending == 2
    assert sim.requeue(event, 10) is event
    assert sim.is_queued(event)
    sim.run_until_idle()
    assert fired == ["x", "x", ord("a"), ord("b")]
    assert sim.events_executed == 4
