"""Tests for the discrete-event engine."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings, strategies as st

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
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

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
# per-character serial writes: one event series per write
# ----------------------------------------------------------------------

def per_byte_write(endpoint: SerialEndpoint, data: bytes) -> int:
    """The reference schedule: one ``sim.at`` per byte, every key drawn
    when the write is made."""
    line = endpoint.line
    sim = line.sim
    arrival = max(sim.now, endpoint._tx_free_at)
    for byte in data:
        arrival += line.byte_time
        sim.at(arrival, endpoint._deliver, byte,
               label=f"serial {endpoint.name}")
    endpoint._tx_free_at = arrival
    endpoint.bytes_sent += len(data)
    return arrival


class SerialScript:
    """Per-char writes both ways on one line, plus tie-making probes.

    ``writes`` are ``(slot, side, data)`` and ``probes`` are ``(slot,
    follow)``, where a slot is a multiple of the byte time, so probes
    tie with byte arrivals.  A probe with a non-zero ``follow``
    schedules another probe that many byte times later: that key is
    drawn after an earlier write, and it ties with that write's later
    bytes.  A byte with its high bit set that lands at ``b`` is
    answered from inside the receive handler.
    """

    def __init__(self, sim, write, writes, probes) -> None:
        self.sim = sim
        self.write = write
        self.line = SerialLine(sim, baud=9600)
        self.log = []
        self.line.a.on_receive(self._rx_a)
        self.line.b.on_receive(self._rx_b)
        byte_time = self.line.byte_time
        for slot, side, data in writes:
            sim.at(slot * byte_time, self._write, side, data, label="writer")
        for slot, follow in probes:
            sim.at(slot * byte_time, self._probe, follow, label="probe")

    def _write(self, side: str, data: bytes) -> None:
        self.log.append((self.sim.now, "write", side))
        self.write(getattr(self.line, side), data)

    def _probe(self, follow: int) -> None:
        self.log.append((self.sim.now, "probe", follow))
        if follow:
            self.sim.schedule(follow * self.line.byte_time, self._probe, 0,
                              label="probe")

    def _rx_a(self, byte: int) -> None:
        self.log.append((self.sim.now, "a", byte))

    def _rx_b(self, byte: int) -> None:
        self.log.append((self.sim.now, "b", byte))
        if byte & 0x80:
            self.write(self.line.b, bytes([byte & 0x7F]) * (byte & 3))


WRITES = st.lists(st.tuples(st.integers(0, 40), st.sampled_from("ab"),
                            st.binary(max_size=12)), max_size=6)
PROBES = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 5)),
                  max_size=8)
SALTS = st.integers(0, 2**32 - 1)


def script_pair(make_sim, writes, probes):
    """The same script under the serial line's write and the reference."""
    return (SerialScript(make_sim(), SerialEndpoint.write, writes, probes),
            SerialScript(make_sim(), per_byte_write, writes, probes))


def sim_makers(salt: int):
    return (Simulator, lambda: OrderShuffleSimulator(order_salt=salt))


def event_keys(events) -> collections.Counter:
    return collections.Counter(
        (event.time, event.seq, event.label, event.args,
         getattr(event.fn, "__qualname__", None)) for event in events)


@settings(max_examples=150, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS)
def test_serial_writes_dispatch_like_per_byte_events(writes, probes, salt):
    for make_sim in sim_makers(salt):
        series, reference = script_pair(make_sim, writes, probes)
        assert series.sim.run_until_idle() == reference.sim.run_until_idle()
        assert series.log == reference.log
        assert series.sim.now == reference.sim.now


@settings(max_examples=100, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS,
       stops=st.lists(st.integers(0, 90_000), max_size=4))
def test_pending_events_list_every_undelivered_byte(writes, probes, salt,
                                                    stops):
    for make_sim in sim_makers(salt):
        series, reference = script_pair(make_sim, writes, probes)
        for stop in sorted(stops) + [None]:
            series.sim.run(until=stop)
            reference.sim.run(until=stop)
            assert series.log == reference.log
            assert (event_keys(series.sim.pending_events())
                    == event_keys(reference.sim.pending_events()))
            assert (series.sim.events_pending
                    == reference.sim.events_pending)


@settings(max_examples=100, deadline=None)
@given(writes=WRITES, probes=PROBES, salt=SALTS,
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=20))
def test_stepping_head_events_follows_the_reference(writes, probes, salt,
                                                    picks):
    for make_sim in sim_makers(salt):
        series, reference = script_pair(make_sim, writes, probes)
        steps = 0
        while True:
            head = series.sim.head_events()
            reference_head = reference.sim.head_events()
            assert event_keys(head) == event_keys(reference_head)
            assert [event.seq for event in head] == [
                event.seq for event in reference_head]
            if not head:
                break
            index = picks[steps % len(picks)] % len(head)
            series.sim.step_event(head[index])
            reference.sim.step_event(reference_head[index])
            steps += 1
        assert series.log == reference.log

        # Always stepping the first head event, or calling step(), is
        # run()'s order.
        run, stepped, single = (
            SerialScript(make_sim(), SerialEndpoint.write, writes, probes)
            for _ in range(3))
        run.sim.run_until_idle()
        while stepped.sim.head_events():
            stepped.sim.step_event(stepped.sim.head_events()[0])
        while single.sim.step():
            pass
        assert stepped.log == run.log == single.log


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
    assert sim.events_pending == 0
    assert not sim.is_queued(series)
    assert sim.events_executed == 3


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
    """``run()`` re-arms a series inline, ``step_event`` through
    ``_Series.rearm``: each element must show the same ``(time, seq,
    args)``, reach the callback with the same argument and count the
    same in ``events_executed``."""
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
