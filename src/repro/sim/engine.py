"""The discrete-event engine.

A :class:`Simulator` owns a priority queue of :class:`Event` objects and
executes them in timestamp order.  Ties are broken by insertion order,
which keeps runs fully deterministic (the heap's entry format is in
DESIGN §5, "Event queue").  There are no threads: a "device"
in this reproduction is just an object whose methods schedule further
events.

An *event series* (:meth:`Simulator.at_series`) is one event that
fires once per item at evenly spaced times: a per-character serial
write is one.  It dispatches exactly as one :meth:`Simulator.at` per
item made at registration would -- the same times, tie-break keys,
callback, args and label, each element its own dispatched event --
but the queue holds one entry for it at a time, re-armed at the next
element as each one fires.

The engine deliberately mirrors the shape of a kernel event loop rather
than a generator-based process model (as in simpy): the paper's code is
interrupt-driven C, and callback-style events map onto interrupt
handlers and timeouts one-for-one.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Optional, Sequence

from repro.sim.clock import format_time


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Events are returned by :meth:`Simulator.schedule` / :meth:`Simulator.at`
    and may be cancelled before they fire.  Cancellation is O(1): the
    event is flagged and skipped when it reaches the head of the queue.
    An event series (:meth:`Simulator.at_series`) shows its next element
    in ``time``, ``seq`` and ``args``; cancelling it drops every element
    not yet dispatched.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled", "label",
                 "series")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label
        #: The elements still to come when this event is a series.
        self.series: Optional[_Series] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True unless the event has been cancelled.

        A fired event still reads as pending; use
        :meth:`Simulator.is_queued` to ask whether it is still queued.
        """
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event {name} @{format_time(self.time)} {state}>"


class _Series:
    """What an event series holds besides the element it shows now.

    Element ``i`` fires ``interval`` after element ``i - 1`` with key
    ``keys[i]`` and args ``(items[i],)``; ``index`` is the element the
    event shows.
    """

    __slots__ = ("items", "keys", "interval", "index")

    def __init__(self, items: Sequence, keys: Sequence, interval: int) -> None:
        self.items = items
        self.keys = keys
        self.interval = interval
        self.index = 0

    def rearm(self, event: Event) -> Optional[tuple]:
        """Advance ``event`` to its next element; returns its heap entry.

        None when the element ``event`` showed was the last.
        :meth:`Simulator.step_event` calls this; :meth:`Simulator.run`
        runs the same steps inline.
        """
        index = self.index + 1
        if index == len(self.items):
            return None
        self.index = index
        event.time = time = event.time + self.interval
        event.seq = seq = self.keys[index]
        event.args = (self.items[index],)
        return (time, seq, event)

    def later(self, event: Event) -> "list[Event]":
        """The elements after the one ``event`` shows, as plain events."""
        return [Event(event.time + (index - self.index) * self.interval,
                      self.keys[index], event.fn, (self.items[index],),
                      event.kwargs, event.label)
                for index in range(self.index + 1, len(self.items))]


class Simulator:
    """Deterministic single-threaded discrete-event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10 * MS, device.transmit, frame)
        sim.run(until=5 * SECOND)

    All components in the reproduction share one ``Simulator`` and
    consult :attr:`now` for the current time.
    """

    def __init__(self) -> None:
        #: Heap of ``(time, seq, event)`` entries.  ``seq`` is unique, so
        #: a comparison never reaches the ``Event``.
        self._queue: list[tuple[int, Any, Event]] = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._events_executed = 0
        #: Optional SimProfiler (repro.obs.profile); like tracer.flight,
        #: a single attribute that keeps the off-cost to one None test.
        self.profiler = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._events_executed

    @property
    def events_pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        Each undispatched element of a series counts as one event.
        """
        return len(self.pending_events())

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: int,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative; a zero delay runs after all events
        already queued for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self._now + delay, fn, *args, label=label, **kwargs)

    def at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}; now is {format_time(self._now)}"
            )
        seq = self._next_seq(time)
        event = Event(time, seq, fn, args, kwargs, label)
        heappush(self._queue, (time, seq, event))
        return event

    def requeue(self, event: Event, time: int) -> Event:
        """Queue a fired plain ``event`` again at ``time``; returns it.

        Equivalent to ``at(time, event.fn, *event.args,
        label=event.label)``: the event takes the tie-break key that
        call would draw now, but no new event is built.  A callback that
        re-arms itself (a CSMA poll) passes its own event; an event that
        is still queued must not be requeued.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}; now is {format_time(self._now)}"
            )
        if event.series is not None:
            raise SimulationError(f"cannot requeue series event {event!r}")
        event.time = time
        event.seq = seq = self._next_seq(time)
        heappush(self._queue, (time, seq, event))
        return event

    def at_series(
        self,
        first: int,
        interval: int,
        fn: Callable[[Any], Any],
        items: Sequence,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(item)`` for each item: at ``first``, then every ``interval``.

        Equivalent to ``sim.at(first + i * interval, fn, items[i],
        label=label)`` for each ``i`` in order, made now: all the
        tie-break keys are reserved here.  The returned event shows the
        next element to fire; cancelling it drops the rest.
        """
        if first < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(first)}; now is {format_time(self._now)}"
            )
        if interval <= 0:
            raise SimulationError(f"series interval must be positive (got {interval})")
        if not items:
            raise SimulationError("cannot schedule an empty series")
        keys = self._reserve_seqs(first, len(items))
        event = Event(first, keys[0], fn, (items[0],), {}, label)
        event.series = _Series(items, keys, interval)
        heappush(self._queue, (first, keys[0], event))
        return event

    def _next_seq(self, time: int):
        """Tie-break key for a new event at ``time``.

        The default — a monotonic integer — gives strict registration
        (FIFO) order among equal-time events.  The SimSanitizer's
        shuffle simulator overrides this to perturb *cross-instant*
        ties while preserving FIFO among events scheduled in the same
        instant; any override must keep keys unique and totally ordered,
        because the heap orders its ``(time, seq, event)`` entries by
        ``(time, seq)`` alone and must never fall through to the event.
        """
        self._seq += 1
        return self._seq

    def _reserve_seqs(self, time: int, count: int) -> Sequence:
        """The keys of ``count`` events registered now, the first at ``time``.

        The second tie-break hook: it must return what ``count``
        successive :meth:`_next_seq` calls would, because a series'
        elements are ordered exactly like that many :meth:`at` calls.
        """
        first = self._seq + 1
        self._seq += count
        return range(first, first + count)

    def call_soon(self, fn: Callable[..., Any], *args: Any, label: str = "", **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current instant (after already-queued work).

        This is the analogue of a software interrupt: a device interrupt
        handler uses it to defer protocol processing out of "interrupt
        context", exactly as the paper's driver defers IP input.
        """
        return self.schedule(0, fn, *args, label=label, **kwargs)

    # ------------------------------------------------------------------
    # exploration hooks (repro.check drives these)
    # ------------------------------------------------------------------

    def head_events(self) -> "list[Event]":
        """All pending events at the earliest queued timestamp, in seq order.

        These are exactly the schedules a real kernel could execute next:
        the engine's default is FIFO (lowest ``seq`` first), but any of
        them firing first is a legal interleaving.  The model checker
        (:mod:`repro.check`) enumerates them; normal runs never call this.
        A series appears as its next element.  Cancelled events are
        pruned from the head of the queue as a side effect, exactly as
        :meth:`step` would.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        if not queue:
            return []
        head_time = queue[0][0]
        chosen = [event for time, _seq, event in queue
                  if time == head_time and not event.cancelled]
        chosen.sort(key=lambda event: event.seq)
        return chosen

    def pending_events(self) -> "list[Event]":
        """Every not-yet-cancelled queued event, in no particular order.

        A series lists itself (its next element) and then each later
        element as a plain event with that element's time, key and args.
        Read-only diagnostics: reprocheck folds the pending set (as
        now-relative times plus labels) into its state fingerprint.
        """
        events = []
        for _time, _seq, event in self._queue:
            if event.cancelled:
                continue
            events.append(event)
            if event.series is not None:
                events.extend(event.series.later(event))
        return events

    def is_queued(self, event: Event) -> bool:
        """True while ``event`` sits in this simulator's queue.

        Identity-based on purpose: a fired event keeps ``cancelled ==
        False`` but leaves the queue, and reprocheck's stuck-FSM
        invariant needs to tell "armed timer" apart from "stale
        reference to a timer that already fired".  A fired event that
        :meth:`requeue` put back is queued again.
        """
        return any(entry[2] is event for entry in self._queue)

    def step_event(self, event: Event) -> None:
        """Execute one specific pending head event (exploration only).

        ``event`` must come from :meth:`head_events` on this simulator.
        The queue is small at the head (a handful of same-instant
        events), so remove + re-heapify is cheap; correctness matters
        more than speed on this path.
        """
        if event.cancelled:
            raise SimulationError(f"cannot step cancelled event {event!r}")
        queue = self._queue
        time, args = event.time, event.args
        try:
            queue.remove((time, event.seq, event))
        except ValueError:
            raise SimulationError(f"event {event!r} is not queued here") from None
        entry = None if event.series is None else event.series.rearm(event)
        if entry is not None:
            queue.append(entry)
        heapify(queue)
        if time < self._now:
            raise SimulationError(f"event {event!r} lies in the past")
        self._now = time
        self._events_executed += 1
        if self.profiler is not None:
            self.profiler.count(event)
        event.fn(*args, **event.kwargs)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns False when the queue is empty (nothing was run).
        """
        return self.run(max_events=1) == 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute time: the clock is advanced to exactly
        ``until`` when the horizon is hit, so back-to-back ``run`` calls
        compose.  Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        queue = self._queue
        pop, replace = heappop, heapreplace
        executed = 0
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                time, _seq, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    continue
                if until is not None and time > until:
                    break
                series = event.series
                if series is None:
                    pop(queue)
                else:
                    # A series leaves the heap only after its last
                    # element; until then it re-arms in place, at a key
                    # reserved when it was registered, before the
                    # callback runs.  These are _Series.rearm's steps,
                    # inlined because a per-character line runs them per
                    # byte; test_run_rearms_a_series_as_step_event_does
                    # holds the two copies to one behaviour.
                    items = series.items
                    index = series.index
                    item = items[index]
                    index += 1
                    if index == len(items):
                        pop(queue)
                    else:
                        series.index = index
                        event.time = next_time = time + series.interval
                        event.seq = seq = series.keys[index]
                        event.args = (items[index],)
                        replace(queue, (next_time, seq, event))
                self._now = time
                self._events_executed += 1
                executed += 1
                if self.profiler is not None:
                    self.profiler.count(event)
                if series is None:
                    event.fn(*event.args, **event.kwargs)
                else:
                    event.fn(item)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain.  Guards against runaway loops."""
        executed = self.run(max_events=max_events)
        if self._queue and self.events_pending:
            if executed >= max_events:
                raise SimulationError(
                    f"simulation did not go idle within {max_events} events"
                )
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_time(self._now)} "
            f"pending={self.events_pending} executed={self._events_executed}>"
        )
