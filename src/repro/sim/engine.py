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
callback, args and label, each element its own dispatched event.

Series registered back to back in one instant, with no tie-break key
drawn between them and the same first time, interval and length, are
the *lanes* of one *cohort*.  At every element time their keys are
adjacent: only the other lanes' keys lie between them, and those
belong to other times.  So the queue holds one entry per cohort, keyed
by the next lane to fire.  A lone series is a one-lane cohort, which
:meth:`Simulator.run` re-arms in place as each element fires; a
many-lane cohort's lanes it fires at each instant in one loop, and
re-keys the entry once.  A frame that every promiscuous TNC passes up
its serial line at the same instant and baud is a cohort with a lane
per TNC.

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
        #: The cohort this event is a lane of, when it is a series.
        self.series: Optional[_Cohort] = None

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


class _Cohort:
    """Event series that fire in lockstep: the lanes of one queue entry.

    A lane is ``(event, items, keys)``.  Its element ``i`` fires at
    ``first + i * interval`` with key ``keys[i]`` and args
    ``(items[i],)``, and ``event`` shows the next element it will fire.
    The lanes are in registration order, which is key order at every
    element time.  At element ``index``, lanes before ``cursor`` have
    fired and the rest have not; the queue entry carries lane
    ``cursor``'s time and key, so it sorts where that lane's own event
    would, and the first lane's event, whose ``series`` is the cohort.
    A cancelled lane stays in place and is skipped.  While the cohort
    has one lane, ``items`` and ``keys`` are that lane's, for
    :meth:`Simulator.run`'s per-element path; they are None once
    another lane joins.
    """

    __slots__ = ("lanes", "items", "keys", "first", "interval", "length",
                 "index", "cursor")

    def __init__(self, lanes: list, first: int, interval: int, length: int,
                 index: int = 0, cursor: int = 0) -> None:
        self.lanes = lanes
        self.items = self.keys = None
        if len(lanes) == 1:
            _event, self.items, self.keys = lanes[0]
        self.first = first
        self.interval = interval
        self.length = length
        self.index = index
        self.cursor = cursor

    def entry(self) -> Optional[tuple]:
        """The queue entry for the next lane to fire; None when none is left.

        Moves on to the next element once every lane has fired this one.
        """
        lanes = self.lanes
        if self.cursor == len(lanes):
            self.index += 1
            self.cursor = 0
        index = self.index
        if index == self.length or not lanes:
            return None
        return (self.first + index * self.interval,
                lanes[self.cursor][2][index], lanes[0][0])

    def due(self) -> "list[Event]":
        """The live lanes that have not fired the current element."""
        return [event for event, _items, _keys in self.lanes[self.cursor:]
                if not event.cancelled]

    def _shown(self, position: int) -> int:
        """The element lane ``position``'s event shows; ``length`` once
        it has fired its last."""
        return self.index + (position < self.cursor)

    def position(self, event: Event) -> Optional[int]:
        """Where ``event`` is among the lanes, while it has an element to fire.

        A cancelled lane has none once the cohort has passed the
        element its event shows, as a cancelled lone series leaves the
        heap when the head reaches it.
        """
        for position, (member, _items, keys) in enumerate(self.lanes):
            if member is event:
                shown = self._shown(position)
                if shown == self.length or (
                        event.cancelled and keys[shown] != event.seq):
                    return None
                return position
        return None

    def pending(self) -> "list[Event]":
        """Each live lane's event, then its later elements as plain events."""
        events = []
        for position, (event, items, keys) in enumerate(self.lanes):
            shown = self._shown(position)
            if event.cancelled or shown == self.length:
                continue
            events.append(event)
            events.extend(
                Event(event.time + (index - shown) * self.interval, keys[index],
                      event.fn, (items[index],), event.kwargs, event.label)
                for index in range(shown + 1, self.length))
        return events

    def detach(self, position: int) -> "list[_Cohort]":
        """Fire lane ``position``'s shown element apart from the other lanes.

        The lane's event is re-armed at its next element, and the lane
        goes on as a one-lane cohort.  Its keys lie between those of the
        lanes before and after it, so those go on as two cohorts.
        Returns the parts that have lanes, whose queue entries the
        caller makes afresh.
        """
        lanes, cursor = self.lanes, self.cursor
        event, items, keys = lane = lanes[position]
        shown = self._shown(position)
        before = _Cohort(lanes[:position], self.first, self.interval,
                         self.length, self.index, min(cursor, position))
        alone = _Cohort([lane], self.first, self.interval, self.length,
                        shown, 1)
        after = _Cohort(lanes[position + 1:], self.first, self.interval,
                        self.length, self.index, max(0, cursor - position - 1))
        parts = [part for part in (before, alone, after) if part.lanes]
        for part in parts:
            for member in part.lanes:
                member[0].series = part
        following = shown + 1
        if following < self.length:
            event.time += self.interval
            event.seq = keys[following]
            event.args = (items[following],)
        return parts


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
        #: Heap of ``(time, seq, event)`` entries; a cohort's entry holds
        #: its first lane's event.  ``seq`` is unique, so a comparison
        #: never reaches the event.
        self._queue: list[tuple[int, Any, Event]] = []
        self._seq = 0
        #: The last series registered, with ``_seq`` and ``now`` just
        #: after: what :meth:`at_series` tests before joining its cohort.
        self._last_series: Optional[tuple[Event, int, int]] = None
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

        The series joins the cohort of the series registered just
        before it when both were registered in this instant, no key was
        drawn since that one's were reserved, ``first`` is that one's
        and later than now, the interval and length are that one's, and
        that one is not cancelled.  Its keys then follow that one's
        directly at every element time, under FIFO and salted order
        alike, so the cohort's one queue entry sorts for both.
        """
        if first < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(first)}; now is {format_time(self._now)}"
            )
        if interval <= 0:
            raise SimulationError(f"series interval must be positive (got {interval})")
        if not items:
            raise SimulationError("cannot schedule an empty series")
        cohort = self._joinable(first, interval, len(items))
        keys = self._reserve_seqs(first, len(items))
        event = Event(first, keys[0], fn, (items[0],), {}, label)
        lane = (event, items, keys)
        if cohort is None:
            cohort = _Cohort([lane], first, interval, len(items))
            heappush(self._queue, (first, keys[0], event))
        else:
            cohort.lanes.append(lane)
            cohort.items = cohort.keys = None
        event.series = cohort
        self._last_series = (event, self._seq, self._now)
        return event

    def _joinable(self, first: int, interval: int, length: int) -> Optional[_Cohort]:
        """The cohort a series registered now, before its keys, may join."""
        if self._last_series is None:
            return None
        last, seq, now = self._last_series
        cohort = last.series
        if (seq == self._seq and now == self._now and now < first == cohort.first
                and interval == cohort.interval and length == cohort.length
                and not last.cancelled):
            return cohort
        return None

    def _next_seq(self, time: int):
        """Tie-break key for a new event at ``time``.

        The default — a monotonic integer — gives strict registration
        (FIFO) order among equal-time events.  The SimSanitizer's
        shuffle simulator overrides this to perturb *cross-instant*
        ties while preserving FIFO among events scheduled in the same
        instant; any override must keep keys unique and totally ordered,
        because the heap orders its ``(time, seq, event)`` entries by
        ``(time, seq)`` alone and must never fall through to the event.
        An override must also advance ``_seq``, as both hooks do here:
        :meth:`at_series` joins a cohort only while ``_seq`` is
        unchanged, so a key drawn without advancing it could land
        between two lanes' keys.
        """
        self._seq += 1
        return self._seq

    def _reserve_seqs(self, time: int, count: int) -> Sequence:
        """The keys of ``count`` events registered now, the first at ``time``.

        The second tie-break hook: it must return what ``count``
        successive :meth:`_next_seq` calls would, because a series'
        elements are ordered exactly like that many :meth:`at` calls,
        and advance ``_seq`` as they would.
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
        A series appears as its next element, and each lane of a cohort
        as its own series.  Cancelled events are pruned from the head of
        the queue as a side effect, exactly as :meth:`step` would: a
        cohort at the head moves past its cancelled lanes there, on to
        its next element once none is left at this one.  Like
        :meth:`step_event`, it raises inside :meth:`run`, whose
        many-lane loop holds the head entry while a callback runs.
        """
        if self._running:
            raise SimulationError("head_events() inside run()")
        queue = self._queue
        while queue:
            head = queue[0][2]
            cohort = head.series
            if cohort is not None:
                if not self._skip_cancelled(cohort):
                    break
            elif head.cancelled:
                heappop(queue)
            else:
                break
        if not queue:
            return []
        head_time = queue[0][0]
        chosen = []
        for time, _seq, event in queue:
            if time == head_time:
                if event.series is not None:
                    chosen.extend(event.series.due())
                elif not event.cancelled:
                    chosen.append(event)
        chosen.sort(key=lambda event: event.seq)
        return chosen

    def _skip_cancelled(self, cohort: _Cohort) -> bool:
        """Move the cohort at the head past the cancelled lanes at its cursor.

        Its entry is re-keyed, or popped once no lane is left to fire,
        as per-element dispatch pops cancelled events at the head.
        False when the lane at the cursor is live.
        """
        lanes, cursor = cohort.lanes, cohort.cursor
        while cursor < len(lanes) and lanes[cursor][0].cancelled:
            cursor += 1
        if cursor == cohort.cursor:
            return False
        cohort.cursor = cursor
        entry = cohort.entry()
        if entry is None or not cohort.due():
            heappop(self._queue)
        else:
            heapreplace(self._queue, entry)
        return True

    def pending_events(self) -> "list[Event]":
        """Every not-yet-cancelled queued event, in no particular order.

        A series lists itself (its next element) and then each later
        element as a plain event with that element's time, key and args;
        so does each lane of a cohort.  Read-only diagnostics:
        reprocheck folds the pending set (as now-relative times plus
        labels) into its state fingerprint.
        """
        events = []
        for _time, _seq, event in self._queue:
            if event.series is not None:
                events.extend(event.series.pending())
            elif not event.cancelled:
                events.append(event)
        return events

    def is_queued(self, event: Event) -> bool:
        """True while ``event`` sits in this simulator's queue.

        Identity-based on purpose: a fired event keeps ``cancelled ==
        False`` but leaves the queue, and reprocheck's stuck-FSM
        invariant needs to tell "armed timer" apart from "stale
        reference to a timer that already fired".  A fired event that
        :meth:`requeue` put back is queued again.  A series is queued
        until its last element fires, through its cohort's entry.
        """
        cohort = event.series
        if cohort is None:
            return any(entry[2] is event for entry in self._queue)
        if cohort.position(event) is None:
            return False
        return any(entry[2].series is cohort for entry in self._queue)

    def step_event(self, event: Event) -> None:
        """Execute one specific pending head event (exploration only).

        ``event`` must come from :meth:`head_events` on this simulator.
        The queue is small at the head (a handful of same-instant
        events), so remove + re-heapify is cheap; correctness matters
        more than speed on this path.  A lane of a many-lane cohort
        fires apart from the others and goes on as a series of its own.
        """
        if self._running:
            raise SimulationError("step_event() inside run()")
        if event.cancelled:
            raise SimulationError(f"cannot step cancelled event {event!r}")
        queue = self._queue
        time, args = event.time, event.args
        cohort = event.series
        if cohort is None:
            entry = (time, event.seq, event)
        else:
            position = cohort.position(event)
            entry = None if position is None else cohort.entry()
        try:
            queue.remove(entry)
        except ValueError:
            raise SimulationError(f"event {event!r} is not queued here") from None
        if cohort is not None:
            for part in cohort.detach(position):
                entry = part.entry()
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
        ``until`` when the horizon is hit or the queue drains, so
        back-to-back ``run`` calls compose.  A run that stops at
        ``max_events`` leaves the clock at the last event it ran.
        Returns the number of events executed by this call.
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
                cohort = event.series
                if cohort is None:
                    if event.cancelled:
                        pop(queue)
                        continue
                    if until is not None and time > until:
                        break
                    pop(queue)
                    self._now = time
                    self._events_executed += 1
                    executed += 1
                    if self.profiler is not None:
                        self.profiler.count(event)
                    event.fn(*event.args, **event.kwargs)
                    continue
                items = cohort.items
                if items is not None:
                    # A lone series re-arms in place, at a key reserved
                    # when it was registered, before its callback runs,
                    # and leaves the heap after its last element.  A
                    # per-character write runs this per byte, so it
                    # skips the many-lane loop's per-instant set-up;
                    # test_run_rearms_a_series_as_step_event_does holds
                    # it to step_event's behaviour.
                    if event.cancelled:
                        pop(queue)
                        continue
                    if until is not None and time > until:
                        break
                    index = cohort.index
                    item = items[index]
                    index += 1
                    if index == cohort.length:
                        pop(queue)
                    else:
                        cohort.index = index
                        event.time = next_time = time + cohort.interval
                        event.seq = seq = cohort.keys[index]
                        event.args = (items[index],)
                        replace(queue, (next_time, seq, event))
                    self._now = time
                    self._events_executed += 1
                    executed += 1
                    if self.profiler is not None:
                        self.profiler.count(event)
                    event.fn(item)
                    continue
                if until is not None and time > until:
                    # Cancelled lanes at the head leave it first, as
                    # cancelled events do at the horizon.
                    if self._skip_cancelled(cohort):
                        continue
                    break
                # Fire the cohort's lanes at this instant in key order.
                # Each lane's event shows its next element before its
                # callback runs, as a lone series' does.  Stop after a
                # callback that drew a key, so the heap orders what it
                # queued against the lanes still to fire, and re-key
                # the cohort once, in a finally, so a raising callback
                # leaves the queue as per-element dispatch would.  A
                # pass from the first lane that fires none found every
                # lane cancelled: the cohort leaves the heap and the
                # clock stays, as for a cancelled plain event.
                head = queue[0]
                lanes = cohort.lanes
                count = len(lanes)
                index = cohort.index
                start = cursor = cohort.cursor
                following = index + 1
                rearm = following < cohort.length
                next_time = time + cohort.interval
                drawn = self._seq
                fired = executed
                try:
                    while cursor < count:
                        event, items, keys = lanes[cursor]
                        cursor += 1
                        if event.cancelled:
                            continue
                        # Callbacks that look at the queue see this
                        # lane as fired.
                        cohort.cursor = cursor
                        if rearm:
                            event.time = next_time
                            event.seq = keys[following]
                            event.args = (items[following],)
                        self._now = time
                        self._events_executed += 1
                        executed += 1
                        if self.profiler is not None:
                            self.profiler.count(event)
                        event.fn(items[index])
                        if self._seq != drawn or executed == max_events:
                            break
                finally:
                    # _Cohort.entry's steps, inlined to keep a method
                    # call out of every instant.
                    if cursor < count:
                        entry = (time, lanes[cursor][2][index], head[2])
                    else:
                        cohort.index = following
                        cohort.cursor = 0
                        entry = None
                        if rearm and (start or executed != fired):
                            entry = (next_time, lanes[0][2][following],
                                     head[2])
                    if queue[0] is head:
                        if entry is None:
                            pop(queue)
                        else:
                            replace(queue, entry)
                    else:
                        # A callback queued an event ahead of the old
                        # key, which only a salted tie-break can do.
                        queue.remove(head)
                        heapify(queue)
                        if entry is not None:
                            heappush(queue, entry)
        finally:
            self._running = False
        # The clock moves to the horizon only when the loop stopped
        # there or drained the queue: a stop at max_events can leave
        # events before ``until`` queued.
        if until is not None and self._now < until and (
                not queue or max_events is None or executed < max_events):
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
