"""Structured event tracing.

A :class:`Tracer` collects timestamped records from any layer of the
stack -- radio transmissions, driver interrupts, IP forwards, TCP
retransmissions -- into one ordered log.  Benchmarks and tests query it
instead of scraping printed output; examples print it for humans.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.sim.clock import format_time
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import FlightRecorder


@dataclass(slots=True)
class TraceRecord:
    """One trace entry.

    ``category`` is a dotted topic like ``"radio.tx"`` or ``"tcp.rexmit"``;
    ``source`` identifies the emitting component (hostname, callsign);
    ``detail`` carries free-form structured fields.

    Slotted, not frozen: a frozen dataclass's ``__init__`` sets each
    field through ``object.__setattr__``, which made a record cost
    about four times as much, and a busy channel logs one per key-up,
    collision and unkey.  Nothing writes to a record once it is logged.
    """

    time: int
    category: str
    source: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable single line."""
        extras = " ".join(f"{key}={value}" for key, value in self.detail.items())
        text = f"[{format_time(self.time)}] {self.category:<16} {self.source:<12} {self.message}"
        return f"{text} {extras}".rstrip()


class Tracer:
    """Append-only trace log bound to a simulator clock."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.records: List[TraceRecord] = []
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self._by_category: Dict[str, List[TraceRecord]] = {}
        #: Optional attached packet flight recorder (see repro.obs.spans);
        #: layers check ``tracer.flight`` before emitting span events.
        self.flight: Optional["FlightRecorder"] = None

    def log(
        self,
        category: str,
        source: str,
        message: str,
        **detail: Any,
    ) -> TraceRecord:
        """Record an event at the current simulated time."""
        record = TraceRecord(self.sim.now, category, source, message, detail)
        self.records.append(record)
        bucket = self._by_category.get(category)
        if bucket is None:
            self._by_category[category] = [record]
        else:
            bucket.append(record)
        for listener in self._listeners:
            listener(record)
        return record

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` for every future record (live taps in tests)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: int = 0,
    ) -> List[TraceRecord]:
        """Filter records by category prefix, source, and start time."""
        return list(self.iter_select(category=category, source=source, since=since))

    def iter_select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: int = 0,
    ) -> Iterator[TraceRecord]:
        """Iterator form of :meth:`select`.

        Records are appended in simulated-time order, so ``since`` is a
        bisect rather than a scan from index 0; an exact-category query
        (one whose prefix matches no other logged category) walks only
        that category's index.
        """
        records = self.records
        if category is not None:
            exact = self._by_category.get(category)
            if exact is not None and not any(
                key.startswith(category) and key != category
                for key in self._by_category
            ):
                records = exact
                category = None
        start = 0
        if since > 0:
            start = bisect.bisect_left(records, since, key=lambda r: r.time)
        for index in range(start, len(records)):
            record = records[index]
            if category is not None and not record.category.startswith(category):
                continue
            if source is not None and record.source != source:
                continue
            yield record

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of matching records."""
        return sum(1 for _ in self.iter_select(category=category, source=source))

    def render(self, **kwargs: Any) -> str:
        """Render matching records as a multi-line string."""
        return "\n".join(record.render() for record in self.select(**kwargs))


class NullTracer(Tracer):
    """The tracer of an untraced component: it keeps nothing.

    :data:`NULL_TRACER` is the one shared instance.  It is stateless:
    :meth:`log` discards, queries see an empty log, ``flight`` stays
    None, and it takes no attribute and no listener, so no
    :class:`~repro.obs.spans.FlightRecorder` can attach to it.
    """

    records: Sequence[TraceRecord] = ()
    _listeners: Sequence[Callable[[TraceRecord], None]] = ()
    _by_category: Mapping[str, List[TraceRecord]] = MappingProxyType({})
    flight: Optional["FlightRecorder"] = None

    def __init__(self) -> None:
        """Nothing to bind: a null tracer reads no clock."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"the shared null tracer keeps no state ({name!r})")

    def log(self, category: str, source: str, message: str, **detail: Any) -> None:  # type: ignore[override]
        """Discard the event without allocating anything."""
        return None


#: The tracer every untraced component shares.
NULL_TRACER = NullTracer()
