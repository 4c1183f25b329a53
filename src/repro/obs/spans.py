"""Packet lifecycle spans: the flight recorder.

A :class:`FlightRecorder` hangs off the shared :class:`~repro.sim.trace.Tracer`
(``tracer.flight``) and follows every IP datagram from birth to its terminal
state.  Datagrams get a monotonically increasing ``pkt_id`` at ``ip_output``
time; hops in lower layers are correlated back to that span by content --
``(source address value, IP identification)`` parsed at fixed header offsets --
because per-host identifications are allocated sequentially, so the pair is
unique within a run, and forwarding preserves it end to end while
retransmissions (fresh ident) correctly open fresh spans.

Two classes of events exist because the KISS TNCs are promiscuous (the paper's
section 3 problem: every station's TNC hands *all* heard frames up the serial
line):

* **inline terminals** (``drop``/``shed``/``deliver``) happen where the
  outcome is unambiguous -- at the origin driver, the IP input path, or final
  delivery -- and settle the span immediately, first terminal wins;
* **observational ``lost`` events** (collision, fade, half-duplex deafness,
  TNC wedged on the RX side) are only *recorded* -- at finalize time a span
  whose last sighting is a ``lost`` event is settled as dropped with that
  reason.  These are only recorded at the port/TNC whose name matches the
  frame's AX.25 destination callsign, so bystander copies of a frame never
  terminate the real span.

**Ring encoding (the hot path).**  The recorder does not build a
:class:`SpanEvent` object per sighting.  Events land in a flat ring of
integer slots -- six per record: ``(time, pkt_id, stage, event,
source, reason)`` with the strings interned into one symbol table -- that
grows by appending (geometric) until ``ring_slots`` records and wraps
thereafter,
and are materialised into rich per-span event lists lazily, at finalize or
query time.  The per-event cost on the emission path is therefore a few
integer stores and dict lookups instead of a dataclass allocation.  When the
ring wraps, the oldest unmaterialised records are overwritten (counted in
``events_overwritten``); every *counter* stays exact because terminal state,
``pending_lost`` and the per-span event count are maintained inline.

**Cross-shard traces.**  In the sharded regional runner each region owns a
recorder salted with a ``trace_base`` so ``pkt_id`` is globally unique.  A
packet leaving over the inter-region link is *handed off*: :meth:`handoff`
closes the local span in the ``handed_off`` state and returns a compact,
picklable :class:`SpanContext`; the destination region :meth:`adopt`\\ s that
context, re-opening the span under its original trace id and birth time.
The merged conservation invariant then reads: total born == delivered +
dropped + shed + in-flight, which holds exactly when every handoff was
adopted (``sum(handed_off) == sum(adopted)``) and no region saw a
contradiction.

The per-recorder conservation invariant checked by the ``obs`` gate: every
born-or-adopted packet ends in exactly one of delivered / dropped(reason) /
shed(reason) / handed_off / in-flight.  A ``conservation_violation`` is
counted only for genuine contradictions (a delivered span later reported
lost, or vice versa); repeated same-direction terminals (fragments of one
datagram, broadcast copies) count as benign ``duplicate_terminals``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.ax25.defs import PID_ARPA_IP
from repro.ax25.frames import AX25Frame, FrameError
from repro.obs.instruments import Instruments
from repro.sim.clock import SECOND

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.inet.ip import IPv4Datagram
    from repro.sim.trace import Tracer

#: (source address value, IP identification) -- the content key that
#: correlates one datagram across layers and hops.
FlowKey = Tuple[int, int]

#: Compact picklable span context serialized alongside a packet crossing
#: a shard boundary: (trace id, born_at, origin, kind, broadcast flag,
#: flow-key source value, flow-key ident).
SpanContext = Tuple[int, int, str, str, int, int, int]

#: Fixed drop/shed reason vocabulary.  Pre-seeded to zero in every summary
#: so the metric schema -- and therefore the sweep digest key set -- never
#: depends on which failures a particular seed happened to hit.
REASONS = (
    "arp_queue_full",
    "arp_timeout",
    "bad_header",
    "collision",
    "evicted",
    "fade",
    "forward_filtered",
    "halfduplex_miss",
    "if_output_failed",
    "iface_down",
    "ipintrq_full",
    "link_giveup",
    "no_route",
    "serial_backlog",
    "tnc_wedged",
    "ttl_expired",
)

#: Canonical adjacent-stage pairs whose deltas feed per-hop latency
#: histograms.  Order is the nominal path of an outbound datagram through
#: the gateway stack and over the air.
HOP_PAIRS = (
    ("born", "driver.tx"),
    ("driver.tx", "tnc.tx"),
    ("tnc.tx", "radio.tx"),
    ("radio.tx", "radio.rx"),
    ("radio.rx", "tnc.up"),
    ("tnc.up", "driver.rx"),
    ("driver.rx", "ipintrq"),
    ("ipintrq", "ip.rx"),
    ("ip.rx", "ip.forward"),
    ("ip.rx", "ip.deliver"),
)

_PROTO_KINDS = {1: "icmp", 6: "tcp", 17: "udp"}

_IN_FLIGHT = "in_flight"
_DELIVERED = "delivered"
_DROPPED = "dropped"
_SHED = "shed"
_HANDED_OFF = "handed_off"

_LOSS_STATES = (_DROPPED, _SHED)

#: Event kinds are a closed set, so they get fixed codes rather than
#: symbol-table entries.
_EVENT_NAMES = ("enter", "drop", "shed", "deliver", "lost")
_EVENT_CODE = {name: code for code, name in enumerate(_EVENT_NAMES)}

#: Integer slots per ring record: time, pkt_id, stage, event, source, reason.
_RECORD_WIDTH = 6

#: Default ring capacity in records.  Sized so none of the repository's
#: gates wrap (an instrumented chaos soak records a few hundred thousand
#: events); a wrapped ring only degrades timelines and hop histograms of
#: the *oldest* packets, never the conservation counters.
DEFAULT_RING_SLOTS = 1 << 19


def ip_flow_key(packet: bytes) -> Optional[FlowKey]:
    """Extract the correlation key from raw IPv4 bytes, or None."""
    if len(packet) < 20 or (packet[0] >> 4) != 4:
        return None
    source = int.from_bytes(packet[12:16], "big")
    ident = int.from_bytes(packet[4:6], "big")
    return (source, ident)


@lru_cache(maxsize=256)
def probe_ax25(frame: bytes) -> Optional[Tuple[str, FlowKey]]:
    """Peek into an AX.25 frame: (destination callsign text, flow key).

    Returns None unless the frame decodes and carries an ARPA IP payload
    whose flow key parses.  The destination text is ``str(AX25Address)``
    of the decoded destination ("WL0" or "WB6-2"), which is how TNC/radio
    probes decide whether a copy of the frame is headed *to them* and
    therefore span-relevant.  The frame is read through
    :meth:`AX25Frame.decode`, the one AX.25 parser, so a frame no driver
    accepts gives None here too.

    Memoised on the frame bytes: one frame is probed at up to four TNC
    sites and two channel sites.  The result is a pure function of the
    immutable key and is itself immutable, so a hit returns exactly what
    a fresh parse would.  The bound is small on purpose: 256 entries
    catch nearly every repeat probe of a frame in flight.
    """
    try:
        decoded = AX25Frame.decode(frame)
    except FrameError:
        return None
    if decoded.pid != PID_ARPA_IP:
        return None
    key = ip_flow_key(decoded.info)
    if key is None:
        return None
    return (str(decoded.destination), key)


@dataclass(frozen=True)
class SpanEvent:
    """One sighting of a packet at a stage."""

    time: int
    pkt_id: int
    stage: str
    event: str  # enter | drop | shed | deliver | lost
    source: str
    reason: str = ""

    def render(self) -> str:
        suffix = f" ({self.reason})" if self.reason else ""
        return (f"{self.time:>12} us  {self.event:<7} "
                f"{self.stage:<12} at {self.source}{suffix}")


@dataclass
class PacketSpan:
    """Everything the recorder knows about one datagram.

    ``events`` stays empty until the recorder materialises the ring
    (finalize or a timeline query); the inline fields -- ``event_count``,
    ``last_seen``, ``pending_lost`` -- are maintained on every sighting
    so settlement and the sanitizer's staleness census never need the
    event objects.
    """

    pkt_id: int
    key: FlowKey
    origin: str
    kind: str
    born_at: int
    broadcast: bool = False
    state: str = _IN_FLIGHT
    reason: str = ""
    done_at: Optional[int] = None
    events: List[SpanEvent] = field(default_factory=list)
    truncated_events: int = 0
    event_count: int = 0
    last_seen: int = 0
    #: Reason of the last stored sighting iff it was a ``lost`` event;
    #: cleared by any other sighting.  Settled into a drop at finalize.
    pending_lost: str = ""
    #: ``event_count`` at the moment the span terminated; hop feeding at
    #: finalize only considers events up to this point, matching the old
    #: terminate-time behaviour.
    terminal_event_count: Optional[int] = None


class FlightRecorder:
    """Ring-buffered cross-layer packet span store.

    Attaching a recorder to a tracer (``FlightRecorder(tracer)``) sets
    ``tracer.flight``, which is the single switch every layer checks: each
    hook reads ``self.tracer.flight``, so with no recorder attached the
    per-packet cost is one attribute load and a None test.  An untraced
    component holds :data:`~repro.sim.trace.NULL_TRACER`, whose ``flight``
    is always None: a recorder cannot attach to it.

    ``trace_base`` salts ``pkt_id`` allocation for sharded runs (region
    ``r`` uses ``r << 40``) so trace ids stay globally unique when spans
    migrate between recorders.
    """

    def __init__(self, tracer: "Tracer", capacity: int = 16384,
                 max_events_per_packet: int = 96,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 trace_base: int = 0) -> None:
        self.tracer = tracer
        self.sim = tracer.sim
        self.capacity = capacity
        self.max_events_per_packet = max_events_per_packet
        self.trace_base = trace_base
        self.instruments = Instruments()
        # Pre-create every instrument so the metric schema is fixed.
        for a, b in HOP_PAIRS:
            self.instruments.histogram(self._hop_name(a, b))
        self.instruments.histogram("delivered_latency_us")
        self.instruments.histogram("rtt_us")
        self.instruments.histogram("watchdog_recovery_us")
        self.instruments.gauge("ipintrq_depth")
        self.instruments.gauge("gateway_serial_backlog")
        self.instruments.rate("born_per_10s", 10 * SECOND)
        # Recovery-state instruments, fed by the TCP and LAPB layers:
        # gauges track each connection's timer/window as they evolve,
        # the rates count retransmissions in 10-second windows so a
        # storm shows up as a per-window spike, not just a total.
        self.instruments.gauge("tcp_rto_us")
        self.instruments.gauge("tcp_cwnd_bytes")
        self.instruments.rate("tcp_rexmit_per_10s", 10 * SECOND)
        self.instruments.gauge("lapb_t1_us")
        self.instruments.rate("lapb_rexmit_per_10s", 10 * SECOND)

        self._next_pkt_id = trace_base + 1
        self._spans: "OrderedDict[int, PacketSpan]" = OrderedDict()
        self._by_key: Dict[FlowKey, int] = {}
        self.born_total = 0
        self.delivered = 0
        self.dropped = 0
        self.shed = 0
        self.handed_off = 0
        self.adopted = 0
        self.duplicate_terminals = 0
        self.conservation_violations = 0
        self.events_recorded = 0
        self.events_truncated = 0
        self.events_overwritten = 0
        self.spans_evicted = 0
        self.drop_reasons: Dict[str, int] = {reason: 0 for reason in REASONS}
        self.born_by_origin: Dict[str, int] = {}
        self._finalized = False

        # Flat event ring: _RECORD_WIDTH int slots per record, one
        # shared symbol table for stage/source/reason strings.  ``""``
        # is symbol 0 so an absent reason costs nothing to intern.  A
        # plain list beats array("q") here: no per-store int/C
        # conversion on the hot path.  It grows by appending until
        # ``ring_slots`` records (a short run never pays for the full
        # ring) and wraps thereafter.
        if ring_slots < 1:
            raise ValueError("ring_slots must be positive")
        self._ring: List[int] = []
        self._ring_slots = ring_slots
        self._ring_next = 0      # absolute index of the next record
        self._mat_next = 0       # absolute index of the next
        #                          not-yet-materialised record
        self._symbols: List[str] = [""]
        self._codes: Dict[str, int] = {"": 0}
        tracer.flight = self

    @staticmethod
    def _hop_name(a: str, b: str) -> str:
        return f"hop_{a.replace('.', '_')}_to_{b.replace('.', '_')}"

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------

    def born_datagram(self, origin: str, datagram: "IPv4Datagram") -> Optional[int]:
        """Open a span for a datagram at its ``ip_output`` birth."""
        if datagram.source is None:  # not yet addressed; can't correlate
            return None
        key = (datagram.source.value, datagram.identification)
        pkt_id = self._next_pkt_id
        self._next_pkt_id += 1
        span = PacketSpan(
            pkt_id=pkt_id,
            key=key,
            origin=origin,
            kind=_PROTO_KINDS.get(datagram.protocol, "ip"),
            born_at=self.sim.now,
            broadcast=datagram.destination.is_broadcast,
        )
        self._spans[pkt_id] = span
        self._by_key[key] = pkt_id  # latest span wins on ident reuse
        self.born_total += 1
        self.born_by_origin[origin] = self.born_by_origin.get(origin, 0) + 1
        self.instruments.rate("born_per_10s", 10 * SECOND).tick(self.sim.now)
        self._record(span, "born", "enter", origin)
        if len(self._spans) > self.capacity:
            self._evict_oldest()
        return pkt_id

    def _evict_oldest(self) -> None:
        _, evicted = self._spans.popitem(last=False)
        if evicted.state == _IN_FLIGHT:
            self._terminate(evicted, _DROPPED, "evicted")
        if self._by_key.get(evicted.key) == evicted.pkt_id:
            del self._by_key[evicted.key]
        self.spans_evicted += 1

    # ------------------------------------------------------------------
    # cross-shard handoff / adoption
    # ------------------------------------------------------------------

    def handoff(self, packet: bytes, stage: str,
                source: str) -> Optional[SpanContext]:
        """Close the local span of ``packet``: it is leaving this shard.

        Returns the compact span context to serialize alongside the
        packet, or None when the packet has no live local span.  The
        span ends in the ``handed_off`` state -- a terminal bucket of
        its own, distinct from drops, so a region's books stay balanced
        while the merged run's invariant requires every handoff to be
        matched by an adoption downstream.
        """
        key = ip_flow_key(packet)
        if key is None:
            return None
        span = self._lookup(key)
        if span is None or span.state != _IN_FLIGHT:
            return None
        self._record(span, stage, "enter", source)
        span.state = _HANDED_OFF
        span.done_at = self.sim.now
        span.terminal_event_count = span.event_count
        self.handed_off += 1
        return (span.pkt_id, span.born_at, span.origin, span.kind,
                1 if span.broadcast else 0, key[0], key[1])

    def adopt(self, context: SpanContext, stage: str, source: str) -> int:
        """Re-open a span handed off by another shard's recorder.

        The span keeps its original trace id and birth time, so the
        merged timeline and the end-to-end delivered-latency histogram
        read straight across the shard boundary.
        """
        pkt_id, born_at, origin, kind, broadcast, source_value, ident = context
        key = (source_value, ident)
        span = PacketSpan(
            pkt_id=pkt_id, key=key, origin=origin, kind=kind,
            born_at=born_at, broadcast=bool(broadcast),
        )
        self._spans[pkt_id] = span
        self._by_key[key] = pkt_id
        self.adopted += 1
        self._record(span, stage, "enter", source)
        if len(self._spans) > self.capacity:
            self._evict_oldest()
        return pkt_id

    # ------------------------------------------------------------------
    # event recording (bytes-level and key-level)
    # ------------------------------------------------------------------

    def enter(self, packet: bytes, stage: str, source: str) -> None:
        """Non-terminal sighting of raw IP bytes at a stage."""
        key = ip_flow_key(packet)
        if key is not None:
            self.enter_key(key, stage, source)

    def drop(self, packet: bytes, stage: str, source: str, reason: str) -> None:
        """Terminal drop of raw IP bytes (first terminal wins)."""
        key = ip_flow_key(packet)
        if key is not None:
            self.drop_key(key, stage, source, reason)

    def shed_packet(self, packet: bytes, stage: str, source: str,
                    reason: str) -> None:
        """Terminal load-shed of raw IP bytes."""
        key = ip_flow_key(packet)
        if key is not None:
            span = self._lookup(key)
            if span is not None:
                self._record(span, stage, "shed", source, reason)
                self._settle(span, _SHED, reason)

    def deliver(self, packet: bytes, source: str) -> None:
        """Terminal local delivery of raw IP bytes."""
        key = ip_flow_key(packet)
        if key is not None:
            self.deliver_key(key, source)

    def enter_key(self, key: FlowKey, stage: str, source: str) -> None:
        span = self._lookup(key)
        if span is not None:
            self._record(span, stage, "enter", source)

    def lost_key(self, key: FlowKey, stage: str, source: str,
                 reason: str) -> None:
        """Observational loss: recorded now, settled at finalize."""
        span = self._lookup(key)
        if span is not None:
            self._record(span, stage, "lost", source, reason)

    def drop_key(self, key: FlowKey, stage: str, source: str,
                 reason: str) -> None:
        span = self._lookup(key)
        if span is not None:
            self._record(span, stage, "drop", source, reason)
            self._settle(span, _DROPPED, reason)

    def deliver_key(self, key: FlowKey, source: str) -> None:
        span = self._lookup(key)
        if span is not None:
            self._record(span, "ip.deliver", "deliver", source)
            self._settle(span, _DELIVERED, "")

    def _lookup(self, key: FlowKey) -> Optional[PacketSpan]:
        pkt_id = self._by_key.get(key)
        return None if pkt_id is None else self._spans.get(pkt_id)

    def _record(self, span: PacketSpan, stage: str, event: str, source: str,
                reason: str = "") -> None:
        self.events_recorded += 1
        if span.event_count >= self.max_events_per_packet:
            span.truncated_events += 1
            self.events_truncated += 1
            return
        span.event_count += 1
        now = self.sim.now
        span.last_seen = now
        span.pending_lost = reason if event == "lost" else ""
        ring = self._ring
        codes = self._codes
        stage_code = codes.get(stage)
        if stage_code is None:
            stage_code = self._intern(stage)
        source_code = codes.get(source)
        if source_code is None:
            source_code = self._intern(source)
        reason_code = 0
        if reason:
            reason_code = codes.get(reason)
            if reason_code is None:
                reason_code = self._intern(reason)
        base = (self._ring_next % self._ring_slots) * _RECORD_WIDTH
        if base == len(ring):  # still growing toward ring_slots records
            ring.extend((now, span.pkt_id, stage_code, _EVENT_CODE[event],
                         source_code, reason_code))
        else:
            ring[base] = now
            ring[base + 1] = span.pkt_id
            ring[base + 2] = stage_code
            ring[base + 3] = _EVENT_CODE[event]
            ring[base + 4] = source_code
            ring[base + 5] = reason_code
        self._ring_next += 1

    def _intern(self, text: str) -> int:
        code = len(self._symbols)
        self._symbols.append(text)
        self._codes[text] = code
        return code

    def _materialize(self) -> None:
        """Decode not-yet-seen ring records into per-span event lists.

        Incremental and idempotent: each record is decoded exactly once.
        Records overwritten by a ring wrap before they were materialised
        are permanently lost (counted in ``events_overwritten``); records
        of evicted spans are skipped.
        """
        end = self._ring_next
        start = max(self._mat_next, end - self._ring_slots)
        self.events_overwritten += start - self._mat_next
        ring = self._ring
        slots = self._ring_slots
        symbols = self._symbols
        spans = self._spans
        for index in range(start, end):
            base = (index % slots) * _RECORD_WIDTH
            span = spans.get(ring[base + 1])
            if span is None:
                continue
            span.events.append(SpanEvent(
                time=ring[base], pkt_id=ring[base + 1],
                stage=symbols[ring[base + 2]],
                event=_EVENT_NAMES[ring[base + 3]],
                source=symbols[ring[base + 4]],
                reason=symbols[ring[base + 5]]))
        self._mat_next = end

    # ------------------------------------------------------------------
    # terminal-state bookkeeping
    # ------------------------------------------------------------------

    def _settle(self, span: PacketSpan, state: str, reason: str) -> None:
        """Apply a terminal with first-wins semantics and conflict audit."""
        if span.state == _IN_FLIGHT:
            self._terminate(span, state, reason)
            return
        conflicting = (
            (span.state == _DELIVERED and state in _LOSS_STATES)
            or (span.state in _LOSS_STATES and state == _DELIVERED)
        )
        if conflicting:
            self.conservation_violations += 1
        else:
            self.duplicate_terminals += 1

    def _terminate(self, span: PacketSpan, state: str, reason: str) -> None:
        span.state = state
        span.reason = reason
        span.done_at = self.sim.now
        span.terminal_event_count = span.event_count
        if state == _DELIVERED:
            self.delivered += 1
            self.instruments.histogram("delivered_latency_us").record(
                span.done_at - span.born_at)
        elif state == _SHED:
            self.shed += 1
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        else:
            self.dropped += 1
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def _feed_hops(self, span: PacketSpan) -> None:
        events = span.events
        if span.terminal_event_count is not None:
            # Only the sightings up to the terminal feed hop latency --
            # post-terminal bystander copies are not path samples.
            events = events[:span.terminal_event_count]
        pairs = dict()
        previous: Optional[SpanEvent] = None
        for event in events:
            if event.event not in ("enter", "deliver"):
                continue
            if previous is not None:
                pairs.setdefault((previous.stage, event.stage),
                                 event.time - previous.time)
            previous = event
        for (a, b), delta in pairs.items():
            if (a, b) in _HOP_PAIR_SET:
                self.instruments.histogram(self._hop_name(a, b)).record(delta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def span(self, pkt_id: int) -> Optional[PacketSpan]:
        return self._spans.get(pkt_id)

    def iter_spans(self):
        """All retained spans, oldest first (the SimSanitizer's census)."""
        return iter(self._spans.values())

    def timeline(self, pkt_id: int) -> List[str]:
        """Human-readable hop timeline for one packet."""
        span = self._spans.get(pkt_id)
        if span is None:
            return []
        self._materialize()
        lines = [f"pkt {span.pkt_id} {span.kind} from {span.origin} "
                 f"born@{span.born_at} state={span.state}"
                 + (f" reason={span.reason}" if span.reason else "")]
        lines.extend(event.render() for event in span.events)
        if span.truncated_events:
            lines.append(f"  ... {span.truncated_events} events truncated")
        return lines

    def why_dropped(self, pkt_id: int) -> Optional[str]:
        """One-line answer to "what happened to packet N?"."""
        span = self._spans.get(pkt_id)
        if span is None:
            return None
        if span.state == _IN_FLIGHT:
            return f"pkt {pkt_id}: still in flight"
        if span.state == _DELIVERED:
            return (f"pkt {pkt_id}: delivered after "
                    f"{(span.done_at or 0) - span.born_at} us")
        if span.state == _HANDED_OFF:
            return (f"pkt {pkt_id}: handed off to another region at "
                    f"{span.done_at} us")
        self._materialize()
        last = span.events[-1] if span.events else None
        where = f" at {last.stage} ({last.source})" if last is not None else ""
        return f"pkt {pkt_id}: {span.state} -- {span.reason}{where}"

    def export_spans(self) -> List[tuple]:
        """Compact picklable span dump for cross-process trace merging.

        One tuple per retained span: ``(pkt_id, key, origin, kind,
        born_at, broadcast, state, reason, done_at, events, truncated)``
        with events as plain ``(time, stage, event, source, reason)``
        tuples.  Materialises the ring first.
        """
        self._materialize()
        return [
            (span.pkt_id, span.key, span.origin, span.kind, span.born_at,
             span.broadcast, span.state, span.reason, span.done_at,
             [(e.time, e.stage, e.event, e.source, e.reason)
              for e in span.events],
             span.truncated_events)
            for span in self._spans.values()
        ]

    # ------------------------------------------------------------------
    # finalize + summary
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Settle observational losses and feed hop histograms; idempotent.

        In-flight spans whose last sighting was a ``lost`` event become
        drops with that reason; genuinely in-flight spans stay in flight
        (a legitimate terminal bucket for packets the end of the run
        caught mid-air).  Hop latency is fed here for every retained
        span -- evicted spans no longer contribute hop samples.
        """
        if self._finalized:
            return
        self._finalized = True
        self._materialize()
        for span in self._spans.values():
            if span.state == _IN_FLIGHT and span.pending_lost:
                self._terminate(span, _DROPPED, span.pending_lost)
            self._feed_hops(span)

    def in_flight(self) -> int:
        return (self.born_total + self.adopted - self.delivered
                - self.dropped - self.shed - self.handed_off)

    def conservation_ok(self) -> bool:
        """The gate invariant: terminals partition the born population."""
        return (self.conservation_violations == 0
                and self.born_total + self.adopted == (
                    self.delivered + self.dropped + self.shed
                    + self.handed_off + self.in_flight()))

    def summary(self) -> Dict[str, int]:
        """Fixed-schema integer counters (digest-stable across seeds)."""
        out = {
            "born_total": self.born_total,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "shed": self.shed,
            "in_flight": self.in_flight(),
            "handed_off": self.handed_off,
            "adopted": self.adopted,
            "duplicate_terminals": self.duplicate_terminals,
            "conservation_violations": self.conservation_violations,
            "events_recorded": self.events_recorded,
            "events_truncated": self.events_truncated,
            "events_overwritten": self.events_overwritten,
            "spans_evicted": self.spans_evicted,
        }
        for reason in REASONS:
            out[f"drop_{reason}"] = self.drop_reasons.get(reason, 0)
        return out

    def finalize_metrics(self) -> Dict[str, int]:
        """Finalize and return summary + instrument stats, flat."""
        self.finalize()
        out = self.summary()
        out.update(self.instruments.metrics())
        return out


_HOP_PAIR_SET = frozenset(HOP_PAIRS)
