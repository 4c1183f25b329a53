"""The units-of-measure lattice and its seeding tables.

The paper's kernel work lived on invariants no test touched directly:
every delay handed to the event loop is *integer microseconds*, the
serial line speaks *baud* (bits per second), KISS payload lengths are
*bytes*, and the 1200 bps arithmetic that converts between them is
scattered across module boundaries as bare ints.  PR 6's sharded
runner re-created the hazard in Python — ``link_latency`` (sim_us)
and ``duration_seconds`` (sim_seconds) now cross ``scale/`` module
seams with nothing but naming discipline between them and an
ms-vs-s bug.

This module gives that discipline teeth.  It defines:

* the **dimension lattice** — ``unknown`` (bottom) < one of the seven
  concrete dimensions < ``mixed`` (top), with :func:`join` / :func:`meet`
  as the usual least-upper / greatest-lower bound,
* the **arithmetic transfer tables** — which additions conflict
  (UNIT001's trigger) and which multiplications/divisions convert one
  dimension into another (``bits / baud`` is a time, ``bytes *
  byte_time`` is a time),
* the **seeding tables** — the known APIs and naming conventions that
  introduce dimensions into the abstract interpretation
  (:mod:`repro.analysis.absint`): ``Simulator.schedule`` delays and
  ``sim.now`` are sim_us, ``SerialLine``'s ``baud`` is baud, ``len()``
  of a buffer is bytes, clock constants are sim_us, and so on,
* :func:`live_seed_check` — a PROTO001-style liveness check that every
  seeded API actually exists with the expected shape in the running
  code, so the table cannot silently drift from the simulator it
  describes.

The lattice is deliberately not a full dimensional algebra (no rational
exponents, no derived-unit synthesis): an unrepresentable product drops
to ``unknown``, which keeps every rule sound against false positives —
the analysis only speaks when two *concrete, conflicting* dimensions
meet.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

#: The concrete dimensions, i.e. the atoms of the lattice.
DIMENSIONS: Tuple[str, ...] = (
    "sim_us",        # integer simulated microseconds (engine ticks)
    "sim_seconds",   # float simulated seconds (human-facing durations)
    "wall_seconds",  # host wall-clock seconds (diagnostics only)
    "bytes",         # byte counts (buffers, MTUs, payload sizes)
    "bits",          # bit counts (serial framing, modem arithmetic)
    "baud",          # bits per second (line and modem rates)
    "byte_rate",     # bytes per second (pacing and delivery rates)
    "count",         # dimensionless counts (frames, stations, events)
)

#: Bottom element: nothing known yet.  Join identity.
UNKNOWN = "unknown"

#: Top element: conflicting evidence.  Meet identity.
MIXED = "mixed"

#: Dimensions whose mixture in additive arithmetic is a reportable
#: conflict.  ``count`` is excluded on purpose: a pure number added to a
#: dimensioned magnitude is scaling/offset arithmetic (``index + 1``,
#: ``base + offset``), not a units bug the lattice can call.
CONFLICTABLE: FrozenSet[str] = frozenset(DIMENSIONS) - {"count"}

#: The time-like dimensions; mixing any two is the paper's ms-vs-s bug.
TIME_DIMENSIONS: FrozenSet[str] = frozenset(
    {"sim_us", "sim_seconds", "wall_seconds"})


def is_dimension(value: str) -> bool:
    """True for a concrete dimension (not bottom/top)."""
    return value in DIMENSIONS


def join(a: str, b: str) -> str:
    """Least upper bound: what we know when either source may apply."""
    if a == b:
        return a
    if a == UNKNOWN:
        return b
    if b == UNKNOWN:
        return a
    return MIXED


def meet(a: str, b: str) -> str:
    """Greatest lower bound: what both sources agree on."""
    if a == b:
        return a
    if a == MIXED:
        return b
    if b == MIXED:
        return a
    return UNKNOWN


def add_conflict(a: str, b: str) -> bool:
    """True when ``a + b`` / ``a - b`` mixes two concrete dimensions.

    This is UNIT001's trigger: both operands carry a known dimension,
    the dimensions differ, and both are conflictable (``count`` scales
    and offsets freely).
    """
    return (a != b and a in CONFLICTABLE and b in CONFLICTABLE)


def add_result(a: str, b: str) -> str:
    """Abstract result of ``a + b`` (after the conflict check).

    Equal dimensions stay; an unknown operand adopts the known side
    (dimensional consistency is the *assumption* the checker enforces);
    a conflicting pair degrades to unknown so one bug is reported once,
    not at every downstream use.
    """
    if add_conflict(a, b):
        return UNKNOWN
    return join(a, b) if MIXED not in (a, b) else UNKNOWN


#: Products the codebase legitimately forms, as unordered pairs.
#: ``bytes * byte_time`` and ``bits * tick_per_second`` are times.
_MUL_TABLE: Dict[FrozenSet[str], str] = {
    frozenset({"bytes", "sim_us"}): "sim_us",
    frozenset({"bits", "sim_us"}): "sim_us",
    frozenset({"count", "sim_us"}): "sim_us",
    frozenset({"count", "sim_seconds"}): "sim_seconds",
    frozenset({"count", "bytes"}): "bytes",
    frozenset({"count", "bits"}): "bits",
    frozenset({"count", "byte_rate"}): "byte_rate",
    # rate * time is a byte count (per the clock module's convention
    # that byte-rate arithmetic carries the US_PER_SECOND prefactor).
    frozenset({"byte_rate", "sim_us"}): "bytes",
    frozenset({"byte_rate", "sim_seconds"}): "bytes",
}


def mul_result(a: str, b: str) -> str:
    """Abstract result of ``a * b``.

    A scalar (unknown/count) scales the dimensioned side; known pairs
    go through the product table; everything else drops to unknown
    (the lattice cannot represent ``us * bytes``-style derived units).
    """
    if MIXED in (a, b):
        return UNKNOWN
    if a == UNKNOWN:
        return b if b != "count" else "count"
    if b == UNKNOWN:
        return a if a != "count" else "count"
    if a == b == "count":
        return "count"
    result = _MUL_TABLE.get(frozenset({a, b}))
    return result if result is not None else UNKNOWN


#: Quotients with a known dimension, as (numerator, denominator).
_DIV_TABLE: Dict[Tuple[str, str], str] = {
    ("bits", "baud"): "sim_seconds",
    ("sim_us", "count"): "sim_us",
    ("sim_seconds", "count"): "sim_seconds",
    ("bytes", "count"): "bytes",
    ("bits", "count"): "bits",
    ("bytes", "sim_us"): UNKNOWN,    # bytes/us: go through bytes_per_second
    ("baud", "bits"): UNKNOWN,       # chars/second: likewise
    ("byte_rate", "count"): "byte_rate",
    ("bytes", "byte_rate"): "sim_seconds",   # transfer time (pure dimension)
    ("bytes", "sim_seconds"): "byte_rate",
}


def div_result(a: str, b: str) -> str:
    """Abstract result of ``a / b`` (and ``//``)."""
    if MIXED in (a, b):
        return UNKNOWN
    if a == b and is_dimension(a):
        return "count"               # a ratio of like quantities
    if b == UNKNOWN:
        return a if a != "count" else "count"
    if a == UNKNOWN:
        return UNKNOWN
    return _DIV_TABLE.get((a, b), UNKNOWN)


# ----------------------------------------------------------------------
# seeding tables
# ----------------------------------------------------------------------

#: Fully-qualified call targets whose *return value* has a known
#: dimension.  Resolved through each module's import map, so aliased
#: imports still seed.
CALL_SEEDS: Dict[str, str] = {
    # The sanctioned converters in repro.sim.clock.
    "repro.sim.clock.seconds": "sim_us",
    "repro.sim.clock.us_to_seconds": "sim_seconds",
    # Byte-rate converters (pacing gates, delivery-rate estimation).
    "repro.sim.clock.byte_airtime": "sim_us",
    "repro.sim.clock.bytes_per_second": "byte_rate",
    # Host clocks: wall seconds, never simulated time.
    "time.time": "wall_seconds",
    "time.monotonic": "wall_seconds",
    "time.perf_counter": "wall_seconds",
    "time.process_time": "wall_seconds",
}

#: Module-level constants (resolved qualnames) with a known dimension.
NAME_SEEDS: Dict[str, str] = {
    "repro.sim.clock.MICROSECOND": "sim_us",
    "repro.sim.clock.US": "sim_us",
    "repro.sim.clock.MILLISECOND": "sim_us",
    "repro.sim.clock.MS": "sim_us",
    "repro.sim.clock.SECOND": "sim_us",
}

#: Exact attribute / parameter / local names with a known dimension.
#: These encode the repo's naming discipline; the suffix table below
#: handles the systematic ``_us`` / ``_seconds`` / ``_bytes`` spellings.
EXACT_NAME_SEEDS: Dict[str, str] = {
    "now": "sim_us",            # Simulator.now and every cache of it
    "at": "sim_us",             # ``start(at=...)`` offsets
    "delay": "sim_us",          # Simulator.schedule's first parameter
    "interval": "sim_us",       # periodic-event spacing
    "link_latency": "sim_us",   # ScaleLayout's lookahead window
    "byte_time": "sim_us",      # SerialLine's per-character airtime
    "epoch": "sim_us",          # FlowStationCloud's decision period
    "airtime": "sim_us",        # channel occupancy spans
    "frame_airtime": "sim_us",
    "baud": "baud",             # SerialLine's line rate
    "serial_baud": "baud",      # Scenario's and the host builders' line rate
    "bit_rate": "baud",         # ModemProfile's on-air rate
    "bits_per_char": "bits",    # 8N1 framing arithmetic
    "mtu": "bytes",
    # Recovery-policy conventions (RtoPolicy / CongestionPolicy /
    # LinkTimerPolicy): smoothed-RTT state is integer microseconds,
    # pacing state is bytes per second.
    "srtt": "sim_us",
    "rttvar": "sim_us",
    "rto": "sim_us",
    "min_rtt": "sim_us",
    "pacing_rate": "byte_rate",
    "initial_rate": "byte_rate",
    "min_rate": "byte_rate",
}

#: Name-suffix conventions, checked after the exact table.
SUFFIX_SEEDS: Tuple[Tuple[str, str], ...] = (
    ("_wall_seconds", "wall_seconds"),  # host-clock budgets (checked first)
    ("_us", "sim_us"),
    ("_at", "sim_us"),          # sent_at / born_at / _tx_free_at stamps
    ("_latency", "sim_us"),
    ("_airtime", "sim_us"),
    ("_seconds", "sim_seconds"),
    ("_bytes", "bytes"),
    ("_bits", "bits"),
    ("_baud", "baud"),
    ("_count", "count"),
)

#: Names whose ``len()`` is a byte count rather than an item count.
BYTES_LEN_NAMES: FrozenSet[str] = frozenset({
    "data", "payload", "frame", "packet", "buf", "buffer", "body",
    "record", "message", "chunk", "burst",
})

class SchedulerEntry(NamedTuple):
    """Where one scheduler entry point takes its callback and its times.

    Positions count the positional arguments after ``self``.  A method
    that re-queues an existing event takes no callback (``None``).
    """

    callback: Optional[int]
    times: Tuple[int, ...]


#: Every :class:`~repro.sim.engine.Simulator` method that puts an event
#: on the queue.  The taint walker's ``dataflow.SCHEDULER_METHODS``, the
#: units sinks below, RACE001 and SNAP001 all read their views from
#: this one table, and :func:`live_seed_check` holds each row to the
#: real signature.
SCHEDULER_ENTRY_POINTS: Dict[str, SchedulerEntry] = {
    "schedule": SchedulerEntry(callback=1, times=(0,)),       # delay
    "at": SchedulerEntry(callback=1, times=(0,)),             # time
    "requeue": SchedulerEntry(callback=None, times=(1,)),     # time
    "at_series": SchedulerEntry(callback=2, times=(0, 1)),    # first, interval
    "call_soon": SchedulerEntry(callback=0, times=()),
}

#: Method names that hand a *delay or absolute time* to the scheduler.
SCHEDULER_SINKS: FrozenSet[str] = frozenset(
    name for name, entry in SCHEDULER_ENTRY_POINTS.items() if entry.times)

#: Dimensions that must never reach a scheduler delay argument: the
#: engine ticks in integer microseconds, so a float-seconds or
#: wall-clock value here is the ms-vs-s bug by construction; byte/bit
#: magnitudes are category errors.
SCHEDULER_FORBIDDEN: FrozenSet[str] = frozenset(
    {"sim_seconds", "wall_seconds", "bytes", "bits", "baud", "byte_rate"})

#: ``Rate.tick(now)`` wants the integer sim clock.
TICK_FORBIDDEN: FrozenSet[str] = frozenset({"sim_seconds", "wall_seconds"})

#: Counter-name suffixes that *declare* a dimension, making a
#: dimensioned bump amount sanctioned (``flow_airtime_us`` accounts
#: microseconds on purpose; the name says so on the dashboard).
COUNTER_DECLARED_SUFFIXES: Tuple[str, ...] = (
    "_us", "_seconds", "_time", "_bytes", "_bits")


def unit_for_name(name: str) -> str:
    """Dimension a bare attribute/parameter/local name implies."""
    seeded = EXACT_NAME_SEEDS.get(name)
    if seeded is not None:
        return seeded
    for suffix, dim in SUFFIX_SEEDS:
        if name.endswith(suffix) and name != suffix:
            return dim
    return UNKNOWN


def len_unit(argument_name: Optional[str]) -> str:
    """Dimension of ``len(x)``: bytes for buffer-ish names, else count."""
    if argument_name is None:
        return "count"
    base = argument_name.rsplit(".", 1)[-1].lstrip("_")
    if base in BYTES_LEN_NAMES or base.endswith("_bytes") \
            or base.endswith("data") or base.endswith("payload"):
        return "bytes"
    return "count"


def live_seed_check() -> Dict[str, str]:
    """Verify every seeded API against the running code (PROTO001-style).

    Imports the real modules and checks each table row's anchor exists
    with the shape the abstract interpretation assumes.  Returns a
    mapping of failed-anchor -> reason; an empty dict means the tables
    and the simulator still agree.  The unit tests assert emptiness, so
    renaming ``Simulator.schedule`` or ``SerialLine.baud`` without
    updating the seeds fails loudly instead of silently de-seeding the
    analysis.
    """
    import inspect

    failures: Dict[str, str] = {}

    from repro.obs.instruments import Histogram, Rate
    from repro.serialio.line import SerialLine
    from repro.sim import clock
    from repro.sim.engine import Event, Simulator

    # Scheduler entry points: each row names where the callback and the
    # integer-microsecond times sit, and every Simulator method that
    # takes a callback or hands back a queued event has a row.
    for method, entry in SCHEDULER_ENTRY_POINTS.items():
        fn = getattr(Simulator, method, None)
        if fn is None:
            failures[f"Simulator.{method}"] = "method missing"
            continue
        params = list(inspect.signature(fn).parameters.values())[1:]
        if entry.callback is None:
            if any(param.name == "fn" for param in params):
                failures[f"Simulator.{method}"] = (
                    "takes a callback but its row has none")
        elif (len(params) <= entry.callback
                or params[entry.callback].name != "fn"):
            failures[f"Simulator.{method}"] = (
                f"callback is not parameter {entry.callback}")
        for position in entry.times:
            if (len(params) <= position
                    or params[position].annotation not in ("int", int)):
                failures[f"Simulator.{method}"] = (
                    f"parameter {position} is not an int time")
    for method, fn in vars(Simulator).items():
        if not callable(fn) or method.startswith("_"):
            continue
        signature = inspect.signature(fn)
        if (("fn" in signature.parameters
                or signature.return_annotation in ("Event", Event))
                and method not in SCHEDULER_ENTRY_POINTS):
            failures[f"Simulator.{method}"] = (
                "queues an event but is not in SCHEDULER_ENTRY_POINTS")
    if not isinstance(getattr(Simulator, "now", None), property):
        failures["Simulator.now"] = "now is not a property"

    # Clock constants seeded as sim_us must exist and be integers.
    for qualname, dim in NAME_SEEDS.items():
        attr = qualname.rsplit(".", 1)[-1]
        value = getattr(clock, attr, None)
        if not isinstance(value, int):
            failures[qualname] = f"{attr} missing from repro.sim.clock"
        elif dim != "sim_us":
            failures[qualname] = f"clock constant seeded as {dim}"
    for qualname in ("repro.sim.clock.seconds",
                     "repro.sim.clock.us_to_seconds",
                     "repro.sim.clock.byte_airtime",
                     "repro.sim.clock.bytes_per_second"):
        attr = qualname.rsplit(".", 1)[-1]
        if not callable(getattr(clock, attr, None)):
            failures[qualname] = f"{attr} missing from repro.sim.clock"

    # SerialLine's constructor carries the baud and framing seeds.
    params = list(inspect.signature(SerialLine.__init__).parameters)
    for expected in ("baud", "bits_per_char"):
        if expected not in params:
            failures[f"SerialLine.{expected}"] = "constructor lost the param"
        elif unit_for_name(expected) == UNKNOWN:
            failures[f"SerialLine.{expected}"] = "name no longer seeds"
    if unit_for_name("byte_time") != "sim_us":
        failures["SerialLine.byte_time"] = "byte_time no longer seeds sim_us"

    # Observability sinks: Rate.tick(now) and Histogram.record(value).
    tick_params = list(inspect.signature(Rate.tick).parameters)
    if tick_params[:2] != ["self", "now"]:
        failures["Rate.tick"] = f"signature drifted: {tick_params}"
    if not callable(getattr(Histogram, "record", None)):
        failures["Histogram.record"] = "record method missing"

    # Recovery-policy signatures: the srtt/rttvar/pacing_rate seeds
    # must match live attributes of the real policy objects, and the
    # policy hooks must exist with the names the checker's conventions
    # assume.
    from repro.ax25.lapb import AdaptiveLinkTimer
    from repro.inet.tcp import AdaptiveRto, CongestionPolicy, PacedRate

    rto_state = AdaptiveRto()
    for attr in ("srtt", "rttvar"):
        if not hasattr(rto_state, attr):
            failures[f"AdaptiveRto.{attr}"] = "attribute missing"
        elif unit_for_name(attr) != "sim_us":
            failures[f"AdaptiveRto.{attr}"] = "name no longer seeds sim_us"
    paced = PacedRate()
    for attr, dim in (("pacing_rate", "byte_rate"), ("min_rate", "byte_rate"),
                      ("min_rtt", "sim_us")):
        if not hasattr(paced, attr):
            failures[f"PacedRate.{attr}"] = "attribute missing"
        elif unit_for_name(attr) != dim:
            failures[f"PacedRate.{attr}"] = f"name no longer seeds {dim}"
    for method in ("window", "on_ack", "on_timeout", "send_delay", "on_send"):
        if not callable(getattr(CongestionPolicy, method, None)):
            failures[f"CongestionPolicy.{method}"] = "hook missing"
    link_timer = AdaptiveLinkTimer()
    for attr in ("srtt", "rttvar"):
        if not hasattr(link_timer, attr):
            failures[f"AdaptiveLinkTimer.{attr}"] = "attribute missing"
        elif unit_for_name(attr) != "sim_us":
            failures[f"AdaptiveLinkTimer.{attr}"] = "name no longer seeds sim_us"

    # ScaleLayout's lookahead field (imported lazily: scale pulls in the
    # whole workload stack).
    from repro.scale.regions import ScaleLayout
    if "link_latency" not in {
            field.name for field in
            __import__("dataclasses").fields(ScaleLayout)}:
        failures["ScaleLayout.link_latency"] = "field missing"
    elif unit_for_name("link_latency") != "sim_us":
        failures["ScaleLayout.link_latency"] = "name no longer seeds sim_us"

    return failures
