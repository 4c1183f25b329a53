"""Per-layer wall-time attribution for one traced run.

:class:`LayerTrace` wraps public entry points of the ``repro`` layers
from outside the package and restores them on :meth:`LayerTrace.remove`.
Every dispatched event callback becomes a span of its layer through the
``Simulator.profiler`` hook, using the module rule of
:func:`repro.obs.profile.attribute`.  Spans nest on an in-memory stack;
a span's self time is its duration minus the time its child spans
cover, so the self times of all accounts sum exactly to the traced
wall time.  Only per-account totals are kept, and they are reported
when the run ends.

Install the trace before the scenario or world is built: components
hook bound methods (tty interrupt handlers, deframer callbacks, radio
receive handlers) at construction, and only hooks bound after the
install reach the wrappers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.ax25.frames import AX25Frame
from repro.ax25.lapb import LapbConnection, LapbEndpoint
from repro.check.explorer import Explorer
from repro.check.invariants import Invariant
from repro.check.snapshot import StateCapturer, fingerprint
from repro.core.driver import PacketRadioInterface
from repro.faults.inject import FaultInjector, LineNoiseFilter
from repro.inet.ip import IPv4Datagram
from repro.inet.netstack import NetStack
from repro.inet.tcp import TcpConnection, TcpSegment
from repro.kiss import framing
from repro.kiss.framing import KissDeframer
from repro.obs.instruments import Gauge, Histogram, Rate
from repro.obs.profile import attribute
from repro.obs.spans import FlightRecorder
from repro.radio.channel import RadioChannel
from repro.serialio.line import SerialEndpoint
from repro.sim.engine import Event, Simulator
from repro.tnc.kiss_tnc import KissTnc

#: ``repro`` package -> benchmark layer.  Packages not listed count as
#: ``other``, together with the benchmark's own code and the dispatch
#: hook's bookkeeping.
PACKAGE_LAYER = {
    "sim": "sim", "serialio": "serialio", "kiss": "kiss", "core": "driver",
    "tnc": "tnc", "ax25": "ax25", "inet": "inet", "radio": "radio",
    "obs": "obs", "faults": "faults", "scale": "flow",
    "workload": "workload", "apps": "workload", "check": "check",
}

#: Every layer that reports ``<layer>.self_s`` and ``<layer>.share``.
LAYERS = ("sim", "serialio", "kiss", "driver", "tnc", "ax25", "inet",
          "radio", "flow", "obs", "faults", "workload", "check", "other")

_NS = 1e-9


class SpanClock:
    """A stack of open spans with per-account self and inclusive time.

    An account is a layer name, optionally with a sub-account after a
    dot (``sim.step_event``); the layer's self time is the sum over its
    accounts.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        now = perf_counter_ns()
        self._stack: List[list] = [["other", now]]
        self._last = now

    def push(self, account: str) -> None:
        now = perf_counter_ns()
        top = self._stack[-1][0]
        self.self_ns[top] = self.self_ns.get(top, 0) + now - self._last
        self._stack.append([account, now])
        self._last = now

    def pop(self) -> None:
        now = perf_counter_ns()
        account, began = self._stack.pop()
        self.self_ns[account] = self.self_ns.get(account, 0) + now - self._last
        self.inclusive_ns[account] = (self.inclusive_ns.get(account, 0)
                                      + now - began)
        self._last = now

    def restart(self) -> int:
        """Zero every account; the timed region starts now."""
        if len(self._stack) != 1:
            raise RuntimeError("restart inside an open span")
        self.self_ns.clear()
        self.inclusive_ns.clear()
        now = perf_counter_ns()
        self._stack[0][1] = now
        self._last = now
        return now

    def close(self) -> int:
        """Charge the open bottom span; returns the time it ends."""
        if len(self._stack) != 1:
            raise RuntimeError("close inside an open span")
        now = perf_counter_ns()
        self.self_ns["other"] = self.self_ns.get("other", 0) + now - self._last
        self._last = now
        return now


class _Dispatch:
    """``Simulator.profiler`` hook: each callback runs as a span of its layer.

    The engine calls :meth:`count` just before it looks up and calls
    ``event.fn``; the hook swaps in a timed callable that puts the
    original back before running it, so the event is unchanged after
    dispatch.  The hook's own bookkeeping is charged to ``other``.
    """

    def __init__(self, clock: SpanClock) -> None:
        self.clock = clock
        self.events = 0
        self._layers: Dict[object, str] = {}

    def _layer(self, fn: Callable) -> str:
        fn = getattr(fn, "__func__", fn)
        key = getattr(fn, "__code__", None) or type(fn)
        layer = self._layers.get(key)
        if layer is None:
            layer = PACKAGE_LAYER.get(attribute(fn)[0], "other")
            self._layers[key] = layer
        return layer

    def count(self, event: Event) -> None:
        push, pop = self.clock.push, self.clock.pop
        push("other")
        self.events += 1
        fn = event.fn
        layer = self._layer(fn)

        def timed(*args, **kwargs):
            event.fn = fn
            push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        event.fn = timed
        pop()


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class LayerTrace:
    """Wraps the layers' entry points and turns the spans into metrics."""

    def __init__(self) -> None:
        self.clock = SpanClock()
        self.dispatch = _Dispatch(self.clock)
        self.counts: Dict[str, int] = {}
        self.instances: Dict[type, list] = {}
        self._undo: list = []
        self._began = 0
        self._ended = 0

    # -- patching ------------------------------------------------------

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _spanned(self, fn: Callable, account: str,
                 counter: Optional[str] = None) -> Callable:
        push, pop, counts = self.clock.push, self.clock.pop, self.counts
        if counter is not None:
            counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            push(account)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return wrapper

    def span(self, cls: type, name: str, account: str,
             counter: Optional[str] = None) -> None:
        """Time ``cls.name`` (method or classmethod) as ``account``."""
        member = cls.__dict__[name]
        if isinstance(member, classmethod):
            wrapped = classmethod(self._spanned(member.__func__, account,
                                                counter))
        else:
            wrapped = self._spanned(member, account, counter)
        self._replace(cls, name, wrapped)

    def span_function(self, fn: Callable, account: str,
                      counter: Optional[str] = None) -> None:
        """Time a module-level function wherever a ``repro`` module binds it."""
        wrapped = self._spanned(fn, account, counter)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapped)

    def register(self, cls: type) -> None:
        """Keep every instance ``cls`` constructs, to read its counters."""
        init = cls.__dict__["__init__"]
        instances = self.instances.setdefault(cls, [])

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        self._replace(cls, "__init__", wrapper)

    def count(self, cls: type, name: str, counter: str,
              when: Optional[Callable] = None) -> None:
        """Count calls of ``cls.name`` (only those where ``when(*args)``)."""
        counts = self.counts
        counts[counter] = 0
        method = cls.__dict__[name]

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if when is None or when(*args):
                counts[counter] += 1
            return method(*args, **kwargs)

        self._replace(cls, name, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`remove`)."""
        # sim: the engine loop, scheduling and the exploration hooks.
        self.span(Simulator, "run", "sim")
        self.span(Simulator, "at", "sim", counter="sim.scheduled")
        self.span(Simulator, "head_events", "sim.head_events")
        self.span(Simulator, "step_event", "sim.step_event")
        self.count(Event, "cancel", "sim.cancelled",
                   when=lambda event: not event.cancelled)
        # serial line, KISS framing and the pr0 driver.
        self.span(SerialEndpoint, "write", "serialio",
                  counter="serialio.writes")
        self.span(KissDeframer, "push", "kiss", counter="kiss.push_calls")
        self.span(KissDeframer, "push_byte", "kiss",
                  counter="kiss.push_byte_calls")
        self.span_function(framing.escape, "kiss", counter="kiss.escape_calls")
        self.span_function(framing.frame, "kiss")
        for name in ("if_output", "_rx_char_interrupt", "_rx_burst",
                     "_kiss_record"):
            self.span(PacketRadioInterface, name, "driver")
        for name in ("_byte_from_host", "_burst_from_host",
                     "_record_from_host", "_frame_from_air"):
            self.span(KissTnc, name, "tnc")
        # protocol codecs and state machines.
        self.span(AX25Frame, "encode", "ax25", counter="ax25.encode_calls")
        self.span(AX25Frame, "decode", "ax25", counter="ax25.decode_calls")
        self.span(LapbConnection, "handle_frame", "ax25")
        self.span(LapbEndpoint, "handle_frame", "ax25")
        self.span(NetStack, "ip_output", "inet",
                  counter="inet.ip_output_calls")
        self.span(IPv4Datagram, "encode", "inet")
        self.span(IPv4Datagram, "decode", "inet",
                  counter="inet.ip_decode_calls")
        self.span(TcpSegment, "encode", "inet")
        self.span(TcpSegment, "decode", "inet")
        # radio channel and the flow-level background cloud.
        self.span(RadioChannel, "begin_transmission", "radio",
                  counter="radio.transmissions")
        self.count(RadioChannel, "occupy", "flow.bursts")
        # flight recorder and its instruments.
        for name in ("born_datagram", "handoff", "adopt", "enter", "drop",
                     "shed_packet", "deliver", "enter_key", "lost_key",
                     "drop_key", "deliver_key"):
            self.span(FlightRecorder, name, "obs")
        self.span(Gauge, "sample", "obs")
        self.span(Histogram, "record", "obs")
        self.span(Rate, "tick", "obs")
        # fault injection: the per-byte serial noise filter.
        self.span(LineNoiseFilter, "__call__", "faults")
        # model checker.
        self.span(Explorer, "run", "check")
        self.span(StateCapturer, "capture", "check.capture",
                  counter="check.captures")
        self.span(StateCapturer, "restore", "check.restore",
                  counter="check.restores")
        self.span_function(fingerprint, "check.fingerprint")
        for cls in [Invariant] + _subclasses(Invariant):
            if "check" in cls.__dict__:
                self.span(cls, "check", "check.invariants")
        for cls in (SerialEndpoint, PacketRadioInterface, KissTnc,
                    LapbConnection, TcpConnection, RadioChannel,
                    FlightRecorder, FaultInjector):
            self.register(cls)

    def remove(self) -> None:
        """Put back everything :meth:`install` replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- the timed region ----------------------------------------------

    def attach(self, sim: Simulator, capturer: Optional[StateCapturer] = None) -> None:
        """Route ``sim``'s dispatched callbacks through the span hook.

        Snapshots share the hook instead of copying it, so restored
        worlds report to the same clock.
        """
        sim.profiler = self.dispatch
        if capturer is not None:
            capturer.share(self.dispatch)

    def start(self) -> None:
        """Begin the timed region.

        Times cover the timed region only.  Counts cover set-up too,
        like the instances' own counters, because set-up schedules the
        events the timed region runs.
        """
        self._began = self.clock.restart()

    def stop(self) -> None:
        self._ended = self.clock.close()

    # -- metrics -------------------------------------------------------

    def _sum(self, cls: type, attr: str, stats_key: Optional[str] = None) -> int:
        total = 0
        for obj in self.instances.get(cls, []):
            value = getattr(obj, attr)
            total += value[stats_key] if stats_key is not None else value
        return total

    def metrics(self, exploration_results=None) -> Dict[str, float]:
        """Per-layer metrics of the timed region.

        ``exploration_results`` (world name -> ExplorationResult) supplies
        the revisit ratio of a model-checker run.
        """
        wall_ns = self._ended - self._began
        wall = wall_ns * _NS
        out: Dict[str, float] = {"trace.wall_s": wall}
        layer_ns = {layer: 0 for layer in LAYERS}
        for account, ns in self.clock.self_ns.items():
            layer_ns[account.split(".")[0]] += ns
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] * _NS
            out[f"{layer}.share"] = layer_ns[layer] / wall_ns if wall_ns else 0.0

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        counts = self.counts
        self_ns, inclusive_ns = self.clock.self_ns, self.clock.inclusive_ns
        events = self.dispatch.events
        out["sim.events"] = float(events)
        out["sim.scheduled"] = float(counts["sim.scheduled"])
        out["sim.cancelled"] = float(counts["sim.cancelled"])
        out["sim.useful_frac"] = ratio(events, counts["sim.scheduled"])
        out["sim.head_events_s"] = self_ns.get("sim.head_events", 0) * _NS
        out["sim.step_event_s"] = self_ns.get("sim.step_event", 0) * _NS

        out["serialio.writes"] = float(counts["serialio.writes"])
        out["serialio.bytes"] = float(self._sum(SerialEndpoint, "bytes_sent"))
        out["kiss.push_byte_calls"] = float(counts["kiss.push_byte_calls"])
        out["kiss.push_calls"] = float(counts["kiss.push_calls"])
        out["kiss.escape_calls"] = float(counts["kiss.escape_calls"])
        frames_in = self._sum(PacketRadioInterface, "frames_from_tnc")
        out["driver.frames_in"] = float(frames_in)
        out["driver.not_for_us_frac"] = ratio(
            self._sum(PacketRadioInterface, "frames_not_for_us"), frames_in)
        out["driver.sheds"] = float(self._sum(PacketRadioInterface, "osheds"))
        out["tnc.frames_to_host"] = float(self._sum(KissTnc, "frames_to_host"))
        out["tnc.frames_filtered"] = float(self._sum(KissTnc, "frames_filtered"))

        out["ax25.encode_calls"] = float(counts["ax25.encode_calls"])
        out["ax25.decode_calls"] = float(counts["ax25.decode_calls"])
        i_sent = self._sum(LapbConnection, "stats", "i_sent")
        i_rexmit = self._sum(LapbConnection, "stats", "i_rexmit")
        out["lapb.rexmit_frac"] = ratio(i_rexmit, i_sent + i_rexmit)
        out["inet.ip_output_calls"] = float(counts["inet.ip_output_calls"])
        out["inet.ip_decode_calls"] = float(counts["inet.ip_decode_calls"])
        segments = self._sum(TcpConnection, "stats", "segments_sent")
        out["tcp.segments"] = float(segments)
        out["tcp.rexmit_frac"] = ratio(
            self._sum(TcpConnection, "stats", "retransmissions"), segments)

        out["radio.transmissions"] = float(counts["radio.transmissions"])
        out["radio.collision_frac"] = ratio(
            self._sum(RadioChannel, "total_collisions"),
            self._sum(RadioChannel, "total_transmissions"))
        out["flow.bursts"] = float(counts["flow.bursts"])
        out["obs.sightings"] = float(self._sum(FlightRecorder, "events_recorded"))
        out["faults.injected"] = float(self._sum(FaultInjector, "faults_injected"))

        for part in ("capture", "restore", "fingerprint", "invariants"):
            out[f"check.{part}_s"] = self_ns.get(f"check.{part}", 0) * _NS
        out["check.step_s"] = inclusive_ns.get("sim.step_event", 0) * _NS
        out["check.captures"] = float(counts["check.captures"])
        out["check.restores"] = float(counts["check.restores"])
        states = revisits = 0
        for result in (exploration_results or {}).values():
            states += result.states
            revisits += result.revisits
        out["check.revisit_frac"] = ratio(revisits, states + revisits)
        return out
