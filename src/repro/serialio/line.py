"""A byte-timed, full-duplex RS-232 line.

Each direction serialises independently: a byte takes ``bits_per_char /
baud`` seconds on the wire (8N1 framing: start + 8 data + stop = 10
bits).  Writes queue behind in-flight bytes, so a burst written at one
instant arrives spread out in time exactly as a UART would deliver it
-- this is what makes the driver's per-character interrupt handling a
meaningful thing to model, and what makes the serial line a real
bottleneck in experiment E3.  A write's bytes are one event series
(:meth:`~repro.sim.engine.Simulator.at_series`): each byte is still
its own dispatched event, but the queue holds one entry per write.
The receiving endpoint counts each byte that gets past its fault
filter in ``bytes_received`` before it calls the per-byte handler.
The pr0 driver reads its interrupt count there and registers its KISS
unescaper as the handler, so a received character is one
:meth:`SerialEndpoint._deliver` and one handler call.

The line also supports the scale subsystem's **frame fidelity**
(``fidelity="frame"``): a write is delivered as one burst event at the
time its *last* byte would have landed, instead of one event per byte.
Because every KISS record ends with its trailing FEND, frames complete
at exactly the per-character completion times.  What is claimed, and
gated by ``tests/test_scale_fidelity.py``, is that on fault-free lines
the two fidelities agree through
:func:`~repro.harness.results.comparable_metrics`; ``events_executed``
differs by design, so full digests do not.  The burst path downshifts
to per-character delivery whenever a receive fault filter is installed
on the destination endpoint (serial noise / drop windows from
:mod:`repro.faults`), so the filter sees every byte.  Under a fault
window the downshift is an approximation, not an equivalence: a burst
that a window overtakes in flight lands all of its bytes at the
completion instant, and random scenarios under serial faults have
been found where frame and per_char differ.

:func:`validate_line_fidelity` is the one check of a line fidelity
name; ``Scenario`` and ``ScaleLayout`` call it too.  The scale
subsystem's third level, ``flow``, replaces the line entirely (see
:mod:`repro.scale.flow`), so it is not a line fidelity.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

#: Serial-line fidelity levels: one event per byte, or one per write.
LINE_FIDELITY_LEVELS = ("per_char", "frame")


def validate_line_fidelity(fidelity: str) -> str:
    """Check a serial-line fidelity name; returns it for chaining."""
    if fidelity not in LINE_FIDELITY_LEVELS:
        raise ValueError(
            f"unknown line fidelity {fidelity!r}; "
            f"expected one of {LINE_FIDELITY_LEVELS}")
    return fidelity


class SerialEndpoint:
    """One end of a serial line.

    Components attach a byte-receive handler with :meth:`on_receive`
    and transmit with :meth:`write`.
    """

    def __init__(self, line: "SerialLine", name: str) -> None:
        self.line = line
        self.name = name
        self.peer: Optional["SerialEndpoint"] = None
        self._receive_handler: Optional[Callable[[int], None]] = None
        self._receive_burst_handler: Optional[Callable[[bytes], None]] = None
        # Time at which the transmitter in this direction becomes free.
        self._tx_free_at = 0
        self.bytes_sent = 0
        #: Bytes that landed here past the fault filter: one receive
        #: interrupt each, counted before the handler runs.
        self.bytes_received = 0
        #: Receive-path fault filter (installed by :mod:`repro.faults`):
        #: called with each byte as it lands at *this* endpoint; returns
        #: the byte to deliver (possibly altered -- line noise) or None
        #: to drop it on the floor.  One filter at a time.
        self.rx_fault: Optional[Callable[[int], Optional[int]]] = None
        self.rx_faulted = 0
        #: Observability tap: called with :attr:`tx_backlog_bytes` after
        #: every write, so a gauge can sample the serial backlog exactly
        #: when it changes (no extra polling events).
        self.on_backlog_sample: Optional[Callable[[int], None]] = None
        self._label = f"serial {name}"

    def on_receive(self, handler: Callable[[int], None]) -> None:
        """Install the per-byte receive interrupt handler."""
        self._receive_handler = handler

    def on_receive_burst(self, handler: Callable[[bytes], None]) -> None:
        """Install a whole-burst receive handler (frame fidelity only).

        When the line runs at ``fidelity="frame"`` and no receive fault
        is active, a write's bytes arrive together in one event at the
        per-character completion time; this handler gets the whole
        buffer.  Endpoints without a burst handler fall back to their
        per-byte handler, called once per byte at that same instant.
        """
        self._receive_burst_handler = handler

    def write(self, data: bytes) -> int:
        """Queue ``data`` for transmission; returns completion time.

        Bytes are delivered to the peer one at a time as they finish
        serialising (or, at frame fidelity on a fault-free line, all at
        once when the last byte would have landed).  Returns the
        absolute time the last byte lands.
        """
        line = self.line
        sim = line.sim
        byte_time = line.byte_time
        start = max(sim.now, self._tx_free_at)
        completion = start + len(data) * byte_time
        label = self._label
        if line.fidelity == "frame" and (
                self.peer is None or self.peer.rx_fault is None):
            if data:
                sim.at(completion, self._deliver_burst, bytes(data),
                       label=label)
        elif data:
            sim.at_series(start + byte_time, byte_time, self._deliver,
                          bytes(data), label=label)
        self._tx_free_at = completion
        self.bytes_sent += len(data)
        if self.on_backlog_sample is not None:
            self.on_backlog_sample(self.tx_backlog_bytes)
        return self._tx_free_at

    @property
    def tx_busy(self) -> bool:
        """True while previously written bytes are still serialising."""
        return self._tx_free_at > self.line.sim.now

    @property
    def tx_backlog_bytes(self) -> int:
        """Bytes still on the wire in this direction (rounded up)."""
        remaining = self._tx_free_at - self.line.sim.now
        if remaining <= 0:
            return 0
        return -(-remaining // self.line.byte_time)

    def _deliver(self, byte: int) -> None:
        peer = self.peer
        assert peer is not None
        if peer.rx_fault is not None:
            faulted = peer.rx_fault(byte)
            if faulted != byte:
                peer.rx_faulted += 1
            if faulted is None:
                return
            byte = faulted
        peer.bytes_received += 1
        handler = peer._receive_handler
        if handler is not None:
            handler(byte)

    def _deliver_burst(self, data: bytes) -> None:
        """Frame-fidelity delivery: the whole write lands in one event.

        If a receive fault was installed after this burst was scheduled
        (a fault window opened mid-flight) the burst downshifts to the
        per-byte path so the fault filter sees every byte -- the bytes
        all land at the completion instant, which is the conservative
        end of their per-character arrival spread.
        """
        peer = self.peer
        assert peer is not None
        if peer.rx_fault is not None:
            for byte in data:
                self._deliver(byte)
            return
        peer.bytes_received += len(data)
        if peer._receive_burst_handler is not None:
            peer._receive_burst_handler(data)
        elif peer._receive_handler is not None:
            handler = peer._receive_handler
            for byte in data:
                handler(byte)


class SerialLine:
    """Full-duplex serial line joining two endpoints.

    >>> from repro.sim.engine import Simulator
    >>> sim = Simulator()
    >>> line = SerialLine(sim, baud=9600)
    >>> received = bytearray()
    >>> line.b.on_receive(received.append)
    >>> line.a.write(b"hello")   # one byte per ~1.04 ms; returns when the last lands
    5210
    >>> _ = sim.run_until_idle()
    >>> bytes(received), sim.now
    (b'hello', 5210)
    """

    def __init__(self, sim: Simulator, baud: int = 9600, bits_per_char: int = 10,
                 name: str = "serial", fidelity: str = "per_char") -> None:
        if baud <= 0:
            raise ValueError("baud must be positive")
        validate_line_fidelity(fidelity)
        self.sim = sim
        self.baud = baud
        self.bits_per_char = bits_per_char
        self.name = name
        #: Delivery granularity: ``"per_char"`` (one event per byte, the
        #: byte-faithful default) or ``"frame"`` (one event per write at
        #: the same completion time; see the module docstring).
        self.fidelity = fidelity
        #: Microseconds to serialise one character.
        self.byte_time = max(1, round(bits_per_char * SECOND / baud))
        self.a = SerialEndpoint(self, f"{name}.a")
        self.b = SerialEndpoint(self, f"{name}.b")
        self.a.peer = self.b
        self.b.peer = self.a

    def throughput_bytes_per_second(self) -> float:
        """Raw one-direction capacity in bytes/second."""
        return self.baud / self.bits_per_char
