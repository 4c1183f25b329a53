"""ICMP echo measurement (ping).

Used by the quickstart example and by several benchmarks to measure
round-trip time through the gateway.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.inet import icmp as icmp_mod
from repro.inet.ip import IPv4Address
from repro.inet.netstack import NetStack
from repro.sim.clock import SECOND


class Pinger:
    """Sends a train of echo requests and records per-reply RTTs."""

    def __init__(self, stack: NetStack) -> None:
        self.stack = stack
        self.sim = stack.sim
        # Idents need only be unique per stack (replies are demuxed by
        # destination host first, ident second).  A per-stack counter
        # keeps the wire bytes a pure function of the run: a class
        # counter leaks interpreter history -- every Pinger ever
        # created shifts later idents, and an ident byte landing on
        # FEND/FESC changes KISS escaping and thus serial byte counts.
        self.ident = 100 + len(stack.icmp_listeners)
        self._sent_at: Dict[int, int] = {}
        self._next_sequence = 0
        self.rtts_us: List[int] = []
        self.sent = 0
        self.received = 0
        stack.icmp_listeners.append(self._icmp)

    def send(self, destination: "IPv4Address | str", count: int = 1,
             interval: int = 1 * SECOND, payload_size: int = 56) -> None:
        """Schedule ``count`` echo requests, ``interval`` apart."""
        destination = IPv4Address.coerce(destination)
        for index in range(count):
            self.sim.schedule(
                index * interval, self.send_one, destination,
                payload_size, label="ping",
            )

    def send_one(self, destination: "IPv4Address | str",
                 payload_size: int = 56) -> None:
        """Send a single echo request now (sequence numbers never repeat)."""
        destination = IPv4Address.coerce(destination)
        sequence = self._next_sequence
        self._next_sequence += 1
        self._sent_at[sequence] = self.sim.now
        self.sent += 1
        message = icmp_mod.echo_request(self.ident, sequence, b"\x2a" * payload_size)
        self.stack.send_icmp(message, destination)

    def _icmp(self, message: icmp_mod.IcmpMessage, source: IPv4Address) -> None:
        if message.icmp_type != icmp_mod.ICMP_ECHO_REPLY:
            return
        ident, sequence = icmp_mod.echo_fields(message)
        if ident != self.ident:
            return
        sent_at = self._sent_at.pop(sequence, None)
        if sent_at is None:
            return
        self.received += 1
        rtt = self.sim.now - sent_at
        self.rtts_us.append(rtt)
        recorder = self.stack.tracer.flight
        if recorder is not None:
            recorder.instruments.histogram("rtt_us").record(rtt)

    @property
    def lost(self) -> int:
        """Requests that never got a reply."""
        return self.sent - self.received

    def mean_rtt_seconds(self) -> Optional[float]:
        """Mean round-trip time in seconds; None if no replies."""
        if not self.rtts_us:
            return None
        return sum(self.rtts_us) / len(self.rtts_us) / SECOND
