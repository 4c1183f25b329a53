"""Traffic generators: session models driven by an arrival process.

Each generator owns one "user" of the network -- a pinging host, a UDP
blaster, a TCP file mover, a pair of ragchewing AX.25 stations, or a
terminal user on the BBS -- and converts an
:class:`~repro.workload.arrivals.ArrivalProcess` into actual traffic
through the stack's public interfaces.  Generators never reach into the
simulator's internals: they schedule events and call the same APIs the
examples use, so workload traffic is indistinguishable from
hand-written scenario traffic.

Every generator accumulates a :class:`~repro.metrics.counters.CounterSet`
and reports a flat ``metrics()`` dict, which the scenario layer and the
experiment harness aggregate.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.apps.ping import Pinger
from repro.inet.netstack import NetStack
from repro.inet.sockets import TcpServerSocket, TcpSocket, UdpSocket
from repro.metrics.counters import CounterSet
from repro.radio.channel import RadioChannel
from repro.radio.station import RadioStation
from repro.sim.clock import seconds
from repro.sim.engine import Simulator
from repro.workload.arrivals import ArrivalProcess

#: Port the discard/UDP sink services listen on (RFC 863's number).
DISCARD_PORT = 9

#: Per-generator means: a population averages them over the generators
#: that report one instead of summing them.
MEAN_METRICS = ("ping_mean_rtt_s", "tcp_transfer_mean_latency_s")


class TrafficGenerator:
    """Base class: fires :meth:`fire` once per arrival until stopped.

    ``duration`` bounds offered load to a window (microseconds from
    :meth:`start`); ``limit`` bounds the total number of arrivals.
    Subclasses implement :meth:`fire` and may extend :meth:`metrics`.
    """

    kind = "traffic"

    def __init__(
        self,
        sim: Simulator,
        arrivals: ArrivalProcess,
        duration: Optional[int] = None,
        limit: Optional[int] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.arrivals = arrivals
        self.duration = duration
        self.limit = limit
        self.name = name or f"{self.kind}"
        self.counters = CounterSet()
        self._deadline: Optional[int] = None
        self._emitted = 0

    def start(self, at: int = 0) -> None:
        """Begin generating ``at`` microseconds from now."""
        if self.duration is not None:
            self._deadline = self.sim.now + at + self.duration
        self.sim.schedule(at + self.arrivals.next_gap(), self._tick,
                          label=f"workload {self.name}")

    def _tick(self) -> None:
        if self._deadline is not None and self.sim.now >= self._deadline:
            return
        if self.limit is not None and self._emitted >= self.limit:
            return
        self._emitted += 1
        self.counters.bump("arrivals")
        self.fire()
        gap = self.arrivals.next_gap()
        if self.limit is not None and self._emitted >= self.limit:
            return
        when = self.sim.now + gap
        if self._deadline is not None and when >= self._deadline:
            return
        self.sim.schedule(gap, self._tick, label=f"workload {self.name}")

    def fire(self) -> None:
        """Emit one unit of traffic."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        """Flat name->value summary of what this generator did and saw."""
        return {str(k): float(v) for k, v in self.counters.snapshot().items()}


class UiChatterGenerator(TrafficGenerator):
    """A station sending pre-built AX.25 UI frames (background chatter).

    This is the §3 antagonist: traffic on the channel that is *not* for
    the gateway, which a promiscuous TNC nonetheless pushes up the
    serial line.
    """

    kind = "chatter"

    def __init__(
        self,
        sim: Simulator,
        station: RadioStation,
        frame: bytes,
        arrivals: ArrivalProcess,
        **kwargs,
    ) -> None:
        super().__init__(sim, arrivals, name=f"chatter/{station.name}",
                         **kwargs)
        self.station = station
        self.frame = frame

    def fire(self) -> None:
        if self.station.send_frame(self.frame):
            self.counters.bump("frames_offered")
            self.counters.bump("bytes_offered", len(self.frame))
        else:
            self.counters.bump("frames_dropped_at_queue")


class PingGenerator(TrafficGenerator):
    """A host pinging a destination; measures reachability and RTT."""

    kind = "ping"

    def __init__(
        self,
        sim: Simulator,
        stack: NetStack,
        destination: str,
        arrivals: ArrivalProcess,
        payload_size: int = 56,
        **kwargs,
    ) -> None:
        super().__init__(sim, arrivals, name=f"ping/{stack.hostname}",
                         **kwargs)
        self.pinger = Pinger(stack)
        self.destination = destination
        self.payload_size = payload_size

    def fire(self) -> None:
        self.pinger.send_one(self.destination, self.payload_size)

    def metrics(self) -> Dict[str, float]:
        out = super().metrics()
        out["pings_sent"] = float(self.pinger.sent)
        out["pings_received"] = float(self.pinger.received)
        mean_rtt = self.pinger.mean_rtt_seconds()
        if mean_rtt is not None:
            out["ping_mean_rtt_s"] = mean_rtt
        return out


class UdpSink(UdpSocket):
    """A bound UDP endpoint that just counts what lands on it."""

    def __init__(self, stack: NetStack, port: int = DISCARD_PORT) -> None:
        super().__init__(stack, port)
        self.datagrams = 0
        self.bytes = 0
        self.on_datagram = self._count

    def _count(self, payload: bytes, _source, _port) -> None:
        self.datagrams += 1
        self.bytes += len(payload)
        # Keep the sink O(1) in memory during long soaks.
        self.received.clear()


class UdpBlastGenerator(TrafficGenerator):
    """A host firing UDP datagrams at a sink."""

    kind = "udp"

    def __init__(
        self,
        sim: Simulator,
        stack: NetStack,
        destination: str,
        arrivals: ArrivalProcess,
        payload_bytes: int = 128,
        port: int = DISCARD_PORT,
        **kwargs,
    ) -> None:
        super().__init__(sim, arrivals, name=f"udp/{stack.hostname}",
                         **kwargs)
        self.socket = UdpSocket(stack)
        self.destination = destination
        self.port = port
        self.payload = bytes(payload_bytes)

    def fire(self) -> None:
        if self.socket.sendto(self.payload, self.destination, self.port):
            self.counters.bump("datagrams_sent")
            self.counters.bump("bytes_sent", len(self.payload))
        else:
            self.counters.bump("datagrams_unroutable")


class DiscardServer:
    """A TCP discard service (RFC 863): accepts, drains, counts."""

    def __init__(self, stack: NetStack, port: int = DISCARD_PORT) -> None:
        self.connections = 0
        self.bytes = 0
        self.server = TcpServerSocket(stack, port, self._accept)

    def _accept(self, socket: TcpSocket) -> None:
        self.connections += 1

        def drain(chunk: bytes) -> None:
            self.bytes += len(chunk)
            socket.recv()

        def finish(reason: str) -> None:
            if reason == "peer closed":
                socket.close()

        socket.on_data = drain
        socket.on_close = finish


class TcpTransferGenerator(TrafficGenerator):
    """A host pushing fixed-size transfers over fresh TCP connections.

    Each arrival opens a connection to a :class:`DiscardServer`, sends
    ``transfer_bytes`` and closes; completion is observed through the
    socket close callback, so "transfers_completed" means the FIN
    handshake finished, not merely that bytes were queued.
    """

    kind = "tcp"

    #: Per-connection recovery stats harvested into generator counters
    #: when each transfer's socket closes (tournament observables).
    HARVEST_STATS = ("retransmissions", "fast_retransmits",
                     "dup_acks_received", "timeouts", "pacing_deferrals")

    def __init__(
        self,
        sim: Simulator,
        stack: NetStack,
        destination: str,
        arrivals: ArrivalProcess,
        transfer_bytes: int = 2048,
        port: int = DISCARD_PORT,
        max_in_flight: int = 4,
        **kwargs,
    ) -> None:
        super().__init__(sim, arrivals, name=f"tcp/{stack.hostname}",
                         **kwargs)
        self.stack = stack
        self.destination = destination
        self.port = port
        self.transfer_bytes = transfer_bytes
        self.max_in_flight = max_in_flight
        self._open: List[TcpSocket] = []
        self._latency_total_us = 0

    def fire(self) -> None:
        if len(self._open) >= self.max_in_flight:
            # The link is already saturated with unfinished transfers;
            # offering more would only queue memory, not packets.
            self.counters.bump("transfers_skipped_busy")
            return
        socket = TcpSocket.connect(self.stack, self.destination, self.port)
        self._open.append(socket)
        self.counters.bump("transfers_started")
        started = self.sim.now

        def on_connect() -> None:
            socket.send(bytes(self.transfer_bytes))
            self.counters.bump("bytes_sent", self.transfer_bytes)
            socket.close()

        def on_close(reason: str) -> None:
            if socket in self._open:
                self._open.remove(socket)
            for stat in self.HARVEST_STATS:
                self.counters.bump(f"tcp_{stat}",
                                   socket.connection.stats.get(stat, 0))
            if reason == "closed":
                self.counters.bump("transfers_completed")
                self._latency_total_us += self.sim.now - started
            else:
                self.counters.bump("transfers_failed")

        socket.on_connect = on_connect
        socket.on_close = on_close

    def metrics(self) -> Dict[str, float]:
        out = super().metrics()
        # Transfers still in flight at the end of the run hold recovery
        # state their close callback never harvested; fold it in so the
        # totals cover everything this generator offered.
        for socket in self._open:
            for stat in self.HARVEST_STATS:
                key = f"tcp_{stat}"
                out[key] = (out.get(key, 0.0)
                            + float(socket.connection.stats.get(stat, 0)))
        completed = self.counters.snapshot().get("transfers_completed", 0)
        if completed:
            out["tcp_transfer_mean_latency_s"] = (
                self._latency_total_us / completed / float(seconds(1)))
        return out


class BbsTerminalGenerator(TrafficGenerator):
    """A terminal user running W0RLI-style BBS sessions over AX.25.

    Each arrival starts one scripted session -- connect, list, read,
    bye -- with think times drawn from ``rng``; a new session is
    skipped while the previous one is still on the air (one human, one
    terminal).  This models the paper's pre-IP population: pure level-2
    AX.25 users sharing the channel with the gateway's IP traffic.
    """

    kind = "bbs"

    SESSION_LINES = ("L", "R 1", "B")

    def __init__(
        self,
        sim: Simulator,
        terminal,
        bbs_callsign: str,
        arrivals: ArrivalProcess,
        rng: random.Random,
        **kwargs,
    ) -> None:
        super().__init__(sim, arrivals,
                         name=f"bbs/{terminal.callsign}", **kwargs)
        self.terminal = terminal
        self.bbs_callsign = bbs_callsign
        self.rng = rng
        self._in_session = False

    def _think(self) -> int:
        return seconds(self.rng.uniform(4.0, 12.0))

    def fire(self) -> None:
        if self._in_session:
            self.counters.bump("sessions_skipped_busy")
            return
        self._in_session = True
        self.counters.bump("sessions_started")
        at = self._think()
        self.terminal.type_line(f"connect {self.bbs_callsign}")
        self.counters.bump("lines_typed")
        for line in self.SESSION_LINES:
            self.sim.schedule(at, self._type, line)
            at += self._think()
        self.sim.schedule(at, self._end_session)

    def _type(self, line: str) -> None:
        self.terminal.type_line(line)
        self.counters.bump("lines_typed")

    def _end_session(self) -> None:
        self._in_session = False
        self.counters.bump("sessions_completed")

    def metrics(self) -> Dict[str, float]:
        out = super().metrics()
        out["screen_bytes"] = float(len(self.terminal.screen))
        return out


def load_metrics(generators: Iterable[TrafficGenerator],
                 channel: RadioChannel) -> Dict[str, float]:
    """A population's summed generator metrics plus its channel counters.

    :data:`MEAN_METRICS` are averaged over the generators that report
    them; every other generator metric is summed.  The shared channel
    adds its transmission, collision and utilisation counters.
    """
    out: Dict[str, float] = {}
    means: Dict[str, List[float]] = {}
    for generator in generators:
        for key, value in generator.metrics().items():
            if key in MEAN_METRICS:
                means.setdefault(key, []).append(value)
            else:
                out[key] = out.get(key, 0.0) + value
    for key, values in means.items():
        out[key] = sum(values) / len(values)
    out["channel_transmissions"] = float(channel.total_transmissions)
    out["channel_collisions"] = float(channel.total_collisions)
    out["channel_utilisation"] = float(channel.utilisation())
    return out
