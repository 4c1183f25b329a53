"""Preset worlds: small closed systems the explorer walks exhaustively.

A world bundles a simulator, a workload, and the checker-facing
surface the explorer needs:

* ``state_vector()`` -- the behavioural state, reduced to primitives,
  for fingerprinting.  It must include everything that can change the
  future (FSM variables, queue contents, pending events with their
  payloads) and should exclude write-only history (trace logs,
  monotone stat counters) so equivalent states actually merge.  It
  returns exact tuples and atoms (``str``, ``bytes``, ``int``,
  ``float``, ``bool``, ``None``) all the way down, unordered contents
  already sorted: :func:`~repro.check.snapshot.fingerprint` hashes
  such a vector as it is, and sends anything else through
  :func:`~repro.check.snapshot.canonical`, which is only the fallback.
* ``resources(event)`` -- the set of components an event can touch,
  used for the independence relation behind sleep-set POR.  When in
  doubt a world returns :data:`ALL_RESOURCES`, which only costs
  reduction, never soundness.
* ``obligations()`` -- outstanding liveness obligations; nonempty at a
  terminal (event-free) state is a liveness violation.
* ``invariants`` -- the safety properties checked at every state.

Frame loss is *chosen*, not drawn: links and the radio loss gate ask
the world's :class:`~repro.faults.inject.ChoiceOracle`, each with a
small drop budget.  The budget is the fairness assumption -- a
schedule may lose any frame, but not every retransmission forever --
and it is what keeps the liveness properties meaningful and the state
space finite.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence

from repro.ax25.address import AX25Address
from repro.ax25.frames import AX25Frame
from repro.ax25.lapb import LapbConnection, LapbEndpoint, LapbState
from repro.check.invariants import (
    BoundedQueues,
    ControlNeverShed,
    Invariant,
    LapbConservation,
    NoStuckFsm,
)
from repro.check.snapshot import pack_random
from repro.core.topology import Figure1Testbed, build_figure1_testbed
from repro.faults.inject import ChoiceOracle
from repro.inet.icmp import echo_request
from repro.inet.sockets import TcpServerSocket, TcpSocket
from repro.sim.clock import MS, SECOND
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Tracer

#: Sentinel resource set: conflicts with everything (no POR across it).
ALL_RESOURCES = frozenset(("*",))


def independent(left: frozenset, right: frozenset) -> bool:
    """Two transitions are independent iff their resource sets are disjoint."""
    if "*" in left or "*" in right:
        return False
    return left.isdisjoint(right)


class World:
    """Base class wiring the checker-facing surface; presets subclass."""

    name = "world"
    sim: Simulator
    oracle: ChoiceOracle
    tracer: Tracer
    lapb_endpoints: Sequence[LapbEndpoint] = ()
    drivers: Sequence = ()
    invariants: Sequence[Invariant] = ()

    def state_vector(self):
        """The behavioural state: exact tuples and atoms all the way down.

        Such a vector is already canonical, so ``fingerprint`` hashes it
        without a copy; any other canonicalisable structure still works,
        through ``canonical``.
        """
        raise NotImplementedError

    def resources(self, event: Event) -> frozenset:
        """Components ``event`` may touch; default conflicts with all."""
        return ALL_RESOURCES

    def obligations(self) -> List[str]:
        """Outstanding liveness obligations (empty = quiescence is legal)."""
        return []

    def queue_depths(self) -> Dict[str, int]:
        """Queue depths for :class:`BoundedQueues`."""
        return {}

    # -- shared vector helpers ----------------------------------------

    def _pending_vector(self):
        """Pending events as (relative time, label, payload summary)."""
        now = self.sim.now
        entries = []
        for event in self.sim.pending_events():
            label = event.label or getattr(event.fn, "__qualname__", "?")
            entries.append((event.time - now, label,
                            _args_summary(event.args)))
        return tuple(sorted(entries))

    def _conn_vector(self, conn: LapbConnection):
        timer = conn._t1_event
        return (
            conn.state.value, conn.vs, conn.vr, conn.va,
            conn.retry_count, conn.peer_busy, conn.local_busy,
            conn._rej_outstanding,
            tuple(bytes(item) for item in conn.send_queue),
            tuple((entry.ns, bytes(entry.info), entry.retransmitted,
                   entry.sent_at - self.sim.now) for entry in conn.unacked),
            timer is None,
            timer is not None and not timer.cancelled
            and self.sim.is_queued(timer),
        )

    def _endpoint_vector(self, endpoint: LapbEndpoint):
        return tuple(sorted(
            (key, self._conn_vector(conn))
            for key, conn in endpoint.connections.items()))


def _args_summary(args: tuple):
    """Reduce event args to primitives that distinguish their futures."""
    summary = []
    for arg in args:
        if isinstance(arg, AX25Frame):
            summary.append(_frame_summary(arg))
        elif isinstance(arg, (bytes, bytearray)):
            summary.append(bytes(arg))
        elif isinstance(arg, (int, str, bool)) or arg is None:
            summary.append(arg)
        else:
            name = getattr(arg, "name", None)
            summary.append(f"<{type(arg).__name__}:{name}>")
    return tuple(summary)


def _frame_summary(frame: AX25Frame):
    return (
        frame.frame_type.value, str(frame.source), str(frame.destination),
        frame.ns, frame.nr, frame.poll_final, frame.command,
        bytes(frame.info or b""), frame.pid,
    )


class ChoiceLink:
    """A point-to-point frame carrier whose losses are oracle choices.

    Delivery is a fixed-latency scheduled event; while the drop budget
    lasts, each frame first passes a two-armed choice point (arm 0 =
    deliver, arm 1 = drop).  Past the budget the link is perfect, so
    every path eventually makes progress (the fairness bound).
    """

    def __init__(self, sim: Simulator, oracle: ChoiceOracle, tracer: Tracer,
                 name: str, latency: int, drop_budget: int) -> None:
        self.sim = sim
        self.oracle = oracle
        self.tracer = tracer
        self.name = name
        self.latency = latency
        self.drops_left = drop_budget
        #: Anything with ``handle_frame`` (an endpoint or a hub); wired
        #: by the world after both ends exist.
        self.destination = None
        self._sends = 0

    def __call__(self, frame: AX25Frame) -> None:
        self._sends += 1
        if self.drops_left > 0:
            if self.oracle.choose(f"drop:{self.name}#{self._sends}", 2) == 1:
                self.drops_left -= 1
                self.tracer.log("check.drop", self.name,
                                "oracle dropped frame in flight",
                                frame=str(frame.frame_type.value))
                return
        self.sim.schedule(self.latency, self.destination.handle_frame, frame,
                          label=f"deliver {self.name}")

    def vector(self):
        """Behavioural link state (counters are history, not state)."""
        return (self.drops_left,)


class CollidingHub:
    """The hidden-terminal receiver: same-instant arrivals collide.

    Arrivals buffer into ``pending_rx`` and a flush runs at the same
    instant (after other already-queued work).  Two frames in one
    flush destroy each other -- the spokes cannot hear one another, so
    nothing stopped them transmitting simultaneously.  Which arrivals
    share a flush depends on the event order at that instant, which is
    exactly the nondeterminism the explorer enumerates.
    """

    def __init__(self, sim: Simulator, tracer: Tracer, name: str,
                 endpoint: LapbEndpoint) -> None:
        self.sim = sim
        self.tracer = tracer
        self.name = name
        self.endpoint = endpoint
        self.pending_rx: List[AX25Frame] = []
        self.collisions = 0

    def handle_frame(self, frame: AX25Frame) -> None:
        self.pending_rx.append(frame)
        if len(self.pending_rx) == 1:
            self.sim.call_soon(self._flush, label=f"hub-flush {self.name}")

    def _flush(self) -> None:
        frames, self.pending_rx = self.pending_rx, []
        if len(frames) > 1:
            self.collisions += len(frames)
            self.tracer.log("check.collision", self.name,
                            f"{len(frames)} frames collided at the hub")
            return
        for frame in frames:
            self.endpoint.handle_frame(frame)

    def vector(self):
        return tuple(_frame_summary(frame) for frame in self.pending_rx)


def _protocol_obligations(side: str, endpoint: LapbEndpoint) -> List[str]:
    """LAPB liveness obligations: awaiting-peer states and unacked frames."""
    out = []
    for key, conn in endpoint.connections.items():
        if conn.state in (LapbState.AWAITING_CONNECTION,
                          LapbState.AWAITING_RELEASE):
            out.append(f"{side}->{key}: {conn.state.value} unresolved")
        if conn.unacked:
            out.append(f"{side}->{key}: {len(conn.unacked)} I frame(s) "
                       f"neither acked nor abandoned")
    return out


class Lapb2World(World):
    """Two stations, simultaneous SABMs, one I frame each way, release.

    The smallest world with genuine concurrency: both directions are
    symmetric and independent, so POR has real interleavings to merge,
    and the drop budget (one frame per direction) folds every single
    loss + T1 recovery into the walk.
    """

    name = "lapb2"

    def __init__(self, drop_budget: int = 1) -> None:
        self.sim = Simulator()
        self.oracle = ChoiceOracle()
        self.tracer = Tracer(self.sim)
        self._sides = {"N7AKR": "A", "KB7DZ": "B"}
        addr_a = AX25Address("N7AKR")
        addr_b = AX25Address("KB7DZ")
        self.link_ab = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "A->B", latency=10 * MS,
                                  drop_budget=drop_budget)
        self.link_ba = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "B->A", latency=10 * MS,
                                  drop_budget=drop_budget)
        self.a = LapbEndpoint(self.sim, addr_a, self.link_ab,
                              t1=1 * SECOND, retries=2, window=2,
                              tracer=self.tracer)
        self.b = LapbEndpoint(self.sim, addr_b, self.link_ba,
                              t1=1 * SECOND, retries=2, window=2,
                              tracer=self.tracer)
        self.link_ab.destination = self.b
        self.link_ba.destination = self.a
        self.a.on_connect = self._a_connected
        self.b.on_connect = self._b_connected
        self.a.on_data = self._a_data
        self.b.on_data = self._b_data
        self.sent = {"A": False, "B": False}
        self.got = {"A": False, "B": False}
        self.lapb_endpoints = [self.a, self.b]
        self.invariants = [LapbConservation(), NoStuckFsm(),
                           BoundedQueues(16)]
        self.sim.at(0, self._kickoff, label="kickoff")

    def _kickoff(self) -> None:
        # Simultaneous establishment: both SABMs cross in flight.
        self.a.connect(self.b.address)
        self.b.connect(self.a.address)

    def _send_once(self, side: str, conn: LapbConnection,
                   payload: bytes) -> None:
        if not self.sent[side]:
            self.sent[side] = True
            conn.send(payload)

    def _a_connected(self, conn: LapbConnection, _initiated: bool) -> None:
        self._send_once("A", conn, b"PING")

    def _b_connected(self, conn: LapbConnection, _initiated: bool) -> None:
        self._send_once("B", conn, b"PONG")

    def _a_data(self, conn: LapbConnection, _data: bytes, _pid: int) -> None:
        self.got["A"] = True
        conn.disconnect()

    def _b_data(self, conn: LapbConnection, _data: bytes, _pid: int) -> None:
        self.got["B"] = True
        conn.disconnect()

    def state_vector(self):
        return (
            self._endpoint_vector(self.a),
            self._endpoint_vector(self.b),
            self.link_ab.vector(), self.link_ba.vector(),
            tuple(sorted(self.sent.items())),
            tuple(sorted(self.got.items())),
            self._pending_vector(),
        )

    def resources(self, event: Event) -> frozenset:
        label = event.label
        if label.startswith("deliver "):
            src, dst = label[len("deliver "):].split("->")
            # Delivery mutates the receiver, whose replies go out on
            # its own link -- the reverse direction of this one.
            return frozenset((f"ep:{dst}", f"link:{dst}->{src}"))
        if label.startswith("lapb-t1 "):
            src, dst = label[len("lapb-t1 "):].split("->")
            side, peer = self._sides[src], self._sides[dst]
            return frozenset((f"ep:{side}", f"link:{side}->{peer}"))
        return ALL_RESOURCES

    def obligations(self) -> List[str]:
        return (_protocol_obligations("A", self.a)
                + _protocol_obligations("B", self.b))

    def queue_depths(self) -> Dict[str, int]:
        depths = {}
        for side, endpoint in (("A", self.a), ("B", self.b)):
            for key, conn in endpoint.connections.items():
                depths[f"{side}->{key}.send_queue"] = len(conn.send_queue)
                depths[f"{side}->{key}.unacked"] = len(conn.unacked)
        depths["sim.pending"] = len(self.sim.pending_events())
        return depths


class Hidden3World(World):
    """Two spokes behind a hub: the §2.2 hidden-terminal triangle.

    A and C both connect to hub B and push one I frame.  They cannot
    hear each other, so same-instant arrivals at B collide and die
    (see :class:`CollidingHub`); staggered T1 values (1s vs 1.5s) let
    retransmissions escape the collision eventually.  The links stay
    open at quiescence -- the obligations are purely protocol-level.
    """

    name = "hidden3"

    def __init__(self, drop_budget: int = 1) -> None:
        self.sim = Simulator()
        self.oracle = ChoiceOracle()
        self.tracer = Tracer(self.sim)
        self._sides = {"N7AKR": "A", "KB7DZ": "B", "KE7C": "C"}
        addr_a = AX25Address("N7AKR")
        addr_b = AX25Address("KB7DZ")
        addr_c = AX25Address("KE7C")
        self.switch_b = _AddressSwitch()
        self.b = LapbEndpoint(self.sim, addr_b, self.switch_b,
                              t1=2 * SECOND, retries=2, window=2,
                              tracer=self.tracer)
        self.hub = CollidingHub(self.sim, self.tracer, "B", self.b)
        self.link_ab = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "A->B", latency=10 * MS,
                                  drop_budget=drop_budget)
        self.link_cb = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "C->B", latency=10 * MS, drop_budget=0)
        self.link_ba = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "B->A", latency=10 * MS, drop_budget=0)
        self.link_bc = ChoiceLink(self.sim, self.oracle, self.tracer,
                                  "B->C", latency=10 * MS, drop_budget=0)
        self.a = LapbEndpoint(self.sim, addr_a, self.link_ab,
                              t1=1 * SECOND, retries=2, window=2,
                              tracer=self.tracer)
        self.c = LapbEndpoint(self.sim, addr_c, self.link_cb,
                              t1=1 * SECOND + 500 * MS, retries=2, window=2,
                              tracer=self.tracer)
        self.link_ab.destination = self.hub
        self.link_cb.destination = self.hub
        self.link_ba.destination = self.a
        self.link_bc.destination = self.c
        self.switch_b.links = {"N7AKR": self.link_ba, "KE7C": self.link_bc}
        self.a.on_connect = self._a_connected
        self.c.on_connect = self._c_connected
        self.sent = {"A": False, "C": False}
        self.lapb_endpoints = [self.a, self.b, self.c]
        self.invariants = [LapbConservation(), NoStuckFsm(),
                           BoundedQueues(16)]
        self.sim.at(0, self._kickoff, label="kickoff")

    def _kickoff(self) -> None:
        self.a.connect(self.b.address)
        self.c.connect(self.b.address)

    def _a_connected(self, conn: LapbConnection, _initiated: bool) -> None:
        if not self.sent["A"]:
            self.sent["A"] = True
            conn.send(b"DATA-A")

    def _c_connected(self, conn: LapbConnection, _initiated: bool) -> None:
        if not self.sent["C"]:
            self.sent["C"] = True
            conn.send(b"DATA-C")

    def state_vector(self):
        return (
            self._endpoint_vector(self.a),
            self._endpoint_vector(self.b),
            self._endpoint_vector(self.c),
            self.hub.vector(),
            self.link_ab.vector(), self.link_cb.vector(),
            self.link_ba.vector(), self.link_bc.vector(),
            tuple(sorted(self.sent.items())),
            self._pending_vector(),
        )

    def resources(self, event: Event) -> frozenset:
        label = event.label
        if label.startswith("deliver "):
            src, dst = label[len("deliver "):].split("->")
            if dst == "B":
                # Into the hub: only the arrival buffer is touched.
                return frozenset(("hub:B",))
            return frozenset((f"ep:{dst}", f"link:{dst}->B"))
        if label.startswith("hub-flush"):
            return frozenset(("hub:B", "ep:B", "link:B->A", "link:B->C"))
        if label.startswith("lapb-t1 "):
            src, dst = label[len("lapb-t1 "):].split("->")
            side, peer = self._sides[src], self._sides[dst]
            return frozenset((f"ep:{side}", f"link:{side}->{peer}"))
        return ALL_RESOURCES

    def obligations(self) -> List[str]:
        return (_protocol_obligations("A", self.a)
                + _protocol_obligations("B", self.b)
                + _protocol_obligations("C", self.c))

    def queue_depths(self) -> Dict[str, int]:
        depths = {"hub.pending_rx": len(self.hub.pending_rx),
                  "sim.pending": len(self.sim.pending_events())}
        for side, endpoint in (("A", self.a), ("B", self.b), ("C", self.c)):
            for key, conn in endpoint.connections.items():
                depths[f"{side}->{key}.send_queue"] = len(conn.send_queue)
                depths[f"{side}->{key}.unacked"] = len(conn.unacked)
        return depths


class _AddressSwitch:
    """Routes a hub endpoint's outbound frames to the per-spoke link."""

    def __init__(self) -> None:
        self.links: Dict[str, ChoiceLink] = {}

    def __call__(self, frame: AX25Frame) -> None:
        link = self.links.get(str(frame.destination.base))
        if link is not None:
            link(frame)


class _Figure1World(World):
    """Shared plumbing for worlds built on the figure-1 radio testbed."""

    queue_bound = 64

    def __init__(self, fidelity: str = "frame") -> None:
        self.oracle = ChoiceOracle()
        self.testbed: Figure1Testbed = build_figure1_testbed(
            seed=0, fidelity=fidelity)
        self.sim = self.testbed.sim
        self.tracer = self.testbed.tracer
        self.drivers = [self.testbed.host.interface,
                        self.testbed.peer.interface]
        self.lapb_endpoints = []
        self.loss_budget = 0
        self._loss_draws = 0

    def enable_loss(self, budget: int) -> None:
        """Route channel corruption through the oracle, ``budget`` drops max."""
        self.loss_budget = budget
        self.testbed.channel.loss_gate = self._loss_gate

    def _loss_gate(self, payload: bytes, port_name: str) -> bool:
        if self.loss_budget <= 0:
            return True
        self._loss_draws += 1
        if self.oracle.choose(f"loss:{port_name}#{self._loss_draws}", 2) == 1:
            self.loss_budget -= 1
            self.tracer.log("check.drop", port_name,
                            "oracle faded frame at the receiver")
            return False
        return True

    # -- vector helpers over the full radio stack ---------------------

    def _tcp_vector(self, stack):
        conns = []
        protocol = stack.tcp
        for key, conn in sorted(protocol._connections.items()):
            conns.append((repr(key), self._tcp_conn_vector(conn)))
        for port, conn in sorted(protocol._listeners.items()):
            conns.append((f"listen:{port}", self._tcp_conn_vector(conn)))
        return (protocol._iss, protocol._ephemeral, tuple(conns))

    def _tcp_conn_vector(self, conn):
        return (
            conn.state.value, conn.snd_una, conn.snd_nxt, conn.snd_wnd,
            conn.rcv_nxt, conn.rcv_wnd, conn.iss, conn.irs,
            len(conn._send_buffer), conn._fin_queued, conn._fin_sent,
            tuple((entry.seq, len(entry.payload), entry.flags)
                  for entry in conn._unacked),
            tuple(sorted((seq, len(data))
                         for seq, data in conn._out_of_order.items())),
            conn._retry_count, conn._persist_shift, conn._dup_ack_count,
            conn.cwnd, conn.ssthresh,
            conn.rto_policy.srtt if hasattr(conn.rto_policy, "srtt") else 0,
        )

    def _host_vector(self, host):
        stack = host.stack
        radio = host.radio
        tnc = radio.tnc
        interface = radio.interface
        station = tnc.station
        return (
            len(stack.ip_input_queue),
            self._tcp_vector(stack),
            tuple(sorted((key, entry.hw_address,
                          entry.expires_at - self.sim.now)
                         for key, entry in interface.arp.cache.items())),
            tuple(sorted((key, len(pending.packets), pending.retries_left)
                         for key, pending in interface.arp._pending.items())),
            len(interface.send_queue),
            interface.rx_char_interrupts,
            interface._raw_discarding,
            radio.serial.a._tx_free_at - self.sim.now,
            radio.serial.b._tx_free_at - self.sim.now,
            tnc.wedged, tnc._rebooting,
            tuple(bytes(item) for item in station._queue),
            station._access_event is not None,
        )

    def _channel_vector(self):
        channel = self.testbed.channel
        now = self.sim.now
        return (
            tuple(sorted((tx.sender.name, tx.end - now)
                         for tx in channel.active)),
            tuple(sorted(channel.fade_probability.items())),
            self.loss_budget,
        )

    def _streams_vector(self):
        entries = []
        for name, rng in sorted(self.testbed.streams._streams.items()):
            words, gauss_next = pack_random(rng)
            entries.append((name, hashlib.sha256(words).hexdigest()[:16],
                            gauss_next))
        return tuple(entries)

    def queue_depths(self) -> Dict[str, int]:
        depths = {"sim.pending": len(self.sim.pending_events())}
        for host, tag in ((self.testbed.host, "host"),
                          (self.testbed.peer, "peer")):
            depths[f"{tag}.ipintrq"] = len(host.stack.ip_input_queue)
            depths[f"{tag}.if_snd"] = len(host.radio.interface.send_queue)
            depths[f"{tag}.station"] = len(host.radio.tnc.station._queue)
        return depths


class TcpXferWorld(_Figure1World):
    """A TCP transfer across the radio link under chosen loss.

    The paper's headline demo (TCP between radio hosts) driven through
    every loss placement the budget allows.  The state space is far
    beyond exhaustion -- serial timing fans out enormously -- so this
    world runs under explicit budgets; the properties are pure safety
    plus the terminal-state transfer obligation.
    """

    name = "tcpxfer"
    PAYLOAD = 300

    def __init__(self, loss_budget: int = 1) -> None:
        super().__init__(fidelity="frame")
        self.enable_loss(loss_budget)
        self.server_sockets: List[TcpSocket] = []
        self.client: Optional[TcpSocket] = None
        self.server = TcpServerSocket(self.testbed.peer.stack, 7,
                                      self._accept)
        self.invariants = [BoundedQueues(self.queue_bound),
                           ControlNeverShed()]
        self.sim.at(0, self._kickoff, label="kickoff")

    def _kickoff(self) -> None:
        self.client = TcpSocket.connect(self.testbed.host.stack,
                                        "44.24.0.5", 7)
        self.client.on_connect = self._client_connected

    def _client_connected(self) -> None:
        self.client.send(b"x" * self.PAYLOAD)
        self.client.close()

    def _accept(self, socket: TcpSocket) -> None:
        self.server_sockets.append(socket)

    def received_bytes(self) -> int:
        return sum(len(sock.recv_buffer) for sock in self.server_sockets)

    def state_vector(self):
        return (
            self._host_vector(self.testbed.host),
            self._host_vector(self.testbed.peer),
            self._channel_vector(),
            self._streams_vector(),
            tuple(len(sock.recv_buffer) for sock in self.server_sockets),
            self.client is not None,
            self._pending_vector(),
        )

    def obligations(self) -> List[str]:
        if self.received_bytes() < self.PAYLOAD:
            return [f"tcp transfer incomplete: "
                    f"{self.received_bytes()}/{self.PAYLOAD} bytes"]
        return []


class ShedWorld(_Figure1World):
    """Bulk UDP saturating the serial choke point, then a ping.

    The §4.1 graceful-degradation scenario as a safety world: with a
    tiny shed threshold the bulk datagrams overrun the backlog guard,
    and :class:`ControlNeverShed` asserts the ICMP echo is never among
    the shed frames -- under any schedule, which is what distinguishes
    the guard from a happy-path test of it.
    """

    name = "shedworld"

    def __init__(self, loss_budget: int = 0) -> None:
        super().__init__(fidelity="frame")
        if loss_budget:
            self.enable_loss(loss_budget)
        self.testbed.host.interface.shed_threshold_bytes = 120
        self.invariants = [BoundedQueues(self.queue_bound),
                           ControlNeverShed()]
        self.sim.at(0, self._kickoff, label="kickoff")

    def _kickoff(self) -> None:
        stack = self.testbed.host.stack
        for index in range(3):
            stack.udp_send("44.24.0.5", 4000 + index, 5000, b"b" * 160)
        stack.send_icmp(echo_request(ident=7, sequence=1, payload=b"hello"),
                        "44.24.0.5")

    def state_vector(self):
        return (
            self._host_vector(self.testbed.host),
            self._host_vector(self.testbed.peer),
            self._channel_vector(),
            self._streams_vector(),
            self._pending_vector(),
        )


#: name -> zero-argument world factory (the CLI preset registry).
WORLDS: Dict[str, Callable[[], World]] = {
    "lapb2": Lapb2World,
    "hidden3": Hidden3World,
    "tcpxfer": TcpXferWorld,
    "shedworld": ShedWorld,
}


def build_world(name: str) -> World:
    """Instantiate a preset world by name."""
    try:
        factory = WORLDS[name]
    except KeyError:
        raise ValueError(
            f"unknown world {name!r}; presets: {', '.join(sorted(WORLDS))}"
        ) from None
    return factory()
