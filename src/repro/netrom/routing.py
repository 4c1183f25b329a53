"""NET/ROM nodes: route learning and datagram forwarding.

A node owns one radio port per backbone link (NET/ROM backbones are
point-to-point links on *separate* frequencies -- that is what makes
them better than same-frequency digipeater chains).  Nodes periodically
broadcast their routing table in NODES frames; receivers derive route
quality as ``neighbour_quality * path_quality / 256`` (the classic
NET/ROM formula) and keep the best route per destination.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.ax25.address import AX25Address, is_broadcast
from repro.ax25.defs import PID_NETROM
from repro.ax25.frames import AX25Frame, FrameError, FrameType
from repro.netrom.protocol import (
    NODES_SIGNATURE,
    NetRomError,
    NetRomPacket,
    NodesBroadcast,
    NodesEntry,
)
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

#: Default initial TTL for originated datagrams.
DEFAULT_TTL = 16
#: Quality assigned to a direct neighbour link.
NEIGHBOUR_QUALITY = 255
#: Routes below this derived quality are not used or re-advertised.
MIN_QUALITY = 10
#: NODES broadcast interval (real NET/ROM used ~30 min; scaled down).
DEFAULT_BROADCAST_INTERVAL = 60 * SECOND


@dataclass
class NetRomRoute:
    """Best known route to one destination node."""

    destination: AX25Address
    alias: str
    neighbour: AX25Address
    quality: int
    learned_at: int


@dataclass
class _Port:
    station: RadioStation
    #: Neighbour callsigns reachable out this port.
    neighbours: Dict[str, int]


class NetRomNode:
    """One NET/ROM node (a hilltop box with one radio per link)."""

    def __init__(
        self,
        sim: Simulator,
        callsign: "AX25Address | str",
        alias: str,
        tracer: Tracer = NULL_TRACER,
        broadcast_interval: int = DEFAULT_BROADCAST_INTERVAL,
    ) -> None:
        self.sim = sim
        self.callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.alias = alias.upper()[:6]
        self.tracer = tracer
        self.broadcast_interval = broadcast_interval
        self._ports: List[_Port] = []
        self.routes: Dict[str, NetRomRoute] = {}
        #: local protocol handlers: proto byte -> f(payload, origin)
        self.protocols: Dict[int, Callable[[bytes, AX25Address], None]] = {}

        self.datagrams_originated = 0
        self.datagrams_forwarded = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.nodes_broadcasts_sent = 0
        self.nodes_broadcasts_received = 0
        self._broadcast_scheduled = False
        #: Hook for non-NET/ROM frames heard on the user port (terminal
        #: users connecting to the node's callsign over plain AX.25);
        #: installed by :class:`repro.netrom.nodeshell.NodeShell`.
        self.on_user_frame: Optional[Callable[[AX25Frame], None]] = None

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------

    def add_port(self, channel: RadioChannel, modem: Optional[ModemProfile] = None,
                 csma: Optional[CsmaParameters] = None) -> RadioStation:
        """Attach a radio on ``channel`` (one per backbone link)."""
        index = len(self._ports)
        station = RadioStation(
            self.sim,
            channel,
            f"{self.callsign}#{index}",
            modem=modem,
            csma=csma,
            on_frame=partial(self._from_air, port_index=index),
        )
        self._ports.append(_Port(station=station, neighbours={}))
        return station

    def add_neighbour(self, port_index: int, callsign: "AX25Address | str",
                      quality: int = NEIGHBOUR_QUALITY) -> None:
        """Statically declare a neighbour node out a given port."""
        callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self._ports[port_index].neighbours[str(callsign)] = quality
        # A neighbour is trivially a destination too.
        self._update_route(callsign, callsign.callsign, callsign, quality)

    def start_broadcasting(self) -> None:
        """Begin periodic NODES broadcasts.

        Each node staggers its schedule by a deterministic per-callsign
        offset so that co-channel nodes do not key up in lockstep and
        collide every interval.
        """
        if not self._broadcast_scheduled:
            self._broadcast_scheduled = True
            self.sim.schedule(self._stagger(), self._broadcast_tick,
                              label=f"netrom-nodes {self.callsign}")

    def _stagger(self) -> int:
        digest = hashlib.sha256(str(self.callsign).encode()).digest()
        return int.from_bytes(digest[:4], "big") % (5 * SECOND)

    # ------------------------------------------------------------------
    # datagram service
    # ------------------------------------------------------------------

    def send(self, destination: "AX25Address | str", protocol: int,
             payload: bytes, ttl: int = DEFAULT_TTL) -> bool:
        """Originate a datagram into the node network."""
        destination = (
            destination if isinstance(destination, AX25Address)
            else AX25Address.parse(destination)
        )
        packet = NetRomPacket(self.callsign, destination, ttl, protocol, payload)
        self.datagrams_originated += 1
        return self._route_packet(packet)

    def bind_protocol(self, protocol: int,
                      handler: Callable[[bytes, AX25Address], None]) -> None:
        """Register a handler for a protocol discriminator."""
        self.protocols[protocol] = handler

    # ------------------------------------------------------------------
    # forwarding machinery
    # ------------------------------------------------------------------

    def _route_packet(self, packet: NetRomPacket) -> bool:
        if packet.destination.matches(self.callsign):
            self._deliver(packet)
            return True
        if packet.ttl <= 0:
            self.datagrams_dropped += 1
            return False
        route = self.routes.get(str(packet.destination))
        if route is None or route.quality < MIN_QUALITY:
            self.datagrams_dropped += 1
            self.tracer.log("netrom.noroute", str(self.callsign),
                            str(packet.destination))
            return False
        port = self._port_for_neighbour(route.neighbour)
        if port is None:
            self.datagrams_dropped += 1
            return False
        frame = AX25Frame.ui(
            route.neighbour, self.callsign, PID_NETROM, packet.encode()
        )
        port.station.send_frame(frame.encode())
        return True

    def _port_for_neighbour(self, neighbour: AX25Address) -> Optional[_Port]:
        key = str(neighbour)
        for port in self._ports:
            if key in port.neighbours:
                return port
        return None

    def _deliver(self, packet: NetRomPacket) -> None:
        self.datagrams_delivered += 1
        handler = self.protocols.get(packet.protocol)
        if handler is not None:
            handler(packet.payload, packet.origin)
        else:
            self.tracer.log("netrom.unbound", str(self.callsign),
                            f"proto=0x{packet.protocol:02x}")

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _from_air(self, payload: bytes, port_index: int) -> None:
        try:
            frame = AX25Frame.decode(payload)
        except FrameError:
            return
        if frame.frame_type is not FrameType.UI or frame.pid != PID_NETROM:
            if self.on_user_frame is not None:
                self.on_user_frame(frame)
            return
        for_me = frame.destination.matches(self.callsign)
        broadcast = is_broadcast(frame.destination) or frame.destination.callsign == "NODES"
        if not (for_me or broadcast):
            return
        if frame.info and frame.info[0] == NODES_SIGNATURE:
            self._nodes_input(frame.info, frame.source, port_index)
            return
        try:
            packet = NetRomPacket.decode(frame.info)
        except NetRomError:
            return
        if packet.destination.matches(self.callsign):
            self._deliver(packet)
            return
        self.datagrams_forwarded += 1
        self._route_packet(packet.decremented())

    # ------------------------------------------------------------------
    # NODES gossip
    # ------------------------------------------------------------------

    def _broadcast_tick(self) -> None:
        self._send_nodes_broadcast()
        self.sim.schedule(self.broadcast_interval, self._broadcast_tick,
                          label=f"netrom-nodes {self.callsign}")

    def _send_nodes_broadcast(self) -> None:
        # Sorted on the destination callsign so NODES wire order is a
        # protocol property, not gossip-arrival order (DETFLOW002).
        entries = tuple(
            NodesEntry(route.destination, route.alias, route.neighbour, route.quality)
            for route in sorted(self.routes.values(),
                                key=lambda r: str(r.destination))
            if route.quality >= MIN_QUALITY
        )
        broadcast = NodesBroadcast(self.alias, entries)
        frame = AX25Frame.ui(
            AX25Address("NODES"), self.callsign, PID_NETROM, broadcast.encode()
        )
        self.nodes_broadcasts_sent += 1
        for port in self._ports:
            port.station.send_frame(frame.encode())

    def _nodes_input(self, data: bytes, sender: AX25Address,
                     port_index: int) -> None:
        try:
            broadcast = NodesBroadcast.decode(data)
        except NetRomError:
            return
        self.nodes_broadcasts_received += 1
        port = self._ports[port_index]
        neighbour_quality = port.neighbours.get(str(sender))
        if neighbour_quality is None:
            # Hearing a broadcast makes the sender a neighbour.
            neighbour_quality = NEIGHBOUR_QUALITY
            port.neighbours[str(sender)] = neighbour_quality
        self._update_route(sender, broadcast.sender_alias, sender, neighbour_quality)
        for entry in broadcast.entries:
            if entry.destination.matches(self.callsign):
                continue
            derived = neighbour_quality * entry.quality // 256
            self._update_route(entry.destination, entry.alias, sender, derived)

    def _update_route(self, destination: AX25Address, alias: str,
                      neighbour: AX25Address, quality: int) -> None:
        if quality < MIN_QUALITY:
            return
        key = str(destination)
        existing = self.routes.get(key)
        refresh = (
            existing is not None
            and quality == existing.quality
            and neighbour.matches(existing.neighbour)
        )
        if existing is None or quality > existing.quality or refresh:
            self.routes[key] = NetRomRoute(
                destination=destination.base,
                alias=alias,
                neighbour=neighbour.base,
                quality=quality,
                learned_at=self.sim.now,
            )
            self.tracer.log("netrom.route", str(self.callsign),
                            f"{destination} via {neighbour} q={quality}")
