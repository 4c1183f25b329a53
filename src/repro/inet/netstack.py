"""Per-host assembly of the IP stack ("Existing Ultrix Network Support").

One :class:`NetStack` per simulated host.  It owns the interface list,
the classful routing table, the IP input queue drained from a software
interrupt (exactly where the paper's driver enqueues incoming IP
packets), the forwarding engine with ICMP error generation, fragment
reassembly, and the UDP/TCP/ICMP demultiplexers.

Gateway-specific behaviour hooks in rather than subclasses:

* :attr:`NetStack.ip_forwarding` enables datagram forwarding;
* :attr:`NetStack.forward_filter` lets the §4.3 access-control table
  veto individual forwards;
* :attr:`NetStack.send_redirects` emits ICMP redirects when a packet
  leaves on the interface it arrived on (experiment E5's mechanism).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.inet import icmp as icmp_mod
from repro.inet.ip import (
    BROADCAST_IP,
    IPError,
    IPv4Address,
    IPv4Datagram,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Reassembler,
    fragment,
)
from repro.inet.routing import Route, RoutingTable
from repro.metrics.counters import CounterSet
from repro.inet.tcp import TcpProtocol, TcpSegment
from repro.inet.udp import UdpDatagram, UdpError
from repro.netif.ifnet import NetworkInterface
from repro.netif.loopback import LoopbackInterface
from repro.netif.queues import IfQueue, SoftNet
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


class NetStack:
    """The kernel network stack of one host."""

    def __init__(self, sim: Simulator, hostname: str,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.sim = sim
        self.hostname = hostname
        self.tracer = tracer
        self.interfaces: List[NetworkInterface] = []
        self.routes = RoutingTable()
        self.loopback = LoopbackInterface(sim)
        self._attach_common(self.loopback)
        self.tcp = TcpProtocol(self)
        self.reassembler = Reassembler()

        #: IP input queue fed by drivers, drained by soft interrupt.
        self.ip_input_queue: IfQueue[Tuple[bytes, NetworkInterface]] = IfQueue(
            name=f"{hostname}.ipintrq"
        )
        self._softnet = SoftNet(sim, self._drain_ip_input, name=f"{hostname}.softnet")

        self.ip_forwarding = False
        self.send_redirects = False
        #: When set, forwarding onto an interface whose output backlog
        #: exceeds this many bytes emits an ICMP source quench (RFC 792)
        #: back to the source.  None disables (the default).
        self.quench_threshold: Optional[int] = None
        #: Optional veto for forwarded datagrams:
        #: ``forward_filter(datagram, in_iface) -> bool`` (False = drop).
        self.forward_filter: Optional[
            Callable[[IPv4Datagram, NetworkInterface], bool]
        ] = None
        #: Listeners for raw ICMP messages: ``f(message, source)``.
        self.icmp_listeners: List[
            Callable[[icmp_mod.IcmpMessage, IPv4Address], None]
        ] = []
        self._udp_bindings: Dict[int, Callable[[UdpDatagram, IPv4Address], None]] = {}
        self._next_ident = 1
        self._udp_ephemeral = 2048

        #: Protocol event accounting.  A CounterSet (not a plain dict)
        #: so snapshot/delta windows work and reprolint SIM002 holds;
        #: pre-seeded so netstat renders the full table on a quiet host.
        self.counters = CounterSet((
            "ip_received", "ip_delivered", "ip_forwarded",
            "ip_forward_filtered", "ip_no_route", "ip_ttl_expired",
            "ip_bad", "icmp_received", "icmp_echo_replied",
            "redirects_sent", "redirects_followed", "quench_sent",
            "udp_received", "udp_no_port", "frags_sent",
            "ip_input_drops", "if_snd_drops", "if_output_sheds",
        ))
        # Queue overflow on the IP input queue must not die silently on
        # the queue object: mirror it into the protocol counters.
        # (Bound methods, not lambdas: these hooks live in sim state and
        # must survive a pickled snapshot -- SNAP001.)
        self.ip_input_queue.on_drop = self._count_ip_input_drop

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    # The three hook bodies below mirror queue/interface drops into the
    # stack counters; the paired observability emission happens at the
    # dropping component itself (queue on_drop / interface shed site).
    def _count_ip_input_drop(self) -> None:
        self.counters.bump("ip_input_drops")  # reprolint: disable=CONS001 -- hook body; the queue emits at its drop site

    def _count_if_snd_drop(self) -> None:
        self.counters.bump("if_snd_drops")  # reprolint: disable=CONS001 -- hook body; the queue emits at its drop site

    def _count_if_output_shed(self) -> None:
        self.counters.bump("if_output_sheds")  # reprolint: disable=CONS001 -- hook body; the driver emits at its shed site

    def _obs_born(self, datagram: IPv4Datagram) -> None:
        recorder = self.tracer.flight
        if recorder is not None:
            recorder.born_datagram(self.hostname, datagram)

    # ------------------------------------------------------------------
    # interface management
    # ------------------------------------------------------------------

    def attach_interface(self, interface: NetworkInterface,
                         address: "IPv4Address | str",
                         network_route: bool = True) -> None:
        """Configure and enable an interface (ifconfig)."""
        interface.address = IPv4Address.coerce(address)
        self._attach_common(interface)
        interface.if_init()
        if network_route:
            self.routes.add_network_route(interface.address.network, interface)

    def _attach_common(self, interface: NetworkInterface) -> None:
        interface.input_handler = self._interface_input
        # Mirror per-interface queue drops and backlog sheds into the
        # stack counters so netstat sees them host-wide.
        interface.send_queue.on_drop = self._count_if_snd_drop
        interface.on_shed = self._count_if_output_shed
        if interface not in self.interfaces:
            self.interfaces.append(interface)

    def interface_addresses(self) -> List[IPv4Address]:
        """Every configured interface address on this host."""
        return [iface.address for iface in self.interfaces if iface.address is not None]

    def is_local_address(self, address: IPv4Address) -> bool:
        """True when the address belongs to this host (or is broadcast)."""
        if address.is_broadcast:
            return True
        return any(
            iface.address is not None and iface.address.value == address.value
            for iface in self.interfaces
        )

    # ------------------------------------------------------------------
    # input path
    # ------------------------------------------------------------------

    def _interface_input(self, packet: bytes, interface: NetworkInterface,
                         protocol: str) -> None:
        """Driver hand-off in interrupt context: enqueue + soft interrupt."""
        if protocol != "ip":
            return
        recorder = self.tracer.flight
        if self.ip_input_queue.enqueue((packet, interface)):
            if recorder is not None:
                recorder.enter(packet, "ipintrq", self.hostname)
                recorder.instruments.gauge("ipintrq_depth").sample(
                    len(self.ip_input_queue))
            self._softnet.post()
        elif recorder is not None:
            recorder.drop(packet, "ipintrq", self.hostname, "ipintrq_full")

    def _drain_ip_input(self) -> None:
        while True:
            item = self.ip_input_queue.dequeue()
            if item is None:
                return
            packet, interface = item
            self._ip_input(packet, interface)

    def _ip_input(self, packet: bytes, interface: NetworkInterface) -> None:
        self.counters.bump("ip_received")
        recorder = self.tracer.flight
        try:
            datagram = IPv4Datagram.decode(packet)
        except IPError:
            self.counters.bump("ip_bad")
            if recorder is not None:
                recorder.drop(packet, "ip.rx", self.hostname, "bad_header")
            return
        self.tracer.log("ip.rx", self.hostname, str(datagram),
                        iface=interface.name)
        if recorder is not None:
            recorder.enter_key(self._obs_key(datagram), "ip.rx", self.hostname)
        if self.is_local_address(datagram.destination):
            self._deliver_local(datagram)
            return
        if self.ip_forwarding:
            self._forward(datagram, interface)
        else:
            self.counters.bump("ip_no_route")
            if recorder is not None:
                recorder.drop_key(self._obs_key(datagram), "ip.rx",
                                  self.hostname, "no_route")

    @staticmethod
    def _obs_key(datagram: IPv4Datagram) -> Tuple[int, int]:
        return (datagram.source.value, datagram.identification)

    def _deliver_local(self, datagram: IPv4Datagram) -> None:
        whole = self.reassembler.input(datagram, self.sim.now)
        if whole is None:
            return
        self.counters.bump("ip_delivered")
        recorder = self.tracer.flight
        if recorder is not None:
            recorder.deliver_key(self._obs_key(whole), self.hostname)
        if whole.protocol == PROTO_ICMP:
            self._icmp_input(whole)
        elif whole.protocol == PROTO_UDP:
            self._udp_input(whole)
        elif whole.protocol == PROTO_TCP:
            self.tcp.input(whole.payload, whole.source, whole.destination)
        # unknown protocols are silently dropped (no raw sockets here)

    # ------------------------------------------------------------------
    # forwarding (the gateway function)
    # ------------------------------------------------------------------

    def _forward(self, datagram: IPv4Datagram, in_iface: NetworkInterface) -> None:
        recorder = self.tracer.flight
        if self.forward_filter is not None and not self.forward_filter(datagram, in_iface):
            self.counters.bump("ip_forward_filtered")
            if recorder is not None:
                recorder.drop_key(self._obs_key(datagram), "ip.forward",
                                  self.hostname, "forward_filtered")
            return
        if datagram.ttl <= 1:
            self.counters.bump("ip_ttl_expired")
            if recorder is not None:
                recorder.drop_key(self._obs_key(datagram), "ip.forward",
                                  self.hostname, "ttl_expired")
            self._send_icmp(icmp_mod.time_exceeded(datagram), datagram.source)
            return
        route = self.routes.lookup(datagram.destination)
        if route is None:
            self.counters.bump("ip_no_route")
            if recorder is not None:
                recorder.drop_key(self._obs_key(datagram), "ip.forward",
                                  self.hostname, "no_route")
            self._send_icmp(
                icmp_mod.unreachable(icmp_mod.UNREACH_NET, datagram), datagram.source
            )
            return
        forwarded = datagram.decremented()
        self.counters.bump("ip_forwarded")
        if (self.quench_threshold is not None
                and route.interface.output_backlog > self.quench_threshold):
            self.counters.bump("quench_sent")
            self._send_icmp(icmp_mod.source_quench(datagram), datagram.source)
        self.tracer.log("ip.forward", self.hostname, str(forwarded),
                        via=route.interface.name)
        if recorder is not None:
            recorder.enter_key(self._obs_key(forwarded), "ip.forward",
                               self.hostname)
        if (
            self.send_redirects
            and route.interface is in_iface
            and route.gateway is not None
            and in_iface.address is not None
            and datagram.source.same_network(in_iface.address)
        ):
            # Packet leaves the way it came: the sender has a better first
            # hop.  Tell it (ICMP redirect), but forward this one anyway.
            self.counters.bump("redirects_sent")
            self._send_icmp(
                icmp_mod.redirect(route.gateway, datagram), datagram.source
            )
        self._transmit(forwarded, route)

    # ------------------------------------------------------------------
    # output path
    # ------------------------------------------------------------------

    def allocate_ident(self) -> int:
        """Next IP identification value."""
        self._next_ident = (self._next_ident + 1) & 0xFFFF
        return self._next_ident

    def source_address_for(self, route: Route) -> IPv4Address:
        """The source address to use for a given route."""
        if route.interface.address is not None:
            return route.interface.address
        addresses = self.interface_addresses()
        if not addresses:
            raise IPError(f"{self.hostname} has no configured address")
        return addresses[0]

    def ip_output(self, destination: "IPv4Address | str", protocol: int,
                  payload: bytes, source: Optional[IPv4Address] = None,
                  ttl: int = 30, dont_fragment: bool = False,
                  interface: Optional[NetworkInterface] = None) -> bool:
        """Build and route one datagram from this host.

        ``interface`` forces output onto one interface, bypassing the
        routing table -- required for link broadcasts (RIP, and any
        other 255.255.255.255 traffic, is per-interface by nature).
        """
        destination = IPv4Address.coerce(destination)
        if interface is not None:
            datagram = IPv4Datagram(
                source=source or interface.address,
                destination=destination,
                protocol=protocol, payload=payload, ttl=ttl,
                identification=self.allocate_ident(),
            )
            self._obs_born(datagram)
            return interface.if_output(datagram.encode(), destination)
        if self.is_local_address(destination):
            datagram = IPv4Datagram(
                source=source or destination, destination=destination,
                protocol=protocol, payload=payload, ttl=ttl,
                identification=self.allocate_ident(),
            )
            self._obs_born(datagram)
            self.loopback.if_output(datagram.encode(), destination)
            return True
        route = self.routes.lookup(destination)
        if route is None:
            self.counters.bump("ip_no_route")
            # The datagram was never built, so no span was born to
            # terminate; the tracer carries the pre-span loss (CONS001).
            self.tracer.log("ip.drop", self.hostname,
                            f"no route to {destination}")
            return False
        datagram = IPv4Datagram(
            source=source or self.source_address_for(route),
            destination=destination,
            protocol=protocol,
            payload=payload,
            ttl=ttl,
            identification=self.allocate_ident(),
            dont_fragment=dont_fragment,
        )
        self._obs_born(datagram)
        self.tracer.log("ip.tx", self.hostname, str(datagram),
                        via=route.interface.name)
        return self._transmit(datagram, route)

    def _transmit(self, datagram: IPv4Datagram, route: Route) -> bool:
        next_hop = route.gateway if route.gateway is not None else datagram.destination
        try:
            pieces = fragment(datagram, route.interface.mtu)
        except IPError:
            self._send_icmp(
                icmp_mod.unreachable(icmp_mod.UNREACH_NEEDFRAG, datagram),
                datagram.source,
            )
            return False
        if len(pieces) > 1:
            self.counters.bump("frags_sent", len(pieces))
        ok = True
        for piece in pieces:
            if not route.interface.if_output(piece.encode(), next_hop):
                ok = False
        if not ok:
            recorder = self.tracer.flight
            if recorder is not None:
                recorder.drop_key(self._obs_key(datagram), "driver.tx",
                                  self.hostname, "if_output_failed")
        return ok

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------

    def _send_icmp(self, message: icmp_mod.IcmpMessage,
                   destination: IPv4Address) -> None:
        if destination.is_broadcast:
            return
        self.ip_output(destination, PROTO_ICMP, message.encode())

    def send_icmp(self, message: icmp_mod.IcmpMessage,
                  destination: "IPv4Address | str") -> None:
        """Public ICMP send (ping, access-control control messages)."""
        self._send_icmp(message, IPv4Address.coerce(destination))

    def _icmp_input(self, datagram: IPv4Datagram) -> None:
        self.counters.bump("icmp_received")
        try:
            message = icmp_mod.IcmpMessage.decode(datagram.payload)
        except icmp_mod.IcmpError:
            return
        if message.icmp_type == icmp_mod.ICMP_ECHO_REQUEST:
            self.counters.bump("icmp_echo_replied")
            self._send_icmp(icmp_mod.echo_reply(message), datagram.source)
        elif message.icmp_type == icmp_mod.ICMP_REDIRECT:
            self._handle_redirect(message)
        elif message.icmp_type == icmp_mod.ICMP_SOURCE_QUENCH:
            target = icmp_mod.quoted_destination(message)
            if target is not None:
                self.tcp.handle_source_quench(message.body, target)
        for listener in self.icmp_listeners:
            listener(message, datagram.source)

    def _handle_redirect(self, message: icmp_mod.IcmpMessage) -> None:
        """Install a host route toward the advertised better gateway."""
        target = icmp_mod.quoted_destination(message)
        if target is None:
            return
        gateway = icmp_mod.redirect_gateway(message)
        route = self.routes.lookup(gateway)
        if route is None:
            return
        self.counters.bump("redirects_followed")
        self.routes.add_host_route(target, route.interface, gateway)

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------

    def udp_bind(self, port: int,
                 handler: Callable[[UdpDatagram, IPv4Address], None]) -> None:
        """Bind a handler to a UDP port."""
        if port in self._udp_bindings:
            raise ValueError(f"UDP port {port} already bound on {self.hostname}")
        self._udp_bindings[port] = handler

    def udp_unbind(self, port: int) -> None:
        """Release a UDP port binding."""
        self._udp_bindings.pop(port, None)

    def udp_allocate_port(self) -> int:
        """Next ephemeral UDP port."""
        self._udp_ephemeral += 1
        return self._udp_ephemeral

    def udp_broadcast(self, interface: NetworkInterface,
                      destination_port: int, source_port: int,
                      payload: bytes) -> bool:
        """Send a UDP datagram to 255.255.255.255 out one interface."""
        if interface.address is None:
            return False
        udp = UdpDatagram(source_port, destination_port, payload)
        return self.ip_output(
            BROADCAST_IP, PROTO_UDP,
            udp.encode(interface.address, BROADCAST_IP),
            source=interface.address, ttl=1, interface=interface,
        )

    def udp_send(self, destination: "IPv4Address | str", destination_port: int,
                 source_port: int, payload: bytes) -> bool:
        """Send one UDP datagram (routed normally)."""
        destination = IPv4Address.coerce(destination)
        route = self.routes.lookup(destination)
        if route is None and not self.is_local_address(destination):
            return False
        source = (
            destination if self.is_local_address(destination)
            else self.source_address_for(route)
        )
        udp = UdpDatagram(source_port, destination_port, payload)
        return self.ip_output(
            destination, PROTO_UDP, udp.encode(source, destination), source=source
        )

    def _udp_input(self, datagram: IPv4Datagram) -> None:
        try:
            udp = UdpDatagram.decode(
                datagram.payload, datagram.source, datagram.destination
            )
        except UdpError:
            return
        self.counters.bump("udp_received")
        handler = self._udp_bindings.get(udp.destination_port)
        if handler is None:
            self.counters.bump("udp_no_port")
            self._send_icmp(
                icmp_mod.unreachable(icmp_mod.UNREACH_PORT, datagram),
                datagram.source,
            )
            return
        handler(udp, datagram.source)

    # ------------------------------------------------------------------
    # TCP plumbing
    # ------------------------------------------------------------------

    def send_tcp_segment(self, segment: TcpSegment,
                         destination: IPv4Address) -> None:
        """Encapsulate and route one TCP segment."""
        source: Optional[IPv4Address]
        if self.is_local_address(destination):
            source = destination
        else:
            route = self.routes.lookup(destination)
            if route is None:
                return
            source = self.source_address_for(route)
        self.ip_output(
            destination, PROTO_TCP, segment.encode(source, destination),
            source=source,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetStack {self.hostname} ifaces={[i.name for i in self.interfaces]}>"
