"""Canonical testbeds from the paper.

* :func:`build_figure1_testbed` -- Figure 1: Radio--TNC--RS-232--Host,
  with a peer station on the channel to talk to.
* :func:`build_gateway_testbed` -- the §2.3 demo: the MicroVAX gateway
  on the department Ethernet, an Ethernet host, and an isolated PC on
  the radio channel ("connected to only a power outlet and a radio").
* :func:`build_two_coast_internet` -- the §4.2 problem: one class-A
  route for AMPRnet forces east-coast traffic through the west-coast
  gateway; optional regional host routes / ICMP redirects fix it.
* :func:`build_digipeater_chain` -- a linear chain of digipeaters for
  ablation A2 (throughput vs hop count on one frequency).
* :func:`synthesize_stations` -- grow any radio channel from the
  paper's hand-placed hosts to an N-station population (used by the
  workload layer to scale scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ax25.address import AX25Path
from repro.core.hosts import (
    GatewayHost,
    PcHost,
    make_ethernet_host,
    make_gateway,
    make_radio_host,
)
from repro.ethernet.lan import EthernetLan
from repro.inet.netstack import NetStack
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import NULL_TRACER, Tracer
from repro.tnc.digipeater import Digipeater


@dataclass
class Figure1Testbed:
    """Figure 1 plus one peer station."""

    sim: Simulator
    streams: RandomStreams
    tracer: Tracer
    channel: RadioChannel
    host: PcHost          # the MicroVAX end of Figure 1
    peer: PcHost          # another station on the frequency


def build_figure1_testbed(
    seed: int = 0,
    bit_rate: int = 1200,
    serial_baud: int = 9600,
    sim: Optional[Simulator] = None,
    fidelity: str = "per_char",
) -> Figure1Testbed:
    """One radio host and one peer on a shared channel.

    ``sim`` lets a caller supply the engine -- the SimSanitizer passes an
    :class:`~repro.sim.sanitizer.OrderShuffleSimulator` here so the same
    seeded build runs under a perturbed equal-time tie-break.
    ``fidelity`` selects the serial delivery granularity for every host
    (see :mod:`repro.serialio.line`).
    """
    sim = sim if sim is not None else Simulator()
    streams = RandomStreams(seed=seed)
    tracer = Tracer(sim)
    channel = RadioChannel(sim, streams, tracer=tracer)
    modem = ModemProfile(bit_rate=bit_rate)
    host = make_radio_host(
        sim, channel, "microvax", "N7AKR", "44.24.0.28",
        tracer=tracer, modem=modem, serial_baud=serial_baud,
        fidelity=fidelity,
    )
    peer = make_radio_host(
        sim, channel, "pc1", "KB7DZ", "44.24.0.5",
        tracer=tracer, modem=modem, serial_baud=serial_baud,
        fidelity=fidelity,
    )
    return Figure1Testbed(sim, streams, tracer, channel, host, peer)


@dataclass
class GatewayTestbed:
    """The §2.3 demonstration network."""

    sim: Simulator
    streams: RandomStreams
    tracer: Tracer
    lan: EthernetLan
    channel: RadioChannel
    gateway: GatewayHost
    ether_host: NetStack   # the system "that was on our Ethernet"
    pc: PcHost             # the isolated IBM PC

    GATEWAY_RADIO_IP = "44.24.0.28"   # the paper's actual address
    GATEWAY_ETHER_IP = "128.95.1.1"
    ETHER_HOST_IP = "128.95.1.2"
    PC_IP = "44.24.0.5"


def build_gateway_testbed(
    seed: int = 0,
    bit_rate: int = 1200,
    serial_baud: int = 9600,
    tnc_address_filter: bool = False,
    csma: Optional[CsmaParameters] = None,
    sim: Optional[Simulator] = None,
    fidelity: str = "per_char",
) -> GatewayTestbed:
    """Gateway + Ethernet host + isolated radio PC, routes configured.

    ``sim`` lets a caller supply the engine and ``fidelity`` the serial
    delivery granularity (see :func:`build_figure1_testbed`).
    """
    sim = sim if sim is not None else Simulator()
    streams = RandomStreams(seed=seed)
    tracer = Tracer(sim)
    lan = EthernetLan(sim, tracer=tracer)
    channel = RadioChannel(sim, streams, tracer=tracer)
    modem = ModemProfile(bit_rate=bit_rate)

    gateway = make_gateway(
        sim, lan, channel, "microvax", "NT7GW",
        ether_ip=GatewayTestbed.GATEWAY_ETHER_IP,
        radio_ip=GatewayTestbed.GATEWAY_RADIO_IP,
        mac_index=1, tracer=tracer, modem=modem,
        serial_baud=serial_baud, tnc_address_filter=tnc_address_filter,
        csma=csma, fidelity=fidelity,
    )
    ether_host = make_ethernet_host(
        sim, lan, "wally", GatewayTestbed.ETHER_HOST_IP, mac_index=2, tracer=tracer
    )
    # "The routing table of another system on our Ethernet was modified so
    # it knew that 44.24.0.28 was the address of a gateway to net 44."
    ether_host.routes.add_network_route(
        "44.0.0.0", ether_host.interfaces[-1],
        gateway=GatewayTestbed.GATEWAY_ETHER_IP,
    )
    pc = make_radio_host(
        sim, channel, "ibmpc", "KB7DZ", GatewayTestbed.PC_IP,
        tracer=tracer, modem=modem, serial_baud=serial_baud,
        tnc_address_filter=tnc_address_filter, csma=csma,
        fidelity=fidelity,
    )
    pc.stack.routes.set_default(
        pc.interface, GatewayTestbed.GATEWAY_RADIO_IP
    )
    return GatewayTestbed(sim, streams, tracer, lan, channel, gateway,
                          ether_host, pc)


@dataclass
class TwoCoastInternet:
    """The §4.2 routing problem in miniature.

    A backbone Ethernet carries an Internet host plus the west- and
    east-coast gateways.  Each gateway fronts its own radio subnet of
    net 44 (44.24/Seattle, 44.56/east coast).  The Internet host has the
    era's single classful route: all of net 44 via the *west* gateway.
    """

    sim: Simulator
    streams: RandomStreams
    tracer: Tracer
    backbone: EthernetLan
    west_channel: RadioChannel
    east_channel: RadioChannel
    internet_host: NetStack
    west_gateway: GatewayHost
    east_gateway: GatewayHost
    west_station: PcHost
    east_station: PcHost

    INTERNET_HOST_IP = "192.12.33.2"
    WEST_GW_BACKBONE_IP = "192.12.33.10"
    EAST_GW_BACKBONE_IP = "192.12.33.20"
    WEST_GW_RADIO_IP = "44.24.0.28"
    EAST_GW_RADIO_IP = "44.56.0.28"
    WEST_STATION_IP = "44.24.0.5"
    EAST_STATION_IP = "44.56.0.5"


def build_two_coast_internet(
    seed: int = 0,
    bit_rate: int = 1200,
    send_redirects: bool = False,
    regional_routes_at_host: bool = False,
) -> TwoCoastInternet:
    """Build the §4.2 topology.

    ``regional_routes_at_host`` models the fix the paper wishes for: the
    Internet host knows 44.56 destinations go east directly.
    ``send_redirects`` instead lets the west gateway correct the host on
    the fly ("something like this could be handled using ICMP").
    """
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    tracer = Tracer(sim)
    backbone = EthernetLan(sim, tracer=tracer)
    west_channel = RadioChannel(sim, streams, tracer=tracer, name="seattle-145.01")
    east_channel = RadioChannel(sim, streams, tracer=tracer, name="eastcoast-145.01")
    modem = ModemProfile(bit_rate=bit_rate)
    T = TwoCoastInternet

    west_gateway = make_gateway(
        sim, backbone, west_channel, "west-gw", "NT7GW",
        ether_ip=T.WEST_GW_BACKBONE_IP, radio_ip=T.WEST_GW_RADIO_IP,
        mac_index=10, tracer=tracer, modem=modem,
    )
    east_gateway = make_gateway(
        sim, backbone, east_channel, "east-gw", "WB2GW",
        ether_ip=T.EAST_GW_BACKBONE_IP, radio_ip=T.EAST_GW_RADIO_IP,
        mac_index=20, tracer=tracer, modem=modem,
    )
    internet_host = make_ethernet_host(
        sim, backbone, "internet-host", T.INTERNET_HOST_IP, mac_index=2,
        tracer=tracer,
    )

    # The single classful route of §4.2: everything in net 44 goes west.
    internet_host.routes.add_network_route(
        "44.0.0.0", internet_host.interfaces[-1], gateway=T.WEST_GW_BACKBONE_IP
    )
    if regional_routes_at_host:
        internet_host.routes.add_host_route(
            T.EAST_STATION_IP, internet_host.interfaces[-1],
            gateway=T.EAST_GW_BACKBONE_IP,
        )
        internet_host.routes.add_host_route(
            T.EAST_GW_RADIO_IP, internet_host.interfaces[-1],
            gateway=T.EAST_GW_BACKBONE_IP,
        )

    # Each gateway knows the other coast's subnet lives across the
    # backbone.  (Net 44 is directly attached at both, so these must be
    # host routes -- precisely the §4.2 pain.)
    for station_ip, other_gw in (
        (T.EAST_STATION_IP, T.EAST_GW_BACKBONE_IP),
        (T.EAST_GW_RADIO_IP, T.EAST_GW_BACKBONE_IP),
    ):
        west_gateway.stack.routes.add_host_route(
            station_ip, west_gateway.ether, gateway=other_gw
        )
    for station_ip, other_gw in (
        (T.WEST_STATION_IP, T.WEST_GW_BACKBONE_IP),
        (T.WEST_GW_RADIO_IP, T.WEST_GW_BACKBONE_IP),
    ):
        east_gateway.stack.routes.add_host_route(
            station_ip, east_gateway.ether, gateway=other_gw
        )
    west_gateway.stack.send_redirects = send_redirects
    east_gateway.stack.send_redirects = send_redirects

    west_station = make_radio_host(
        sim, west_channel, "w7abc", "W7ABC", T.WEST_STATION_IP,
        tracer=tracer, modem=modem,
    )
    west_station.stack.routes.set_default(west_station.interface, T.WEST_GW_RADIO_IP)
    east_station = make_radio_host(
        sim, east_channel, "k2xyz", "K2XYZ", T.EAST_STATION_IP,
        tracer=tracer, modem=modem,
    )
    east_station.stack.routes.set_default(east_station.interface, T.EAST_GW_RADIO_IP)

    return TwoCoastInternet(
        sim, streams, tracer, backbone, west_channel, east_channel,
        internet_host, west_gateway, east_gateway, west_station, east_station,
    )


def synthesize_stations(
    sim: Simulator,
    channel: RadioChannel,
    count: int,
    tracer: Tracer = NULL_TRACER,
    modem: Optional[ModemProfile] = None,
    serial_baud: int = 9600,
    csma: Optional[CsmaParameters] = None,
    default_gateway: Optional[str] = None,
    callsign_prefix: str = "WL",
    subnet: str = "44.24",
    start_index: int = 0,
    fidelity: str = "per_char",
) -> List[PcHost]:
    """Mass-produce IP-speaking radio stations on an existing channel.

    The canonical testbeds place the paper's two or three hand-named
    hosts; this grows the population to ``count`` additional stations
    with generated callsigns (``WL0``, ``WL1``, ...) and addresses from
    ``subnet``.3-octet space starting at ``.1.1`` (clear of the .0.x
    addresses the canonical testbeds use).  When ``default_gateway`` is
    given, every station routes off-subnet traffic through it -- the
    §2.3 "isolated PC" configuration, N times over.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    stations: List[PcHost] = []
    for offset in range(count):
        index = start_index + offset
        if index >= 200 * 250:
            raise ValueError("station index exhausts the subnet")
        callsign = f"{callsign_prefix}{index}"
        if len(callsign) > 6:
            raise ValueError(f"callsign {callsign!r} exceeds 6 characters")
        ip = f"{subnet}.{1 + index // 200}.{1 + index % 200}"
        host = make_radio_host(
            sim, channel, f"sta{index}", callsign, ip,
            tracer=tracer, modem=modem, serial_baud=serial_baud, csma=csma,
            fidelity=fidelity,
        )
        if default_gateway is not None:
            host.stack.routes.set_default(host.interface, default_gateway)
        stations.append(host)
    return stations


@dataclass
class DigipeaterChain:
    """A linear source-route chain: src -- d1 -- ... -- dn -- dst."""

    sim: Simulator
    streams: RandomStreams
    tracer: Tracer
    channel: RadioChannel
    source: PcHost
    destination: PcHost
    digipeaters: List[Digipeater]
    path: AX25Path


def build_digipeater_chain(
    hops: int,
    seed: int = 0,
    bit_rate: int = 1200,
) -> DigipeaterChain:
    """Build a chain where consecutive stations only hear each other.

    ``hops`` digipeaters sit between source and destination; the source
    route through all of them is pre-installed in the source's AX.25
    ARP entry for the destination.
    """
    if not 0 <= hops <= 8:
        raise ValueError("AX.25 allows 0..8 digipeaters")
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    tracer = Tracer(sim)
    channel = RadioChannel(sim, streams, tracer=tracer)
    modem = ModemProfile(bit_rate=bit_rate)

    source = make_radio_host(
        sim, channel, "src", "W7SRC", "44.24.0.2", tracer=tracer, modem=modem
    )
    destination = make_radio_host(
        sim, channel, "dst", "W7DST", "44.24.0.3", tracer=tracer, modem=modem
    )
    digipeaters = [
        Digipeater(sim, channel, f"WB7R-{index + 1}", modem=modem, tracer=tracer)
        for index in range(hops)
    ]
    # Propagation: linear chain only.
    names = (
        [str(source.callsign)]
        + [str(digi.callsign) for digi in digipeaters]
        + [str(destination.callsign)]
    )
    channel.use_explicit_links()
    for left, right in zip(names, names[1:]):
        channel.add_link(left, right)

    path = AX25Path.of(*(str(digi.callsign) for digi in digipeaters))
    source.interface.add_arp_entry("44.24.0.3", "W7DST", path)
    destination.interface.add_arp_entry("44.24.0.2", "W7SRC", path.reversed())
    return DigipeaterChain(
        sim, streams, tracer, channel, source, destination, digipeaters, path
    )
