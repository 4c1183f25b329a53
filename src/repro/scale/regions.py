"""Regional partitioning of a radio internetwork.

The paper's network is one frequency; a metro-scale reproduction is
many frequencies, one per *region*, joined by gateways with a wireline
(or point-to-point radio) link between them -- exactly the §4.2
structure where each regional gateway must hold **host routes** for the
other coasts, because all of AMPRnet is one class-A network and the
classful table cannot say "44.24 goes west, 44.25 goes east".

A :class:`ScaleLayout` describes the whole partitioned world as pure
data; :func:`build_region` materialises *one* region -- its own
:class:`~repro.sim.engine.Simulator`, seeded streams, channel, a
forwarding gateway, foreground stations at the configured fidelity, an
optional :class:`~repro.scale.flow.FlowStationCloud` of background
stations, and a :class:`RegionGatewayLink` carrying inter-region
packets.  Each region's seed is derived from the layout seed and the
region index alone, so a region is byte-identical no matter which
worker process builds it (the shard-invariance property the runner
gates on).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.hosts import PcHost, make_radio_host
from repro.core.topology import synthesize_stations
from repro.faults import FaultInjector, FaultPlan
from repro.netif.ifnet import InterfaceFlags, NetworkInterface
from repro.obs.pcap import PcapWriter
from repro.obs.spans import FlightRecorder, SpanContext
from repro.radio.channel import RadioChannel
from repro.scale.flow import FlowStationCloud
from repro.serialio.line import validate_line_fidelity
from repro.sim.clock import MS, seconds
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import NULL_TRACER, Tracer
from repro.tools.axdump import ChannelMonitor
from repro.workload.arrivals import make_arrivals
from repro.workload.generators import PingGenerator, load_metrics

#: Second octet of region 0's subnet (the paper's 44.24 Seattle space);
#: region ``r`` lives in ``44.(24 + r)``.
REGION_SUBNET_BASE = 24

#: Default one-way latency of the inter-region gateway link, which is
#: also the conservative synchronisation lookahead of the shard runner.
DEFAULT_LINK_LATENCY = 250 * MS

#: Mean Poisson rate of each foreground station's cross-region pings.
PING_RATE_PER_MINUTE = 4.0

#: Ident base for foreground pingers: layout-stable so digests do not
#: depend on how many Pinger objects a worker process created before.
_PING_IDENT_BASE = 0x5000


@dataclass(frozen=True)
class ScaleLayout:
    """A partitioned, mixed-fidelity world as pure data.

    Every derived quantity (region seeds, addresses, callsigns) is a
    pure function of this value, which is what makes the sharded run a
    pure function of (layout, seed) regardless of worker count.  The
    modem, serial line, ping payload and flow cloud keep their own
    components' defaults.
    """

    regions: int = 2
    stations_per_region: int = 2
    flow_stations: int = 0
    fidelity: str = "frame"
    duration_seconds: float = 60.0
    #: Extra windows after the load stops, so in-flight replies land.
    drain_seconds: float = 30.0
    seed: int = 0
    link_latency: int = DEFAULT_LINK_LATENCY
    #: Applied to region 0 only (the shard protocol keeps the other
    #: regions' RNG streams untouched either way).
    fault_plan: Optional[FaultPlan] = None
    #: Attach a per-region FlightRecorder (trace ids salted by region,
    #: spans handed off across the inter-region link).  Part of the
    #: layout on purpose: observing is a property of the *world*, so
    #: every worker count builds the identical instrumented world.
    observe: bool = False
    #: Attach a per-region ChannelMonitor writing a pcap capture.
    capture: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.regions <= 200:
            raise ValueError("regions must be in 1..200")
        if self.stations_per_region < 1:
            raise ValueError("each region needs at least one station")
        if self.flow_stations < 0:
            raise ValueError("flow_stations must be non-negative")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.link_latency <= 0:
            raise ValueError("link latency must be positive")
        validate_line_fidelity(self.fidelity)

    # -- derived addressing (pure functions of the layout) --------------

    def gateway_ip(self, region: int) -> str:
        """The regional gateway's radio-side address."""
        return f"44.{REGION_SUBNET_BASE + region}.0.28"

    def link_ip(self, region: int) -> str:
        """The regional gateway's inter-region link address."""
        return f"10.42.{region}.1"

    def station_ip(self, region: int, index: int) -> str:
        """Foreground station addresses (matches synthesize_stations)."""
        return (f"44.{REGION_SUBNET_BASE + region}"
                f".{1 + index // 200}.{1 + index % 200}")

    def station_ips(self, region: int) -> List[str]:
        """All foreground station addresses of one region."""
        return [self.station_ip(region, index)
                for index in range(self.stations_per_region)]

    def flow_share(self, region: int) -> int:
        """How many flow-level stations this region models."""
        base = self.flow_stations // self.regions
        extra = 1 if region < self.flow_stations % self.regions else 0
        return base + extra

    def ip_to_region(self) -> Dict[str, int]:
        """Destination address -> owning region, for message routing."""
        table: Dict[str, int] = {}
        for region in range(self.regions):
            table[self.gateway_ip(region)] = region
            table[self.link_ip(region)] = region
            for address in self.station_ips(region):
                table[address] = region
        return table


def derive_region_seed(seed: int, region: int) -> int:
    """The seed of one region's RandomStreams: pure, layout-independent."""
    digest = hashlib.sha256(f"{seed}/region/{region}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Region index occupies the bits above this shift in a trace id, so
#: pkt_ids are globally unique across shards (region 0 allocates the
#: same ids a single-simulator run would).
TRACE_REGION_SHIFT = 40


def region_trace_base(region: int) -> int:
    """The trace-id salt of one region's FlightRecorder."""
    return region << TRACE_REGION_SHIFT


class RegionGatewayLink(NetworkInterface):
    """The inter-region point-to-point link, shard-runner flavoured.

    ``if_output`` does not model transmission locally: it stamps the
    packet with (send time, sequence) and parks it in an outbox the
    shard runner drains at every window barrier.  The runner applies the
    link latency when it injects the packet into the destination
    region's twin interface -- that latency *is* the conservative
    lookahead, which is why a window never needs to see a message from
    its own window.

    When the region is observed (``layout.observe``), each departing
    packet's span is handed off: the local :class:`FlightRecorder`
    closes it in the ``handed_off`` state and the compact span context
    rides the outbox entry; :meth:`inject` re-binds it in the
    destination region, so the merged trace reads straight across the
    shard boundary.
    """

    def __init__(self, sim: Simulator, region: int, name: str = "irl0",
                 mtu: int = 1500,
                 recorder: Optional[FlightRecorder] = None) -> None:
        super().__init__(
            sim, name, mtu,
            flags=(InterfaceFlags.UP | InterfaceFlags.POINTOPOINT
                   | InterfaceFlags.NOARP),
        )
        self.region = region
        self.recorder = recorder
        self._outbox: List[tuple] = []
        self._seq = 0

    def if_output(self, packet: bytes, next_hop, protocol: str = "ip") -> bool:
        if not self.is_up:
            self.oerrors += 1
            return False
        self._seq += 1
        context: Optional[SpanContext] = None
        if self.recorder is not None:
            context = self.recorder.handoff(packet, "gateway.tx", self.name)
        self._outbox.append(
            (self.sim.now, self._seq, str(next_hop), bytes(packet), context))
        self.count_output(packet)
        return True

    def inject(self, packet: bytes,
               context: Optional[SpanContext] = None) -> None:
        """Deliver one packet arriving from another region."""
        if context is not None and self.recorder is not None:
            self.recorder.adopt(context, "gateway.rx", self.name)
        self.deliver_input(bytes(packet), "ip")

    def drain_outbox(self) -> List[tuple]:
        """Take every parked (send_time, seq, next_hop, packet, context)
        entries."""
        outbox = self._outbox
        self._outbox = []
        return outbox


@dataclass
class Region:
    """One materialised region: a self-contained simulation."""

    index: int
    layout: ScaleLayout
    sim: Simulator
    streams: RandomStreams
    channel: RadioChannel
    gateway: PcHost
    link: RegionGatewayLink
    stations: List[PcHost]
    generators: List[PingGenerator]
    flow: Optional[FlowStationCloud] = None
    injector: Optional[FaultInjector] = None
    extra_routes: int = field(default=0)
    tracer: Tracer = NULL_TRACER
    recorder: Optional[FlightRecorder] = None
    monitor: Optional[ChannelMonitor] = None


def build_region(layout: ScaleLayout, index: int) -> Region:
    """Materialise region ``index`` of ``layout`` and start its load.

    The result is byte-identical regardless of which process calls this:
    all randomness comes from the region's derived seed, and the
    foreground pingers' ICMP idents are fixed from (region, station)
    rather than from a process-wide allocation counter.  An observed
    layout gives the region its own tracer and flight recorder; any
    other region runs untraced on :data:`~repro.sim.trace.NULL_TRACER`.
    """
    if not 0 <= index < layout.regions:
        raise ValueError(f"region {index} outside layout of {layout.regions}")
    sim = Simulator()
    streams = RandomStreams(seed=derive_region_seed(layout.seed, index))
    tracer: Tracer = NULL_TRACER
    recorder: Optional[FlightRecorder] = None
    if layout.observe:
        tracer = Tracer(sim)
        recorder = FlightRecorder(tracer,
                                  trace_base=region_trace_base(index))
    channel = RadioChannel(sim, streams, tracer=tracer,
                           name=f"region{index}-145.01")
    monitor: Optional[ChannelMonitor] = None
    if layout.capture:
        monitor = ChannelMonitor(channel, name=f"MON{index}",
                                 pcap=PcapWriter())
    gateway = make_radio_host(
        sim, channel, f"rgw{index}", f"GW{index}", layout.gateway_ip(index),
        tracer=tracer, fidelity=layout.fidelity,
    )
    gateway.stack.ip_forwarding = True
    link = RegionGatewayLink(sim, index, recorder=recorder)
    gateway.stack.attach_interface(link, layout.link_ip(index),
                                   network_route=False)
    # §4.2 in code: net 44 is directly attached here, so every remote
    # region needs explicit HOST routes through the inter-region link.
    extra_routes = 0
    for other in range(layout.regions):
        if other == index:
            continue
        gateway.stack.routes.add_host_route(layout.gateway_ip(other), link)
        extra_routes += 1
        for address in layout.station_ips(other):
            gateway.stack.routes.add_host_route(address, link)
            extra_routes += 1

    stations = synthesize_stations(
        sim, channel, layout.stations_per_region,
        tracer=tracer, default_gateway=layout.gateway_ip(index),
        subnet=f"44.{REGION_SUBNET_BASE + index}",
        fidelity=layout.fidelity,
    )
    # The stations suffer the same classful blindness: net 44 looks
    # directly attached, so without host routes a remote gateway's
    # address would be ARPed for on the local channel and never answer.
    for host in stations:
        for other in range(layout.regions):
            if other != index:
                host.stack.routes.add_host_route(
                    layout.gateway_ip(other), host.interface,
                    gateway=layout.gateway_ip(index))
                extra_routes += 1

    duration = seconds(layout.duration_seconds)
    target = layout.gateway_ip((index + 1) % layout.regions)
    generators: List[PingGenerator] = []
    for position, host in enumerate(stations):
        arrivals = make_arrivals(
            "poisson", streams.stream(f"scale/ping/{position}"),
            PING_RATE_PER_MINUTE)
        generator = PingGenerator(sim, host.stack, target, arrivals,
                                  duration=duration)
        # Layout-stable ident: the class-level allocator depends on how
        # many Pingers this *process* made before, which would differ
        # between worker layouts and leak into on-air bytes.
        generator.pinger.ident = (
            _PING_IDENT_BASE + index * 256 + position)
        generators.append(generator)

    flow: Optional[FlowStationCloud] = None
    share = layout.flow_share(index)
    if share > 0:
        flow = FlowStationCloud(
            sim, channel, streams, name=f"R{index}",
            stations=share, duration=duration,
        )

    injector: Optional[FaultInjector] = None
    if index == 0 and layout.fault_plan is not None:
        attachments: Dict[str, object] = {"gateway": gateway.radio}
        interfaces: Dict[str, NetworkInterface] = {
            "gateway": gateway.interface}
        for host in stations:
            attachments[str(host.callsign)] = host.radio
            interfaces[str(host.callsign)] = host.interface
        injector = FaultInjector(sim, streams)
        injector.install(layout.fault_plan, channel=channel,
                         attachments=attachments, interfaces=interfaces)

    for generator in generators:
        generator.start()
    if flow is not None:
        flow.start()
    return Region(
        index=index, layout=layout, sim=sim, streams=streams,
        channel=channel, gateway=gateway, link=link, stations=stations,
        generators=generators, flow=flow, injector=injector,
        extra_routes=extra_routes, tracer=tracer, recorder=recorder,
        monitor=monitor,
    )


def region_metrics(region: Region) -> Dict[str, float]:
    """One region's flat end-of-run metrics (all picklable floats)."""
    channel = region.channel
    out = load_metrics(region.generators, channel)
    if region.flow is not None:
        out.update(region.flow.metrics())
    out["gateway_ip_forwarded"] = float(
        region.gateway.stack.counters["ip_forwarded"])
    out["link_packets_out"] = float(region.link.opackets)
    out["link_packets_in"] = float(region.link.ipackets)
    if region.injector is not None:
        out["faults_injected"] = float(region.injector.faults_injected)
        out["faults_cleared"] = float(region.injector.faults_cleared)
        out["channel_frames_faded"] = float(channel.frames_faded)
    if region.recorder is not None:
        for key, value in region.recorder.finalize_metrics().items():
            out[f"obs_{key}"] = float(value)
    if region.monitor is not None:
        out["monitor_frames_heard"] = float(region.monitor.frames_heard)
    out["events_executed"] = float(region.sim.events_executed)
    return out


def region_dump(region: Region) -> Dict[str, object]:
    """One region's full picklable end-of-run dump.

    ``metrics`` is always present; ``spans`` (the recorder's compact
    span export, for cross-region trace merging) and ``pcap`` (the
    monitor's capture bytes) appear when the layout enabled them.
    Metrics come first so the recorder is finalized before export.
    """
    dump: Dict[str, object] = {"metrics": region_metrics(region)}
    if region.recorder is not None:
        dump["spans"] = region.recorder.export_spans()
    if region.monitor is not None and region.monitor.pcap is not None:
        dump["pcap"] = region.monitor.pcap.getvalue()
    return dump

