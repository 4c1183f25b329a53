"""Declarative workload scenarios over the canonical testbeds.

A :class:`Scenario` is a value object: topology name, station count,
generator mix, duration, seed.  :func:`build_scenario` turns it into a
live simulation -- it builds the named testbed from
:mod:`repro.core.topology`, synthesizes the station population, wires
one traffic generator per station according to the mix, and parks
sinks (UDP sink, TCP discard, a BBS for terminal users) on the far
side.  :func:`run_scenario` runs it and returns a flat metrics dict.

Populations are mixed on purpose: the paper's channel carried IP users
(KA9Q PCs), legacy AX.25 chatter, and terminal users on BBSs all at
once, and the §3 slowdown only shows up when the traffic that is *not*
for you shares the frequency with the traffic that is.

Same seed, same scenario => identical offered load and identical
end-of-run metrics; the experiment harness leans on this when it fans
seeds across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.bbs import BulletinBoard
from repro.ax25.address import AX25Address
from repro.ax25.defs import PID_NO_L3
from repro.ax25.frames import AX25Frame
from repro.ax25.lapb import AdaptiveLinkTimer, FixedLinkTimer
from repro.core.hosts import TerminalStation
from repro.core.topology import (
    build_figure1_testbed,
    build_gateway_testbed,
    synthesize_stations,
)
from repro.faults import FaultInjector, FaultPlan
from repro.inet.tcp import AdaptiveRto, FixedRto, NoCongestion, PacedRate, Reno
from repro.obs.spans import FlightRecorder
from repro.obs.timeseries import TimeSeries
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.scale.flow import FlowStationCloud
from repro.serialio.line import validate_line_fidelity
from repro.sim.clock import seconds
from repro.sim.sanitizer import OrderShuffleSimulator, SimSanitizer
from repro.workload.arrivals import make_arrivals
from repro.workload.generators import (
    BbsTerminalGenerator,
    DiscardServer,
    PingGenerator,
    TcpTransferGenerator,
    TrafficGenerator,
    UdpBlastGenerator,
    UdpSink,
    UiChatterGenerator,
    load_metrics,
)

#: Topology names accepted by :class:`Scenario`.
TOPOLOGIES = ("gateway", "figure1")

#: Generator kinds accepted in a :class:`GeneratorMix`.
GENERATOR_KINDS = ("ping", "udp", "tcp", "chatter", "bbs")

#: Recovery-policy names accepted by :class:`Scenario` (the tournament
#: axes).  Each maps to a zero-argument factory; the factories are
#: installed as the per-stack defaults so every connection a scenario
#: opens -- including server-side spawns -- runs the named policy.
TCP_RTO_POLICIES = {"fixed": FixedRto, "adaptive": AdaptiveRto}
TCP_CC_POLICIES = {"none": NoCongestion, "reno": Reno, "paced": PacedRate}
LAPB_TIMER_POLICIES = {"fixed": FixedLinkTimer, "adaptive": AdaptiveLinkTimer}


@dataclass(frozen=True)
class GeneratorMix:
    """One component of a traffic mix.

    ``fraction`` is the share of the station population running this
    generator; fractions are normalised over the whole mix, so
    ``(GeneratorMix("ping", 1), GeneratorMix("chatter", 3))`` puts a
    quarter of the stations on ping and the rest on chatter.
    """

    kind: str
    fraction: float = 1.0
    arrivals: str = "poisson"
    rate_per_minute: float = 6.0
    payload_bytes: int = 64

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.fraction <= 0:
            raise ValueError("fraction must be positive")


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible workload description."""

    name: str = "scenario"
    topology: str = "gateway"
    stations: int = 10
    duration_seconds: float = 300.0
    mix: Tuple[GeneratorMix, ...] = (GeneratorMix("ping"),)
    seed: int = 0
    bit_rate: int = 1200
    serial_baud: int = 9600
    tnc_address_filter: bool = False
    #: Chaos extensions: a declarative fault schedule, the driver
    #: watchdog, and the graceful-degradation shed threshold.  All off
    #: by default so existing scenarios keep their metric sets.
    fault_plan: Optional[FaultPlan] = None
    watchdog: bool = False
    shed_threshold_bytes: Optional[int] = None
    #: Attach a packet flight recorder (repro.obs) to the shared tracer;
    #: adds ``obs_*`` span-conservation and latency metrics to results,
    #: and a TimeSeries of instrument snapshots at the TimeSeries default
    #: cadence (only snapshot counts enter the metric dict; the sampled
    #: values feed ``report --timeline``).
    observe: bool = False
    #: Attach the runtime SimSanitizer (repro.sim.sanitizer): live span
    #: conservation checks plus a stale-span census at the end of the
    #: run.  Implies a flight recorder; adds ``sanitizer_*`` metrics.
    sanitize: bool = False
    #: Run on an OrderShuffleSimulator with this salt: equal-timestamp
    #: events registered in different instants are reordered by a salted
    #: hash instead of FIFO.  Order-independent models produce identical
    #: metrics (minus event-queue bookkeeping) for every salt.
    order_salt: Optional[int] = None
    #: Serial delivery granularity for every host: ``"per_char"`` (the
    #: byte-faithful default) or ``"frame"`` (one event per KISS record;
    #: digest-equal on fault-free lines -- see :mod:`repro.scale`).
    fidelity: str = "per_char"
    #: Flow-level background stations: an analytic
    #: :class:`~repro.scale.flow.FlowStationCloud` sharing the channel
    #: at the cloud's default per-station rate.  A multi-region world is
    #: a :class:`~repro.scale.regions.ScaleLayout`, not a Scenario.
    flow_stations: int = 0
    #: Recovery policies (the tournament axes): RTO estimation and
    #: congestion control for every TCP endpoint in the scenario, and
    #: the T1 timer policy for every LAPB link (BBS + terminal TNCs).
    #: Defaults match the pre-tournament behaviour of the testbeds.
    tcp_rto: str = "adaptive"
    tcp_cc: str = "reno"
    lapb_timer: str = "fixed"

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.tcp_rto not in TCP_RTO_POLICIES:
            raise ValueError(f"unknown tcp_rto policy {self.tcp_rto!r}")
        if self.tcp_cc not in TCP_CC_POLICIES:
            raise ValueError(f"unknown tcp_cc policy {self.tcp_cc!r}")
        if self.lapb_timer not in LAPB_TIMER_POLICIES:
            raise ValueError(f"unknown lapb_timer policy {self.lapb_timer!r}")
        if self.stations < 1:
            raise ValueError("a scenario needs at least one station")
        if not self.mix:
            raise ValueError("a scenario needs a non-empty mix")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.flow_stations < 0:
            raise ValueError("flow_stations must be non-negative")
        validate_line_fidelity(self.fidelity)

    def station_allocation(self) -> List[GeneratorMix]:
        """Which mix component each of the N stations runs.

        Largest-remainder allocation over normalised fractions; always
        sums to exactly ``stations`` and is a pure function of the spec.
        """
        total = sum(component.fraction for component in self.mix)
        exact = [self.stations * c.fraction / total for c in self.mix]
        counts = [int(value) for value in exact]
        remainders = sorted(
            range(len(self.mix)),
            key=lambda i: (exact[i] - counts[i], -i),
            reverse=True,
        )
        for i in range(self.stations - sum(counts)):
            counts[remainders[i % len(self.mix)]] += 1
        allocation: List[GeneratorMix] = []
        for component, count in zip(self.mix, counts):
            allocation.extend([component] * count)
        return allocation


@dataclass
class ScenarioRun:
    """A built (but not yet run) scenario: live testbed + generators."""

    scenario: Scenario
    testbed: object
    target_ip: str
    generators: List[TrafficGenerator]
    udp_sink: Optional[UdpSink] = None
    discard: Optional[DiscardServer] = None
    bbs: Optional[BulletinBoard] = None
    extra_stations: List[object] = field(default_factory=list)
    injector: Optional[FaultInjector] = None
    watchdog: Optional[object] = None  # TncWatchdog when enabled
    recorder: Optional[object] = None  # FlightRecorder when observe=True
    sanitizer: Optional[SimSanitizer] = None  # when sanitize=True
    flow_cloud: Optional[FlowStationCloud] = None  # when flow_stations>0
    timeseries: Optional[TimeSeries] = None  # when observe=True

    @property
    def sim(self):
        """The simulator of the underlying testbed."""
        return self.testbed.sim

    def run(self) -> Dict[str, float]:
        """Run for the scenario's duration and return the metrics."""
        for generator in self.generators:
            generator.start()
        if self.flow_cloud is not None:
            self.flow_cloud.start()
        self.sim.run(until=self.sim.now
                     + seconds(self.scenario.duration_seconds))
        return self.results()

    def results(self) -> Dict[str, float]:
        """Aggregate generator, sink and channel metrics, flat."""
        channel = self.testbed.channel
        out = load_metrics(self.generators, channel)
        if self.udp_sink is not None:
            out["udp_sink_datagrams"] = float(self.udp_sink.datagrams)
            out["udp_sink_bytes"] = float(self.udp_sink.bytes)
        if self.discard is not None:
            out["tcp_sink_connections"] = float(self.discard.connections)
            out["tcp_sink_bytes"] = float(self.discard.bytes)
        if self.flow_cloud is not None:
            out.update(self.flow_cloud.metrics())
        gateway = getattr(self.testbed, "gateway", None)
        if gateway is not None:
            out["gateway_ip_forwarded"] = float(
                gateway.stack.counters["ip_forwarded"])
            # The §3 observables: what the promiscuous TNC costs the
            # host side (and what the proposed filter saves).
            out["gateway_serial_bytes_to_host"] = float(
                gateway.radio.serial.b.bytes_sent)
            out["gateway_tnc_frames_to_host"] = float(
                gateway.radio.tnc.frames_to_host)
            out["gateway_tnc_frames_filtered"] = float(
                gateway.radio.tnc.frames_filtered)
            out["gateway_driver_discards"] = float(
                gateway.radio_interface.frames_not_for_us)
        # Chaos metrics only exist when chaos was asked for, so the
        # metric sets of pre-existing scenarios are unchanged.
        if self.injector is not None:
            out["faults_injected"] = float(self.injector.faults_injected)
            out["faults_cleared"] = float(self.injector.faults_cleared)
            out["fault_bytes_corrupted"] = float(self.injector.bytes_corrupted)
            out["fault_bytes_dropped"] = float(self.injector.bytes_dropped)
            out["fault_garbage_bytes"] = float(self.injector.garbage_bytes)
            out["channel_frames_faded"] = float(channel.frames_faded)
        if self.watchdog is not None:
            out["watchdog_resets_issued"] = float(self.watchdog.resets_issued)
            out["watchdog_recoveries"] = float(self.watchdog.recoveries)
            out["watchdog_last_recovery_s"] = (
                self.watchdog.last_recovery_us / float(seconds(1)))
        if gateway is not None and (self.injector is not None
                                    or self.watchdog is not None):
            out["gateway_tnc_resets"] = float(gateway.radio.tnc.resets)
            out["gateway_tnc_wedged_drops"] = float(
                gateway.radio.tnc.wedged_drops)
            out["gateway_driver_sheds"] = float(
                gateway.radio_interface.osheds)
            out["gateway_raw_overflow_drops"] = float(
                gateway.radio_interface.raw_overflow_drops)
            out["gateway_serial_rx_faulted"] = float(
                gateway.radio.serial.a.rx_faulted)
            out["gateway_ip_input_drops"] = float(
                gateway.stack.counters["ip_input_drops"])
            out["gateway_if_snd_drops"] = float(
                gateway.stack.counters["if_snd_drops"])
        # Span/instrument metrics only exist when observe=True, so the
        # metric sets of pre-existing scenarios are unchanged.
        if self.recorder is not None:
            for key, value in self.recorder.finalize_metrics().items():
                out[f"obs_{key}"] = float(value)
        if self.timeseries is not None:
            for key, value in self.timeseries.metrics().items():
                out[f"obs_{key}"] = float(value)
        if self.sanitizer is not None:
            out.update(self.sanitizer.finalize_metrics())
        out["events_executed"] = float(self.sim.events_executed)
        return out


def build_scenario(scenario: Scenario) -> ScenarioRun:
    """Materialise a :class:`Scenario` into a live simulation."""
    modem = ModemProfile(bit_rate=scenario.bit_rate)
    engine = (OrderShuffleSimulator(scenario.order_salt)
              if scenario.order_salt is not None else None)
    if scenario.topology == "gateway":
        testbed = build_gateway_testbed(
            seed=scenario.seed, bit_rate=scenario.bit_rate,
            serial_baud=scenario.serial_baud,
            tnc_address_filter=scenario.tnc_address_filter,
            sim=engine,
            fidelity=scenario.fidelity,
        )
        target_stack = testbed.ether_host
        target_ip = testbed.ETHER_HOST_IP
        default_gateway: Optional[str] = testbed.GATEWAY_RADIO_IP
    else:  # figure1
        testbed = build_figure1_testbed(
            seed=scenario.seed, bit_rate=scenario.bit_rate,
            serial_baud=scenario.serial_baud,
            sim=engine,
            fidelity=scenario.fidelity,
        )
        target_stack = testbed.peer.stack
        target_ip = "44.24.0.5"
        default_gateway = None

    sim = testbed.sim
    streams = testbed.streams
    allocation = scenario.station_allocation()
    run = ScenarioRun(scenario=scenario, testbed=testbed,
                      target_ip=target_ip, generators=[])

    ip_kinds = [m for m in allocation if m.kind in ("ping", "udp", "tcp")]
    hosts = synthesize_stations(
        sim, testbed.channel, len(ip_kinds), tracer=testbed.tracer,
        modem=modem, serial_baud=scenario.serial_baud,
        default_gateway=default_gateway,
        fidelity=scenario.fidelity,
    )
    # Install the scenario's recovery policies as the per-stack defaults
    # before any generator opens a connection.  Listeners resolve their
    # factories lazily, so server-side spawns pick these up too.
    rto_factory = TCP_RTO_POLICIES[scenario.tcp_rto]
    cc_factory = TCP_CC_POLICIES[scenario.tcp_cc]
    lapb_timer_factory = LAPB_TIMER_POLICIES[scenario.lapb_timer]
    gateway_host = getattr(testbed, "gateway", None)
    if gateway_host is not None:
        stacks = [gateway_host.stack, testbed.ether_host, testbed.pc.stack]
    else:
        stacks = [testbed.host.stack, testbed.peer.stack]
    for stack in stacks + [host.stack for host in hosts]:
        stack.tcp.default_rto_factory = rto_factory
        stack.tcp.default_cc_factory = cc_factory
    if scenario.flow_stations > 0:
        run.flow_cloud = FlowStationCloud(
            sim, testbed.channel, streams,
            stations=scenario.flow_stations, modem=modem, duration=seconds(scenario.duration_seconds),
        )
    if any(m.kind == "udp" for m in allocation):
        run.udp_sink = UdpSink(target_stack)
    if any(m.kind == "tcp" for m in allocation):
        run.discard = DiscardServer(target_stack)
    if any(m.kind == "bbs" for m in allocation):
        run.bbs = BulletinBoard(sim, testbed.channel, "W0RLI",
                                tracer=testbed.tracer,
                                timer_policy=lapb_timer_factory)

    duration = seconds(scenario.duration_seconds)
    host_iter = iter(hosts)
    # Chatter stations ragchew in pairs (CH2 -> CH5, CH5 -> CH2, ...):
    # third-party traffic the gateway's TNC hears but that is not for
    # it -- exactly the load §3 says swamps the promiscuous firmware.
    # (Broadcast QST frames would legitimately pass the §3 filter.)
    chatter_indices = [i for i, c in enumerate(allocation)
                       if c.kind == "chatter"]
    chatter_peer_of = {}
    for position, index in enumerate(chatter_indices):
        partner = position + 1 if position % 2 == 0 else position - 1
        if partner >= len(chatter_indices):
            partner = 0 if len(chatter_indices) > 1 else position
        chatter_peer_of[index] = f"CH{chatter_indices[partner]}"
    for index, component in enumerate(allocation):
        rng = streams.stream(f"workload/{component.kind}/{index}")
        arrivals = make_arrivals(component.arrivals, rng,
                                 component.rate_per_minute)
        generator: TrafficGenerator
        if component.kind in ("ping", "udp", "tcp"):
            host = next(host_iter)
            if component.kind == "ping":
                generator = PingGenerator(
                    sim, host.stack, target_ip, arrivals,
                    payload_size=component.payload_bytes, duration=duration,
                )
            elif component.kind == "udp":
                generator = UdpBlastGenerator(
                    sim, host.stack, target_ip, arrivals,
                    payload_bytes=component.payload_bytes, duration=duration,
                )
            else:
                generator = TcpTransferGenerator(
                    sim, host.stack, target_ip, arrivals,
                    transfer_bytes=max(256, component.payload_bytes),
                    duration=duration,
                )
        elif component.kind == "chatter":
            callsign = f"CH{index}"
            station = RadioStation(sim, testbed.channel, callsign,
                                   modem=modem)
            frame = AX25Frame.ui(
                AX25Address.parse(chatter_peer_of[index]),
                AX25Address.parse(callsign), PID_NO_L3,
                b"\x2a" * component.payload_bytes,
            ).encode()
            generator = UiChatterGenerator(sim, station, frame, arrivals,
                                           duration=duration)
            run.extra_stations.append(station)
        else:  # bbs
            terminal = TerminalStation(sim, testbed.channel, f"KT{index}",
                                       tracer=testbed.tracer,
                                       timer_policy=lapb_timer_factory)
            generator = BbsTerminalGenerator(
                sim, terminal, "W0RLI", arrivals,
                rng=streams.stream(f"workload/bbs-think/{index}"),
                duration=duration,
            )
            run.extra_stations.append(terminal)
        run.generators.append(generator)

    # -- chaos wiring ---------------------------------------------------
    # "gateway" always names the hub host (the MicroVAX in either
    # topology); synthesized stations are addressed by callsign.
    primary = gateway_host.radio if gateway_host is not None else testbed.host.radio
    if scenario.observe or scenario.sanitize:
        recorder = FlightRecorder(testbed.tracer)
        run.recorder = recorder
        # Sample the host->TNC serial backlog (the §4.1 choke point)
        # whenever the hub's driver writes to the line.
        backlog_gauge = recorder.instruments.gauge("gateway_serial_backlog")
        primary.serial.a.on_backlog_sample = backlog_gauge.sample
        if scenario.observe:
            run.timeseries = TimeSeries(sim, recorder.summary)
            run.timeseries.start()
        if scenario.sanitize:
            run.sanitizer = SimSanitizer(sim, recorder)
            run.sanitizer.start()
    if scenario.shed_threshold_bytes is not None:
        primary.interface.shed_threshold_bytes = scenario.shed_threshold_bytes
    if scenario.watchdog:
        run.watchdog = primary.interface.start_watchdog(streams)
    if scenario.fault_plan is not None:
        attachments = {"gateway": primary}
        interfaces = {"gateway": primary.interface}
        for host in hosts:
            attachments[str(host.callsign)] = host.radio
            interfaces[str(host.callsign)] = host.interface
        run.injector = FaultInjector(sim, streams, tracer=testbed.tracer)
        run.injector.install(scenario.fault_plan, channel=testbed.channel,
                             attachments=attachments, interfaces=interfaces)
    return run


def run_scenario(scenario: Scenario) -> Dict[str, float]:
    """Build and run a scenario; the one-call entry point."""
    return build_scenario(scenario).run()
