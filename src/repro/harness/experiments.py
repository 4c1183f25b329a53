"""The registry of named, sweepable experiments.

Each experiment is a module-level function ``fn(seed=..., **params) ->
Dict[str, float]`` (module-level so ``multiprocessing`` workers can
import it), plus a default parameter grid and seed count.  The E3 and
A3 experiments are the paper benchmarks, re-based onto the workload
generators so their offered load is a seeded arrival process rather
than a hand-rolled timer loop; ``soak`` exercises the declarative
scenario layer at population scale; ``sanitize`` runs the dynamic
ordering and conservation checks.  ``chaos``, ``obs`` and
``tournament`` are the experiments the CLI gates sweep, so their
``BENCH_<name>.json`` belongs to the gate, not to ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.apps.ping import Pinger
from repro.ax25.address import AX25Address
from repro.ax25.defs import PID_NO_L3
from repro.ax25.frames import AX25Frame
from repro.core.topology import build_gateway_testbed
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.sim.clock import MS, SECOND
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.faults import chaos_plan, tournament_plan
from repro.harness.results import comparable_metrics
from repro.workload.arrivals import BurstArrivals, PoissonArrivals
from repro.workload.generators import UiChatterGenerator
from repro.workload.scenario import (
    GeneratorMix,
    Scenario,
    build_scenario,
    run_scenario,
)

# ----------------------------------------------------------------------
# E3 -- §3: gateway under background channel load (workload-driven)
# ----------------------------------------------------------------------

#: Payload of one ragchew UI frame (what the §3 chatter looks like).
CHATTER_PAYLOAD = b"ragchew " * 12


def add_chatter_pair(
    sim: Simulator,
    channel: RadioChannel,
    streams: RandomStreams,
    frames_per_minute: float,
    bit_rate: int = 1200,
) -> Tuple[UiChatterGenerator, ...]:
    """Two stations exchanging Poisson UI chatter not meant for anyone else.

    Each station offers ``frames_per_minute`` on average, the same mean
    load as the old fixed-interval loop but with memoryless arrivals --
    so clumps and gaps now exercise the gateway's queues realistically.
    """
    if frames_per_minute <= 0:
        return ()
    modem = ModemProfile(bit_rate=bit_rate)
    generators = []
    pair = (("W7CHAT-1", AX25Address("W7CHAT", 2)),
            ("W7CHAT-2", AX25Address("W7CHAT", 1)))
    for name, peer in pair:
        station = RadioStation(sim, channel, name, modem=modem)
        frame = AX25Frame.ui(peer, AX25Address.parse(name), PID_NO_L3,
                             CHATTER_PAYLOAD).encode()
        arrivals = PoissonArrivals(
            streams.stream(f"workload/chatter/{name}"),
            frames_per_minute / 60.0,
        )
        generators.append(UiChatterGenerator(sim, station, frame, arrivals))
    return tuple(generators)


def run_e3(
    seed: int = 30,
    load_frames_per_minute: float = 30,
    address_filter: bool = False,
    measure_seconds: int = 600,
) -> Dict[str, float]:
    """One E3 condition: ping through the gateway under channel chatter."""
    tb = build_gateway_testbed(seed=seed, tnc_address_filter=address_filter)
    chatter = add_chatter_pair(tb.sim, tb.channel, tb.streams,
                               load_frames_per_minute)
    for generator in chatter:
        generator.start(at=1 * SECOND)
    # Warm the ARP caches so measured pings are steady state.
    warm = Pinger(tb.pc.stack)
    warm.send("128.95.1.2", count=1)
    tb.sim.run(until=120 * SECOND)

    gw_tnc = tb.gateway.radio.tnc
    gw_driver = tb.gateway.radio_interface
    serial_before = tb.gateway.radio.serial.b.bytes_sent
    not_for_us_before = gw_driver.frames_not_for_us
    up_before = gw_tnc.frames_to_host

    pinger = Pinger(tb.pc.stack)
    count = 8
    pinger.send("128.95.1.2", count=count, interval=60 * SECOND)
    tb.sim.run(until=tb.sim.now + measure_seconds * SECOND)

    serial_bytes = tb.gateway.radio.serial.b.bytes_sent - serial_before
    mean_rtt = pinger.mean_rtt_seconds()
    metrics = {
        "pings_received": float(pinger.received),
        "pings_sent": float(pinger.sent),
        "serial_bytes_to_host": float(serial_bytes),
        "frames_up": float(gw_tnc.frames_to_host - up_before),
        "frames_filtered": float(gw_tnc.frames_filtered),
        "driver_discards": float(
            gw_driver.frames_not_for_us - not_for_us_before),
        "channel_utilisation": float(tb.channel.utilisation()),
        "chatter_frames_offered": float(sum(
            g.counters["frames_offered"] for g in chatter)),
    }
    if mean_rtt is not None:
        metrics["ping_mean_rtt_s"] = mean_rtt
    return metrics


# ----------------------------------------------------------------------
# A3 -- ablation: p-persistence under a synchronized burst
# ----------------------------------------------------------------------

def run_a3(
    seed: int = 110,
    persistence: float = 0.25,
    stations: int = 5,
    frames_each: int = 8,
) -> Dict[str, float]:
    """One A3 condition: N stations burst-offer frames at one monitor."""
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    channel = RadioChannel(sim, streams)
    modem = ModemProfile(bit_rate=1200, txdelay=100 * MS, txtail=20 * MS)
    csma = CsmaParameters(persistence=persistence, slot_time=100 * MS)

    received = []
    channel.attach("MONITOR", received.append)

    frame = AX25Frame.ui(AX25Address("MON"), AX25Address("W7STA"),
                         PID_NO_L3, b"x" * 64).encode()
    generators = []
    for index in range(stations):
        station = RadioStation(
            sim, channel, f"W7STA-{index + 1}", modem=modem, csma=csma,
        )
        # Everyone's queue filled at t=0: the worst-case contention burst.
        generators.append(UiChatterGenerator(
            sim, station, frame, BurstArrivals(frames_each),
            limit=frames_each,
        ))
    for generator in generators:
        generator.start()
    sim.run_until_idle(max_events=2_000_000)

    offered = stations * frames_each
    return {
        "delivered": float(len(received)),
        "offered": float(offered),
        "collisions": float(channel.total_collisions),
        "transmissions": float(channel.total_transmissions),
        "drain_seconds": sim.now / SECOND,
    }


# ----------------------------------------------------------------------
# soak -- scenario-layer population load on the gateway testbed
# ----------------------------------------------------------------------

MIX_PRESETS: Dict[str, Tuple[GeneratorMix, ...]] = {
    # The paper's channel in miniature: IP users, legacy chatter, a BBS.
    "mixed": (
        GeneratorMix("ping", fraction=2, rate_per_minute=2),
        GeneratorMix("chatter", fraction=3, rate_per_minute=4,
                     arrivals="onoff", payload_bytes=96),
        GeneratorMix("udp", fraction=1, rate_per_minute=2,
                      payload_bytes=64),
        GeneratorMix("bbs", fraction=1, rate_per_minute=0.5),
    ),
    # Heavy-tailed bursts: the worst case for the gateway's serial line.
    "bursty": (
        GeneratorMix("chatter", fraction=3, rate_per_minute=6,
                     arrivals="onoff", payload_bytes=96),
        GeneratorMix("ping", fraction=1, rate_per_minute=2,
                     arrivals="pareto"),
    ),
}


def scaled_mix(mix: str, rate_scale: float) -> Tuple[GeneratorMix, ...]:
    """The ``mix`` preset with every component's rate times ``rate_scale``."""
    if mix not in MIX_PRESETS:
        raise ValueError(f"unknown mix preset {mix!r}")
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    return tuple(
        replace(component,
                rate_per_minute=component.rate_per_minute * rate_scale)
        for component in MIX_PRESETS[mix]
    )


def run_soak(
    seed: int = 0,
    stations: int = 20,
    duration_seconds: float = 120.0,
    mix: str = "mixed",
    address_filter: bool = False,
    rate_scale: float = 1.0,
) -> Dict[str, float]:
    """A population-scale scenario on the gateway testbed.

    ``rate_scale`` multiplies every component's offered rate, so the
    same preset can be run anywhere from idle to saturation: the preset
    rates are sized for ~20 stations, so a 50-station population wants
    a scale well below 1 to stay on the air at 1200 bps.
    """
    scenario = Scenario(
        name=f"soak-{mix}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=scaled_mix(mix, rate_scale),
        seed=seed, tnc_address_filter=address_filter,
    )
    return run_scenario(scenario)


# ----------------------------------------------------------------------
# chaos -- fault-injection soak with watchdog recovery (the E10 harness)
# ----------------------------------------------------------------------

def chaos_targets(scenario: Scenario, limit: int) -> List[str]:
    """The first ``limit`` IP stations, the chaos plan's radio targets.

    The gateway testbed names its IP stations ``WL0``, ``WL1``, ... and
    builds only as many as the allocation gives the ping, udp and tcp
    generators, so a bbs- or chatter-only mix has none.
    """
    ip_count = sum(1 for c in scenario.station_allocation()
                   if c.kind in ("ping", "udp", "tcp"))
    return [f"WL{i}" for i in range(min(ip_count, limit))]


def with_chaos(scenario: Scenario, targets: int = 1) -> Scenario:
    """``scenario`` under the standard :func:`repro.faults.chaos_plan`
    schedule, its station faults aimed at the first ``targets`` IP
    stations the mix has.  The driver watchdog is on and the gateway
    sheds bulk traffic past a 2 KB serial backlog.
    """
    plan = chaos_plan(int(scenario.duration_seconds), gateway="gateway",
                      stations=chaos_targets(scenario, targets))
    return replace(scenario, fault_plan=plan, watchdog=True,
                   shed_threshold_bytes=2048)


def chaos_scenario(
    seed: int = 0,
    stations: int = 50,
    duration_seconds: float = 240.0,
    mix: str = "mixed",
    rate_scale: float = 0.25,
    watchdog: bool = True,
    shed_threshold_bytes: int = 2048,
) -> Scenario:
    """A population soak under :func:`with_chaos`, aimed at two IP
    stations."""
    soak = Scenario(
        name=f"chaos-{mix}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=scaled_mix(mix, rate_scale),
        seed=seed,
    )
    return replace(with_chaos(soak, targets=2), watchdog=watchdog,
                   shed_threshold_bytes=shed_threshold_bytes)


def run_chaos(seed: int = 0, **params: Any) -> Dict[str, float]:
    """Run :func:`chaos_scenario`, then ping through the recovered gateway.

    Every metric is a pure function of (params, seed); the ``chaos`` CLI
    asserts that by digest across process layouts.
    """
    run = build_scenario(chaos_scenario(seed, **params))
    metrics = run.run()

    # Post-recovery health: every fault has cleared by now, and the
    # watchdog has had time to reset the wedged TNC.  Pings from the
    # isolated PC through the gateway must succeed end to end.
    tb = run.testbed
    pinger = Pinger(tb.pc.stack)
    pinger.send(tb.ETHER_HOST_IP, count=3, interval=20 * SECOND)
    tb.sim.run(until=tb.sim.now + 90 * SECOND)
    metrics["post_fault_pings_sent"] = float(pinger.sent)
    metrics["post_fault_pings_ok"] = float(pinger.received)
    return metrics


# ----------------------------------------------------------------------
# obs -- span conservation + latency decomposition under load
# ----------------------------------------------------------------------

#: Mix for the observability gate: enough IP traffic to exercise every
#: span stage, enough chatter to keep the promiscuous-TNC noise paths hot.
OBS_MIX: Tuple[GeneratorMix, ...] = (
    GeneratorMix("ping", fraction=2, rate_per_minute=4),
    GeneratorMix("chatter", fraction=2, rate_per_minute=6,
                 arrivals="onoff", payload_bytes=96),
    GeneratorMix("udp", fraction=1, rate_per_minute=3, payload_bytes=64),
)


def obs_scenario(seed: int, variant: str, stations: int,
                 duration_seconds: float, prefix: str = "obs",
                 **fields: Any) -> Scenario:
    """The plain (``e3``) or :func:`with_chaos` :data:`OBS_MIX` scenario.

    It is named ``<prefix>-<variant>``; ``fields`` are further
    :class:`Scenario` fields (``observe``, ``sanitize``).
    """
    if variant not in ("e3", "chaos"):
        raise ValueError(f"unknown {prefix} variant {variant!r}")
    scenario = Scenario(
        name=f"{prefix}-{variant}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=OBS_MIX, seed=seed,
        **fields,
    )
    return with_chaos(scenario) if variant == "chaos" else scenario


def run_obs(
    seed: int = 0,
    variant: str = "e3",
    stations: int = 8,
    duration_seconds: float = 150.0,
) -> Dict[str, float]:
    """:func:`obs_scenario` with the flight recorder attached.

    The chaos variant makes drop/shed reasons (wedge, fade, backlog
    shed) actually occur.  The headline metric is
    ``obs_conservation_ok``: every born packet must terminate in exactly
    one of delivered/dropped/shed/in-flight.
    """
    run = build_scenario(obs_scenario(seed, variant, stations,
                                      duration_seconds, observe=True))
    metrics = run.run()
    recorder = run.recorder
    assert recorder is not None
    conserved = (recorder.conservation_ok()
                 and recorder.born_total > 0)
    metrics["obs_conservation_ok"] = 1.0 if conserved else 0.0
    return metrics


# ----------------------------------------------------------------------
# sanitize -- dynamic ordering + conservation checks (PR 5)
# ----------------------------------------------------------------------

def run_sanitize(
    seed: int = 0,
    variant: str = "e3",
    stations: int = 8,
    duration_seconds: float = 120.0,
    order_salt: int = 0xD1CE,
) -> Dict[str, float]:
    """The dynamic halves of RACE001 and CONS001 on a live scenario.

    Runs the same seeded scenario twice -- once on the stock FIFO
    tie-break, once on an :class:`~repro.sim.sanitizer.OrderShuffleSimulator`
    salted with ``order_salt`` -- and compares the order-sensitive metric
    subset; any difference is a hidden equal-timestamp ordering
    dependence the static RACE001 pass should have caught.  Both runs
    carry a :class:`~repro.sim.sanitizer.SimSanitizer` doing live span
    conservation checks, the dynamic counterpart of CONS001's static
    drop-accounting proof.  The headline metrics are
    ``sanitize_ordering_agree`` and ``sanitize_conservation_ok``.  The
    latter reflects only failed sanitizer checks: a scenario that births
    no packet is not a conservation failure, and shows as
    ``obs_born_total == 0``.
    """
    scenario = obs_scenario(seed, variant, stations, duration_seconds,
                            prefix="sanitize", sanitize=True)
    base = build_scenario(scenario).run()
    salted = build_scenario(replace(scenario, order_salt=order_salt)).run()
    agree = comparable_metrics(base) == comparable_metrics(salted)
    conserved = (base["sanitizer_conservation_failures"] == 0
                 and salted["sanitizer_conservation_failures"] == 0)
    metrics = dict(base)
    metrics["sanitize_ordering_agree"] = 1.0 if agree else 0.0
    metrics["sanitize_conservation_ok"] = 1.0 if conserved else 0.0
    metrics["sanitize_stale_spans_salted"] = salted["sanitizer_stale_spans"]
    return metrics


# ----------------------------------------------------------------------
# tournament -- recovery policies under hostile links (the §4.1 grid)
# ----------------------------------------------------------------------

#: Tournament workload: TCP transfers through the gateway (the §4.1
#: traffic) plus one terminal user on the BBS so the LAPB timer axis is
#: exercised on the same hostile channel.  Sized for 1200 bps: two
#: senders offering one 4-segment transfer a minute keeps the load just
#: under channel capacity (so goodput measures recovery, not queuing)
#: while multi-segment flights give the congestion policies something
#: to decide.
TOURNAMENT_MIX: Tuple[GeneratorMix, ...] = (
    GeneratorMix("tcp", fraction=2, rate_per_minute=1, payload_bytes=2048),
    GeneratorMix("bbs", fraction=1, rate_per_minute=3),
)


def tournament_scenario(
    seed: int = 0,
    rto: str = "adaptive",
    cc: str = "reno",
    link_timer: str = "fixed",
    plan: str = "storm",
    bit_rate: int = 1200,
    stations: int = 3,
    duration_seconds: float = 180.0,
) -> Scenario:
    """One tournament cell: a policy triple under one hostile-link plan.

    The gateway testbed runs TCP transfers (stations -> Ethernet discard
    sink) and a BBS terminal session while the named
    :func:`repro.faults.tournament_plan` batters the links; every TCP
    endpoint runs the (``rto``, ``cc``) policies and every LAPB link the
    ``link_timer`` policy.
    """
    return Scenario(
        name=f"tournament-{plan}", topology="gateway", stations=stations,
        duration_seconds=duration_seconds, mix=TOURNAMENT_MIX, seed=seed,
        bit_rate=bit_rate, tcp_rto=rto, tcp_cc=cc, lapb_timer=link_timer,
        observe=True,
        fault_plan=tournament_plan(plan, int(duration_seconds)),
    )


def run_tournament(seed: int = 0, **params: Any) -> Dict[str, float]:
    """Run :func:`tournament_scenario`: with the flight recorder on, the
    cell reports span conservation alongside the headline goodput /
    transfer-latency / retransmit observables."""
    scenario = tournament_scenario(seed, **params)
    run = build_scenario(scenario)
    metrics = run.run()
    metrics["goodput_bytes_per_s"] = (
        metrics.get("tcp_sink_bytes", 0.0) / scenario.duration_seconds)
    # Link-layer recovery health, summed over every LAPB connection the
    # scenario ran (the BBS's side and each terminal TNC's side).
    endpoints = []
    if run.bbs is not None:
        endpoints.append(run.bbs.endpoint)
    endpoints.extend(station.tnc.endpoint for station in run.extra_stations
                     if hasattr(station, "tnc"))
    for stat in ("i_sent", "i_rexmit", "rtt_samples", "i_abandoned"):
        metrics[f"lapb_{stat}"] = float(sum(
            conn.stats[stat]
            for endpoint in endpoints
            for conn in endpoint.connections.values()))
    recorder = run.recorder
    assert recorder is not None
    conserved = recorder.conservation_ok() and recorder.born_total > 0
    metrics["obs_conservation_ok"] = 1.0 if conserved else 0.0
    return metrics


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """A named, sweepable experiment."""

    name: str
    description: str
    fn: Callable[..., Dict[str, float]]
    grid: Tuple[Mapping[str, object], ...]
    default_seed_count: int = 5


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            name="e3",
            description="§3 gateway under background channel load, "
                        "promiscuous vs filtering TNC (workload-driven)",
            fn=run_e3,
            # 15 frames/min/station of Poisson chatter is ~0.6 erlangs:
            # heavy enough to show the §3 slowdown, light enough that
            # the gateway is degraded rather than unreachable.
            grid=tuple(
                {"load_frames_per_minute": load, "address_filter": filtered}
                for load in (0, 10, 15)
                for filtered in (False, True)
            ),
            default_seed_count=5,
        ),
        Experiment(
            name="a3",
            description="KISS p-persistence ablation under a "
                        "synchronized burst (workload-driven)",
            fn=run_a3,
            grid=tuple({"persistence": p} for p in (0.05, 0.25, 0.63, 1.0)),
            default_seed_count=5,
        ),
        Experiment(
            name="soak",
            description="population-scale mixed workload on the gateway "
                        "testbed (scenario layer)",
            fn=run_soak,
            grid=({"stations": 20, "mix": "mixed"},
                  {"stations": 20, "mix": "bursty"}),
            default_seed_count=5,
        ),
        Experiment(
            name="chaos",
            description="fault-injection soak: deterministic chaos "
                        "schedule + driver watchdog recovery (E10)",
            fn=run_chaos,
            grid=({"stations": 50},),
            default_seed_count=3,
        ),
        Experiment(
            name="obs",
            description="packet flight recorder: span conservation and "
                        "per-hop latency under load (plain + chaos)",
            fn=run_obs,
            grid=({"variant": "e3"}, {"variant": "chaos"}),
            default_seed_count=3,
        ),
        Experiment(
            name="sanitize",
            description="runtime sim sanitizer: order-shuffle agreement "
                        "and live span conservation (dynamic RACE/CONS)",
            fn=run_sanitize,
            grid=({"variant": "e3"}, {"variant": "chaos"}),
            default_seed_count=3,
        ),
        Experiment(
            name="tournament",
            description="recovery-policy tournament: (rto x cc x "
                        "link-timer) under hostile-link fault plans "
                        "(§4.1 headline cells)",
            fn=run_tournament,
            # The registry default is the headline slice -- the §4.1
            # storm at 1200 bps across the policy corners; the
            # ``python -m repro tournament`` gate sweeps the full
            # (policy x plan x speed) cross product.
            grid=(
                {"rto": "fixed", "cc": "none", "plan": "storm"},
                {"rto": "adaptive", "cc": "none", "plan": "storm"},
                {"rto": "adaptive", "cc": "reno", "plan": "storm"},
                {"rto": "adaptive", "cc": "paced", "plan": "storm"},
            ),
            default_seed_count=3,
        ),
    )
}
