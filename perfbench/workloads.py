"""The benchmark's workloads: how each is built, run, checked and counted.

Importing this module imports ``repro``; the worker times that import as
part of ``setup_s``, because every CLI invocation pays it.

The simulated users are open-loop (seeded Poisson and on/off arrivals in
simulated time, independent of how fast the simulator runs).  The
benchmark itself is one closed-loop caller that advances the simulation
one simulated second at a time with ``sim.run(until=...)``; slicing does
not change the metric dict (``test_neutrality.py`` holds that).
"""

from __future__ import annotations

import gc
import heapq
import statistics
from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Tuple

from repro.check import Budget, Explorer, build_world
from repro.faults import chaos_plan
from repro.harness.experiments import MIX_PRESETS, TOURNAMENT_MIX
from repro.sim.clock import seconds
from repro.workload.scenario import GeneratorMix, Scenario, ScenarioRun, build_scenario

#: Preset worlds explored by ``mc_explore`` and their fixpoint state counts.
MC_FIXPOINT = {"lapb2": 961, "tcpxfer": 1320}

#: Host-speed calibration: after at least this much measured work, the
#: probe kernel runs once and rescales the slices measured since.
PROBE_EVERY_S = 0.005
#: The probe kernel's time at the reference host speed.  Normalised
#: times are in seconds at that speed, which is about that of a 2-vCPU
#: x86-64 Linux container whose neighbours are quiet.
REFERENCE_PROBE_S = 0.0002

#: ``gw_tcp_frame`` mix: the tournament's §4.1 traffic (2 KB TCP bulk
#: transfers and BBS terminals) at its own per-station rates, plus ping.
#: On the 9600 bps channel with the flow cloud this is past the knee of
#: the load sweep in ``RATIONALE.md``: the channel is saturated and LAPB
#: and TCP retransmit heavily.
TCP_FRAME_MIX = TOURNAMENT_MIX + (
    GeneratorMix("ping", fraction=1, rate_per_minute=2.0),
)


def chaos_scenario(seed: int) -> Scenario:
    """``run_chaos``'s scenario at per-character fidelity, recorder off."""
    components = tuple(
        replace(component, rate_per_minute=component.rate_per_minute * 0.25)
        for component in MIX_PRESETS["mixed"])
    scenario = Scenario(
        name="chaos-mixed", topology="gateway", stations=50,
        duration_seconds=240.0, mix=components, seed=seed,
        watchdog=True, shed_threshold_bytes=2048, fidelity="per_char",
    )
    ip_count = sum(1 for c in scenario.station_allocation()
                   if c.kind in ("ping", "udp", "tcp"))
    plan = chaos_plan(240, gateway="gateway",
                      stations=[f"WL{i}" for i in range(min(ip_count, 2))])
    return replace(scenario, fault_plan=plan)


def tcp_frame_scenario(seed: int) -> Scenario:
    """Frame-fidelity gateway: 9600 bps radio, 38400 baud serial, recorder on."""
    return Scenario(
        name="tcp-frame", topology="gateway", stations=10,
        duration_seconds=1800.0, mix=TCP_FRAME_MIX, seed=seed,
        bit_rate=9600, serial_baud=38400, fidelity="frame",
        observe=True, flow_stations=100,
    )


def gateway_scenario(workload: str, seed: int) -> Scenario:
    """The scenario a gateway workload simulates for one scenario seed."""
    if workload == "gw_chaos_perchar":
        return chaos_scenario(seed)
    if workload == "gw_tcp_frame":
        return tcp_frame_scenario(seed)
    raise ValueError(f"not a gateway workload: {workload!r}")


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def host_probe() -> float:
    """Seconds one fixed run of the calibration kernel takes right now.

    The kernel does what the simulator mostly does (object creation,
    heap pushes and pops of tuples, dict updates), so interference from
    other tenants of the host slows both alike.  The cyclic collector is
    paused so that the kernel never pays for a collection of the
    simulation's heap; the kernel frees everything it allocates.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        heap: list = []
        table: Dict[int, int] = {}
        for index in range(200):
            entry = _Entry(index * 7919 % 1009, index)
            heapq.heappush(heap, (entry.key, index, entry))
            table[entry.key] = table.get(entry.key, 0) + entry.value
        while heap:
            key, _index, entry = heapq.heappop(heap)
            table[key] -= entry.value
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def host_scale(probes: int = 5) -> float:
    """Factor that turns seconds measured now into reference seconds."""
    return REFERENCE_PROBE_S / statistics.median(
        host_probe() for _ in range(probes))


class SliceTimer:
    """Slice wall times, raw and normalised to the reference host speed.

    Other tenants of a shared host can slow this process twofold for
    minutes at a time.  With ``calibrate``, the probe kernel runs after
    every :data:`PROBE_EVERY_S` of measured slices, outside them, and
    those slices are scaled by ``REFERENCE_PROBE_S / probe time``.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.raw: List[float] = []
        self.normalised: List[float] = []
        self._pending: List[float] = []
        self._pending_s = 0.0

    def add(self, seconds: float) -> None:
        """Record one slice; may run the probe, so time the next slice after."""
        self.raw.append(seconds)
        if not self.calibrate:
            return
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Normalise the slices still waiting for a probe."""
        if not self._pending:
            return
        scale = REFERENCE_PROBE_S / host_probe()
        self.normalised.extend(seconds * scale for seconds in self._pending)
        self._pending.clear()
        self._pending_s = 0.0


def run_sliced(run: ScenarioRun, timer: SliceTimer) -> Dict[str, float]:
    """Run a built scenario one simulated second at a time.

    Does what :meth:`ScenarioRun.run` does, in slices, recording each
    slice's wall time in ``timer``.  Returns the metric dict.
    """
    for generator in run.generators:
        generator.start()
    if run.flow_cloud is not None:
        run.flow_cloud.start()
    sim = run.sim
    end = sim.now + seconds(run.scenario.duration_seconds)
    horizon = sim.now
    while horizon < end:
        horizon = min(horizon + seconds(1), end)
        started = perf_counter()
        sim.run(until=horizon)
        timer.add(perf_counter() - started)
    timer.flush()
    return run.results()


def gateway_ops(metrics: Dict[str, float]) -> Tuple[int, int]:
    """(attempted, completed) user operations of one gateway run."""
    attempted = (metrics.get("pings_sent", 0.0)
                 + metrics.get("datagrams_sent", 0.0)
                 + metrics.get("transfers_started", 0.0)
                 + metrics.get("sessions_started", 0.0))
    completed = (metrics.get("pings_received", 0.0)
                 + metrics.get("udp_sink_datagrams", 0.0)
                 + metrics.get("transfers_completed", 0.0)
                 + metrics.get("sessions_completed", 0.0))
    return int(attempted), int(completed)


def mc_explorers() -> List[Tuple[str, object, Explorer]]:
    """Build each preset world and its explorer: the set-up part.

    POR and dedup are on.  The explorer's factory hands back the world
    built here, so world construction is set-up, not exploration.
    """
    built = []
    for name in MC_FIXPOINT:
        world = build_world(name)
        explorer = Explorer(lambda w=world: w, por=True, dedup=True,
                            budget=Budget(max_depth=400, max_wall_seconds=60.0))
        built.append((name, world, explorer))
    return built


def explore_sliced(explorers, timer: SliceTimer) -> Dict[str, object]:
    """Explore every world; a slice is one state expansion.

    The explorer captures a snapshot once per state it expands, so the
    wall time between consecutive captures is the cost of one expansion
    (its invariant checks, fingerprint, restores and steps).  Records
    the slices in ``timer`` and returns the exploration results by world.
    """
    results = {}
    for name, _world, explorer in explorers:
        capture = explorer.capturer.capture
        last = [perf_counter()]

        def stamped(world, capture=capture, last=last):
            timer.add(perf_counter() - last[0])
            last[0] = perf_counter()
            return capture(world)

        explorer.capturer.capture = stamped
        results[name] = explorer.run()
        timer.add(perf_counter() - last[0])
    timer.flush()
    return results


def exploration_counts(results) -> Dict[str, float]:
    """The deterministic counts of an exploration, flat, for digesting."""
    counts = {}
    for name, result in sorted(results.items()):
        summary = result.summary()
        for key in ("states", "transitions", "revisits", "sleep_skips",
                    "terminal_states", "cycles", "truncated", "max_depth",
                    "complete", "violations"):
            counts[f"{name}.{key}"] = float(summary[key])
    return counts


def world_failures(name: str, result) -> List[str]:
    """Why one world's exploration is not its known fixpoint (empty if it is)."""
    failures = []
    if not result.complete:
        failures.append("exploration hit a budget")
    if result.violations:
        failures.append(f"{len(result.violations)} violation(s)")
    if result.states != MC_FIXPOINT[name]:
        failures.append(f"{result.states} states, expected {MC_FIXPOINT[name]}")
    return failures
