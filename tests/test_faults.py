"""The fault-injection subsystem and the recovery paths it exercises.

Three layers under test: the declarative :class:`FaultPlan` (pure data,
validated up front), the :class:`FaultInjector` (schedules plans against
live components, all randomness on named streams), and the recovery
machinery the faults exist to prove out -- the driver's TNC watchdog,
priority shedding under backlog, and the bounded queues whose drops now
reach the stack's counters.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.apps.ping import Pinger
from repro.ax25.address import AX25Address
from repro.ax25.defs import PID_ARPA_IP
from repro.ax25.frames import AX25Frame
from repro.core.driver import PacketRadioInterface
from repro.core.topology import build_figure1_testbed, build_gateway_testbed
from repro.faults import FaultInjector, FaultPlan, FaultSpec, chaos_plan
from repro.harness.results import metrics_digest
from repro.inet.ip import PROTO_ICMP, PROTO_UDP
from repro.kiss import commands
from repro.kiss.framing import frame as kiss_frame
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams


def ip_packet(proto: int, length: int = 28) -> bytes:
    """A minimal IP header: just enough for the driver's priority sniff."""
    packet = bytearray(length)
    packet[0] = 0x45
    packet[9] = proto
    return bytes(packet)


# ----------------------------------------------------------------------
# the plan: validation and the standard chaos schedule
# ----------------------------------------------------------------------

def test_plan_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.of([FaultSpec("gamma_ray", at=0, target="gw")])


def test_windowed_kinds_need_a_duration():
    with pytest.raises(ValueError, match="duration"):
        FaultPlan.of([FaultSpec("serial_noise", at=0, target="gw",
                                probability=0.5)])


@pytest.mark.parametrize("probability", [0.0, -0.1, 1.5])
def test_probabilistic_kinds_need_probability_in_range(probability):
    with pytest.raises(ValueError, match="probability"):
        FaultSpec("channel_fade", at=0, target="WL0",
                  duration=SECOND, probability=probability).validate()


def test_partition_needs_a_peer_and_garbage_needs_a_count():
    with pytest.raises(ValueError, match="peer"):
        FaultSpec("partition", at=0, target="WL0", duration=SECOND).validate()
    with pytest.raises(ValueError, match="count"):
        FaultSpec("tnc_garbage", at=0, target="gw").validate()


def test_plan_orders_specs_and_reports_last_clear():
    late = FaultSpec("tnc_wedge", at=9 * SECOND, target="gw")
    early = FaultSpec("iface_flap", at=SECOND, target="WL0",
                      duration=4 * SECOND)
    plan = FaultPlan.of([late, early])
    assert [spec.at for spec in plan] == [SECOND, 9 * SECOND]
    assert plan.last_clear_time == 9 * SECOND
    assert len(plan) == 2


def test_chaos_plan_scales_and_clears_before_the_tail():
    plan = chaos_plan(240, stations=("WL0", "WL1"))
    kinds = {spec.kind for spec in plan}
    assert {"serial_noise", "tnc_wedge", "tnc_garbage", "serial_drop",
            "channel_fade", "partition", "iface_flap"} <= kinds
    # every fault clears by ~80% of the run, leaving a recovery tail
    assert plan.last_clear_time <= 0.8 * 240 * SECOND


# ----------------------------------------------------------------------
# the injector: serial faults, determinism, resolution errors
# ----------------------------------------------------------------------

def _noise_run(kind: str, probability: float):
    """One seeded serial-fault run; returns everything observable."""
    sim = Simulator()
    streams = RandomStreams(seed=77)
    line = SerialLine(sim, baud=9600)
    got = []
    line.a.on_receive(got.append)
    injector = FaultInjector(sim, streams)
    plan = FaultPlan.of([FaultSpec(kind, at=0, target="gw",
                                   duration=2 * SECOND,
                                   probability=probability)])
    injector.install(plan, attachments={
        "gw": SimpleNamespace(serial=line, tnc=None)})
    payload = bytes(range(256)) * 4          # ~1.1 s of line time
    line.b.write(payload)
    clean = bytes(range(64))
    sim.at(3 * SECOND, line.b.write, clean)  # after the window clears
    sim.run_until_idle()
    return got, clean, injector


def test_serial_noise_corrupts_then_clears_deterministically():
    first = _noise_run("serial_noise", 0.2)
    second = _noise_run("serial_noise", 0.2)
    got, clean, injector = first
    assert injector.bytes_corrupted > 0
    assert injector.faults_injected == injector.faults_cleared == 1
    # same seed, same plan -> byte-identical delivery
    assert got == second[0]
    # the filter came off at the window's end: the late write is clean
    assert bytes(got[-len(clean):]) == clean
    assert injector.bytes_corrupted == second[2].bytes_corrupted


def test_serial_drop_loses_every_byte_at_probability_one():
    got, clean, injector = _noise_run("serial_drop", 1.0)
    # only the post-window bytes survive
    assert bytes(got) == clean
    assert injector.bytes_dropped == 256 * 4


def test_install_rejects_unknown_targets_up_front():
    sim = Simulator()
    injector = FaultInjector(sim, RandomStreams(seed=1))
    plan = FaultPlan.of([FaultSpec("tnc_wedge", at=0, target="nobody")])
    with pytest.raises(KeyError):
        injector.install(plan, attachments={})
    with pytest.raises(ValueError, match="channel"):
        injector.install(FaultPlan.of(
            [FaultSpec("channel_fade", at=0, target="WL0",
                       duration=SECOND, probability=0.5)]))


def test_tnc_garbage_burst_is_survivable(sim, streams):
    line = SerialLine(sim, baud=9600)
    driver = PacketRadioInterface(sim, line.a, AX25Address("NT7GW"))
    received = []
    driver.input_handler = lambda packet, iface, proto: received.append(packet)
    injector = FaultInjector(sim, streams)
    plan = FaultPlan.of([FaultSpec("tnc_garbage", at=0, target="gw",
                                   count=512)])
    injector.install(plan, attachments={
        "gw": SimpleNamespace(serial=line, tnc=None)})
    good = AX25Frame.ui(AX25Address("NT7GW"), AX25Address("KB7DZ"),
                        PID_ARPA_IP, b"after the storm")
    sim.at(2 * SECOND, line.b.write,
           kiss_frame(commands.type_byte(commands.CMD_DATA), good.encode()))
    sim.run_until_idle()
    assert injector.garbage_bytes == 512
    assert received[-1] == b"after the storm"


# ----------------------------------------------------------------------
# channel faults: fades and partitions
# ----------------------------------------------------------------------

def _fade_run():
    testbed = build_figure1_testbed(seed=9)
    injector = FaultInjector(testbed.sim, testbed.streams)
    plan = FaultPlan.of([FaultSpec("channel_fade", at=0, target="N7AKR",
                                   duration=100 * SECOND, probability=0.5)])
    injector.install(plan, channel=testbed.channel)
    pinger = Pinger(testbed.host.stack)
    pinger.send("44.24.0.5", count=8, interval=20 * SECOND)
    testbed.sim.run(until=300 * SECOND)
    return testbed.channel.frames_faded, pinger.received


def test_channel_fade_fades_frames_then_heals():
    faded, received = _fade_run()
    assert faded > 0
    assert received >= 1          # pings after the window get through
    assert _fade_run() == (faded, received)   # seeded fade stream


def test_partition_blocks_delivery_then_heals():
    testbed = build_figure1_testbed(seed=3)
    injector = FaultInjector(testbed.sim, testbed.streams,
                             tracer=testbed.tracer)
    plan = FaultPlan.of([FaultSpec("partition", at=0, target="N7AKR",
                                   peer="KB7DZ", duration=120 * SECOND)])
    injector.install(plan, channel=testbed.channel)
    during = Pinger(testbed.host.stack)
    during.send("44.24.0.5", count=2, interval=20 * SECOND)
    testbed.sim.run(until=110 * SECOND)
    assert during.received == 0
    after = Pinger(testbed.host.stack)
    after.send("44.24.0.5", count=2, interval=20 * SECOND)
    testbed.sim.run(until=300 * SECOND)
    assert after.received == 2
    assert injector.faults_cleared == 1


def test_iface_flap_downs_the_interface_then_restores_it():
    testbed = build_figure1_testbed(seed=5)
    interface = testbed.host.radio.interface
    injector = FaultInjector(testbed.sim, testbed.streams)
    plan = FaultPlan.of([FaultSpec("iface_flap", at=SECOND, target="N7AKR",
                                   duration=30 * SECOND)])
    injector.install(plan, interfaces={"N7AKR": interface})
    testbed.sim.run(until=2 * SECOND)
    assert not interface.is_up
    assert interface.flaps == 1
    testbed.sim.run(until=40 * SECOND)
    assert interface.is_up


# ----------------------------------------------------------------------
# the watchdog: bounded recovery of a wedged TNC
# ----------------------------------------------------------------------

def test_watchdog_recovers_wedged_tnc_within_documented_bound():
    testbed = build_gateway_testbed(seed=11)
    driver = testbed.gateway.radio.interface
    watchdog = driver.start_watchdog(testbed.streams)
    tnc = testbed.gateway.radio.tnc

    warm = Pinger(testbed.pc.stack)
    warm.send(testbed.ETHER_HOST_IP, count=2, interval=20 * SECOND)
    testbed.sim.run(until=60 * SECOND)
    assert warm.received == 2

    tnc.wedge()
    wedged_at = testbed.sim.now
    # the bound documented on TncWatchdog: silence detection + one
    # reset + the TNC's reboot, each padded by a check interval
    bound = (watchdog.silence_timeout + 2 * watchdog.check_interval
             + tnc.reboot_delay + watchdog.check_interval)
    testbed.sim.run(until=wedged_at + bound)
    assert watchdog.resets_issued >= 1
    assert tnc.resets >= 1
    assert not tnc.wedged

    # end-to-end proof: traffic flows again after the recovery
    after = Pinger(testbed.pc.stack)
    after.send(testbed.ETHER_HOST_IP, count=3, interval=20 * SECOND)
    testbed.sim.run(until=testbed.sim.now + 120 * SECOND)
    assert after.received >= 2
    assert watchdog.recoveries >= 1
    # On this quiet testbed the watchdog can only *observe* recovery
    # once the pings provide RX traffic, so the measured figure is the
    # repair bound plus the wait for the first post-fault ping.
    assert watchdog.last_recovery_us <= bound + 40 * SECOND


def test_watchdog_leaves_a_healthy_tnc_alone():
    testbed = build_gateway_testbed(seed=12)
    watchdog = testbed.gateway.radio.interface.start_watchdog(testbed.streams)
    pinger = Pinger(testbed.pc.stack)
    pinger.send(testbed.ETHER_HOST_IP, count=6, interval=15 * SECOND)
    # stop while traffic still covers the silence window: once the
    # channel goes quiet for silence_timeout the watchdog is *expected*
    # to probe with a reset (documented as harmless on an idle link)
    testbed.sim.run(until=90 * SECOND)
    assert pinger.received == 6
    assert watchdog.resets_issued == 0
    assert testbed.gateway.radio.tnc.resets == 0


# ----------------------------------------------------------------------
# graceful degradation: shed bulk, keep control traffic
# ----------------------------------------------------------------------

def test_driver_sheds_bulk_but_keeps_icmp_under_backlog():
    testbed = build_figure1_testbed(seed=2)
    driver = testbed.host.radio.interface
    driver.shed_threshold_bytes = 64
    driver.serial.write(bytes(600))   # park a deep tx backlog
    from repro.inet.ip import IPv4Address
    broadcast = IPv4Address.coerce("255.255.255.255")

    frames_before = driver.frames_to_tnc
    assert driver.if_output(ip_packet(PROTO_UDP), broadcast)
    assert driver.osheds == 1                  # bulk shed, not queued
    assert driver.frames_to_tnc == frames_before

    assert driver.if_output(ip_packet(PROTO_ICMP), broadcast)
    assert driver.osheds == 1                  # control still transmits
    assert driver.frames_to_tnc == frames_before + 1
    # the shed reached the stack's counters via the on_shed hook
    assert testbed.host.stack.counters["if_output_sheds"] == 1


def test_queue_drops_reach_the_stack_counters():
    testbed = build_figure1_testbed(seed=4)
    stack = testbed.host.stack
    queue = stack.ip_input_queue
    overflow = 5
    for index in range(queue.limit + overflow):
        queue.enqueue((ip_packet(PROTO_UDP), testbed.host.radio.interface))
    assert queue.drops == overflow
    assert stack.counters["ip_input_drops"] == overflow

    send_queue = testbed.host.radio.interface.send_queue
    for index in range(send_queue.limit + 1):
        send_queue.enqueue(b"x")
    assert stack.counters["if_snd_drops"] == 1


def test_netstat_reports_drop_and_shed_counters():
    from repro.tools.netstat import format_netstat
    testbed = build_figure1_testbed(seed=6)
    stack = testbed.host.stack
    stack.counters.bump("ip_input_drops")
    stack.counters.bump("if_snd_drops")
    stack.counters.bump("if_output_sheds")
    text = format_netstat(stack)
    assert "1 dropped (input queue full)" in text
    assert "1 output queue drops" in text
    assert "1 packets shed under backlog" in text


# ----------------------------------------------------------------------
# the chaos soak end to end: deterministic, recoverable
# ----------------------------------------------------------------------

def test_chaos_run_is_a_pure_function_of_the_seed():
    from repro.harness.experiments import run_chaos
    first = run_chaos(seed=5, stations=8, duration_seconds=90.0)
    second = run_chaos(seed=5, stations=8, duration_seconds=90.0)
    assert first == second
    assert metrics_digest(first) == metrics_digest(second)
    assert metrics_digest(run_chaos(seed=6, stations=8,
                                    duration_seconds=90.0)) \
        != metrics_digest(first)


def test_chaos_run_recovers_and_pings_after_the_storm():
    from repro.harness.experiments import run_chaos
    metrics = run_chaos(seed=1, stations=8, duration_seconds=120.0)
    assert metrics["faults_injected"] >= 4
    # everything but the point faults (tnc_wedge, tnc_garbage) clears
    assert metrics["faults_cleared"] == metrics["faults_injected"] - 2
    assert metrics["watchdog_recoveries"] >= 1
    assert metrics["post_fault_pings_ok"] >= 1
    assert metrics["gateway_tnc_resets"] >= 1


@pytest.mark.parametrize("kind", ["bbs", "chatter"])
def test_chaos_on_a_mix_without_ip_stations_builds_and_runs(kind):
    from repro.harness.experiments import with_chaos
    from repro.workload.scenario import (GeneratorMix, Scenario,
                                         build_scenario)
    scenario = with_chaos(Scenario(
        name=f"{kind}-only", topology="gateway", stations=4,
        duration_seconds=40.0, mix=(GeneratorMix(kind),), seed=3))
    metrics = build_scenario(scenario).run()
    # No WL station exists, so the plan keeps only its gateway faults.
    assert {spec.target for spec in scenario.fault_plan.specs} == {"gateway"}
    assert metrics["faults_injected"] == 4


def test_chaos_targets_follow_the_allocation():
    from repro.harness.experiments import (MIX_PRESETS, OBS_MIX,
                                           chaos_targets)
    from repro.workload.scenario import GeneratorMix, Scenario
    mixed = Scenario(name="mixed", topology="gateway", stations=50,
                     mix=MIX_PRESETS["mixed"])
    assert chaos_targets(mixed, 2) == ["WL0", "WL1"]
    observed = Scenario(name="obs", topology="gateway", stations=8,
                        mix=OBS_MIX)
    assert chaos_targets(observed, 1) == ["WL0"]
    one_ip = Scenario(name="one-ip", topology="gateway", stations=2,
                      mix=(GeneratorMix("ping"), GeneratorMix("bbs")))
    assert chaos_targets(one_ip, 2) == ["WL0"]
