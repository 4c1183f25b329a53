"""Failure injection and fuzzing across the stack.

A kernel driver's first duty is to survive garbage: line noise on the
serial port, corrupted frames from the channel, hostile byte streams.
These tests throw randomness at every input edge and assert the system
neither crashes nor wedges -- and that real traffic still flows
afterwards.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ping import Pinger
from repro.ax25.address import AX25Address
from repro.ax25.defs import PID_ARPA_IP
from repro.ax25.frames import AX25Frame, FrameError
from repro.ax25.lapb import LapbState
from repro.core.driver import PacketRadioInterface
from repro.core.topology import build_figure1_testbed, build_gateway_testbed
from repro.inet.sockets import TcpSocket
from repro.inet.tcp import AdaptiveRto
from repro.kiss.framing import KissDeframer
from repro.radio.modem import ModemProfile
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

from tests.test_ax25_lapb import LinkHarness


# ----------------------------------------------------------------------
# fuzzing the byte-stream parsers
# ----------------------------------------------------------------------

@settings(max_examples=50)
@given(st.binary(max_size=2048))
def test_kiss_deframer_never_crashes(noise):
    deframer = KissDeframer()
    deframer.push(noise)   # must not raise, whatever arrives


@settings(max_examples=50)
@given(st.binary(max_size=512))
def test_ax25_decode_never_crashes(noise):
    try:
        AX25Frame.decode(noise)
    except FrameError:
        pass  # rejection is fine; anything else is a bug


@settings(max_examples=30)
@given(st.binary(max_size=600))
def test_ip_decode_never_crashes(noise):
    from repro.inet.ip import IPError, IPv4Datagram
    try:
        IPv4Datagram.decode(noise)
    except IPError:
        pass


@settings(max_examples=30)
@given(st.binary(max_size=200))
def test_arp_decode_never_crashes(noise):
    from repro.inet.arp import ArpError, ArpPacket
    try:
        ArpPacket.decode(noise)
    except ArpError:
        pass


@settings(max_examples=30)
@given(st.binary(max_size=200))
def test_netrom_decodes_never_crash(noise):
    from repro.netrom.protocol import NetRomError, NetRomPacket, NodesBroadcast
    from repro.netrom.transport import TransportError, TransportFrame
    for decoder, error in ((NetRomPacket.decode, NetRomError),
                           (NodesBroadcast.decode, NetRomError),
                           (TransportFrame.decode, TransportError)):
        try:
            decoder(noise)
        except error:
            pass


# ----------------------------------------------------------------------
# the driver under line noise
# ----------------------------------------------------------------------

def make_driver(sim):
    line = SerialLine(sim, baud=9600)
    driver = PacketRadioInterface(sim, line.a, AX25Address("NT7GW"))
    received = []
    driver.input_handler = lambda packet, iface, proto: received.append(packet)
    return line, driver, received


def test_driver_survives_pure_noise_then_works(sim):
    line, driver, received = make_driver(sim)
    rng = random.Random(1988)
    line.b.write(bytes(rng.randrange(256) for _ in range(3000)))
    sim.run_until_idle()
    assert received == [] or all(isinstance(p, bytes) for p in received)
    # a real frame still gets through afterwards
    from repro.kiss import commands
    from repro.kiss.framing import frame as kiss_frame
    good = AX25Frame.ui(AX25Address("NT7GW"), AX25Address("KB7DZ"),
                        PID_ARPA_IP, b"still alive")
    line.b.write(kiss_frame(commands.type_byte(commands.CMD_DATA), good.encode()))
    sim.run_until_idle()
    assert received[-1] == b"still alive"


def test_driver_counts_garbage_without_wedging(sim):
    line, driver, _received = make_driver(sim)
    from repro.kiss import commands
    from repro.kiss.framing import frame as kiss_frame
    # valid KISS framing around invalid AX.25
    line.b.write(kiss_frame(commands.type_byte(commands.CMD_DATA), b"\x01\x02\x03"))
    sim.run_until_idle()
    assert driver.frames_bad == 1


def test_driver_noise_between_frames_does_not_corrupt_neighbours(sim):
    line, driver, received = make_driver(sim)
    from repro.kiss import commands
    from repro.kiss.framing import frame as kiss_frame
    good = AX25Frame.ui(AX25Address("NT7GW"), AX25Address("KB7DZ"),
                        PID_ARPA_IP, b"frame-%d")
    record = kiss_frame(commands.type_byte(commands.CMD_DATA), good.encode())
    rng = random.Random(7)
    stream = bytearray()
    for index in range(5):
        stream += record
        stream += bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        stream += b"\xc0"   # noise burst terminated by a FEND
    line.b.write(bytes(stream))
    sim.run_until_idle()
    good_frames = [p for p in received if p == b"frame-%d"]
    assert len(good_frames) == 5


# ----------------------------------------------------------------------
# LAPB under random loss: everything still arrives, in order
# ----------------------------------------------------------------------

@pytest.mark.parametrize("loss_rate,seed", [(0.1, 1), (0.25, 2), (0.4, 3)])
def test_lapb_delivers_in_order_under_random_loss(loss_rate, seed):
    sim = Simulator()
    link = LinkHarness(sim, retries=30)
    rng = random.Random(seed)
    link.loss_predicate = lambda frame: rng.random() < loss_rate
    conn = link.a.connect(link.b_addr)
    sim.run(until=600 * SECOND)
    if conn.state is not LapbState.CONNECTED:
        pytest.skip("connection itself lost to extreme unlucky loss")
    payload = bytes(range(200))
    conn.send(payload)
    sim.run(until=3600 * SECOND)
    assert b"".join(link.b_received) == payload


# ----------------------------------------------------------------------
# TCP end to end over a lossy radio channel (bit errors)
# ----------------------------------------------------------------------

def test_tcp_completes_over_bit_error_channel():
    tb = build_figure1_testbed(seed=31)
    # retune both modems with a bit error rate: ~2% frame loss at 100B
    for attachment in (tb.host.radio, tb.peer.radio):
        station = attachment.tnc.station
        station.modem = ModemProfile(bit_rate=1200, bit_error_rate=3e-5)
        station.port.bit_error_rate = 3e-5
    received = []
    def on_accept(conn):
        TcpSocket(conn).on_data = received.append
    tb.peer.stack.tcp.listen(9, on_accept=on_accept)
    client = TcpSocket.connect(tb.host.stack, "44.24.0.5", 9,
                               rto_policy=AdaptiveRto())
    client.connection.max_retries = 50
    blob = bytes(1500)
    client.on_connect = lambda: client.send(blob)
    tb.sim.run(until=4 * 3600 * SECOND)
    assert b"".join(received) == blob
    # the channel really was lossy
    corrupted = sum(port.frames_corrupted for port in tb.channel.ports.values())
    assert corrupted > 0


def test_gateway_keeps_forwarding_after_noise_storm():
    tb = build_gateway_testbed(seed=32)
    # blast noise at the gateway's TNC->host serial line mid-flight
    noise = bytes(random.Random(3).randrange(256) for _ in range(500))
    tb.sim.schedule(5 * SECOND, tb.gateway.radio.serial.b.write, noise)
    pinger = Pinger(tb.pc.stack)
    pinger.send("128.95.1.2", count=3, interval=40 * SECOND)
    tb.sim.run(until=300 * SECOND)
    assert pinger.received == 3


def test_buffered_driver_bounds_raw_buffer_against_fendless_flood(sim):
    # Regression: the "buffered" ablation mode used to accumulate an
    # unbounded reassembly buffer when the line delivered bytes with no
    # FEND in sight (a wedged TNC spewing garbage can do exactly that).
    line = SerialLine(sim, baud=9600)
    driver = PacketRadioInterface(sim, line.a, AX25Address("NT7GW"),
                                  reassembly="buffered")
    received = []
    driver.input_handler = lambda packet, iface, proto: received.append(packet)
    line.b.write(b"\x55" * 10_000)     # never a FEND
    sim.run_until_idle()
    assert driver.raw_overflow_drops >= 1
    assert len(driver._raw_buffer) <= driver.raw_buffer_limit
    # the next FEND resynchronises and a good frame still gets through
    from repro.kiss import commands
    from repro.kiss.framing import frame as kiss_frame
    good = AX25Frame.ui(AX25Address("NT7GW"), AX25Address("KB7DZ"),
                        PID_ARPA_IP, b"resynchronised")
    line.b.write(kiss_frame(commands.type_byte(commands.CMD_DATA),
                            good.encode()))
    sim.run_until_idle()
    assert received[-1] == b"resynchronised"
