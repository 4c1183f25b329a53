"""Tests for the SLIP interface (RFC 1055)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.apps.ping import Pinger
from repro.inet.netstack import NetStack
from repro.inet.slip_if import (
    SLIP_END,
    SLIP_ESC,
    SLIP_ESC_END,
    SLIP_ESC_ESC,
    SlipDeframer,
    SlipInterface,
    slip_encode,
)
from repro.inet.sockets import TcpSocket
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def test_encode_wraps_with_end():
    framed = slip_encode(b"abc")
    assert framed[0] == SLIP_END and framed[-1] == SLIP_END
    assert framed[1:-1] == b"abc"


def test_encode_escapes_special_bytes():
    framed = slip_encode(bytes([SLIP_END, SLIP_ESC]))
    assert framed == bytes([SLIP_END, SLIP_ESC, 0xDC, SLIP_ESC, 0xDD, SLIP_END])


def _reference_encode(packet) -> bytes:
    """RFC 1055's per-byte send loop, which ``slip_encode`` must match."""
    out = bytearray((SLIP_END,))
    for byte in packet:
        if byte == SLIP_END:
            out += bytes((SLIP_ESC, SLIP_ESC_END))
        elif byte == SLIP_ESC:
            out += bytes((SLIP_ESC, SLIP_ESC_ESC))
        else:
            out.append(byte)
    out.append(SLIP_END)
    return bytes(out)


@given(st.one_of(
    st.lists(st.sampled_from([SLIP_END, SLIP_ESC, SLIP_ESC_END,
                              SLIP_ESC_ESC, 0x00, 0x41]),
             max_size=64).map(bytes),
    st.binary(max_size=512),
))
def test_encode_matches_per_byte_reference(packet):
    assert slip_encode(packet) == _reference_encode(packet)


def test_deframer_round_trip():
    deframer = SlipDeframer()
    packet = bytes([1, SLIP_END, 2, SLIP_ESC, 3])
    result = None
    for byte in slip_encode(packet):
        got = deframer.push_byte(byte)
        if got is not None:
            result = got
    assert result == packet


def test_deframer_skips_empty_frames():
    deframer = SlipDeframer()
    for byte in bytes([SLIP_END, SLIP_END, SLIP_END]):
        assert deframer.push_byte(byte) is None


def test_deframer_bad_escape_counted_not_fatal():
    deframer = SlipDeframer()
    stream = bytes([SLIP_END, 0x41, SLIP_ESC, 0x42, SLIP_END])
    packets = [p for p in (deframer.push_byte(b) for b in stream) if p]
    assert deframer.errors == 1
    assert packets == [bytes([0x41, 0x42])]  # RFC 1055 reference behaviour


@given(st.lists(st.binary(min_size=1, max_size=200), max_size=6))
def test_deframer_stream_property(packets):
    deframer = SlipDeframer()
    stream = b"".join(slip_encode(p) for p in packets)
    out = [p for p in (deframer.push_byte(b) for b in stream) if p is not None]
    assert out == packets


# ----------------------------------------------------------------------
# as an interface
# ----------------------------------------------------------------------

def slip_pair(sim, baud=9600):
    line = SerialLine(sim, baud=baud, name="leased-line")
    a = NetStack(sim, "campus-a")
    b = NetStack(sim, "campus-b")
    if_a = SlipInterface(sim, line.a, "sl0")
    if_b = SlipInterface(sim, line.b, "sl0")
    a.attach_interface(if_a, "192.12.40.1", network_route=False)
    b.attach_interface(if_b, "192.12.40.2", network_route=False)
    if_a.set_peer("192.12.40.2")
    if_b.set_peer("192.12.40.1")
    a.routes.add_host_route("192.12.40.2", if_a)
    b.routes.add_host_route("192.12.40.1", if_b)
    return a, b, if_a, if_b, line


def test_ping_over_slip(sim):
    a, _b, _ia, _ib, _line = slip_pair(sim)
    pinger = Pinger(a)
    pinger.send("192.12.40.2", count=3, interval=1 * SECOND)
    sim.run(until=10 * SECOND)
    assert pinger.received == 3
    # 9600 baud serial: RTT well under a second but not instantaneous.
    assert 0 < min(pinger.rtts_us) < 1 * SECOND


def test_tcp_over_slip(sim):
    a, b, _ia, _ib, _line = slip_pair(sim)
    received = []
    def on_accept(conn):
        TcpSocket(conn).on_data = lambda d: received.append(d)
    b.tcp.listen(7, on_accept=on_accept)
    client = TcpSocket.connect(a, "192.12.40.2", 7)
    blob = bytes(range(256)) * 8
    client.on_connect = lambda: client.send(blob)
    sim.run(until=60 * SECOND)
    assert b"".join(received) == blob


def test_slip_line_noise_is_survivable(sim):
    """Random corrupt bytes between frames are rejected by IP checksums."""
    a, _b, if_a, if_b, line = slip_pair(sim)
    # inject garbage directly onto the wire toward b
    line.a.write(bytes([0xC0, 0x13, 0x37, 0xC0, 0xDB, 0x99, 0xC0]))
    sim.run(until=1 * SECOND)
    pinger = Pinger(a)
    pinger.send("192.12.40.2", count=2, interval=1 * SECOND)
    sim.run(until=10 * SECOND)
    assert pinger.received == 2
    assert if_b.framing_errors >= 1


def test_oversize_packet_refused(sim):
    _a, _b, if_a, _ib, _line = slip_pair(sim)
    from repro.inet.ip import IPv4Address
    assert not if_a.if_output(bytes(if_a.mtu + 100),
                              IPv4Address.parse("192.12.40.2"))
    assert if_a.oerrors == 1


def test_slip_used_as_gateway_uplink(sim):
    """A radio gateway whose Internet side is a SLIP leased line."""
    from repro.core.hosts import attach_kiss_radio, make_radio_host
    from repro.radio.channel import RadioChannel
    from repro.sim.rand import RandomStreams

    streams = RandomStreams(seed=5)
    channel = RadioChannel(sim, streams)
    # gateway: radio on one side, SLIP uplink on the other
    gw = NetStack(sim, "slip-gw")
    gw.ip_forwarding = True
    attach_kiss_radio(sim, gw, channel, "NT7GW", "44.24.0.28")
    line = SerialLine(sim, baud=9600)
    uplink = SlipInterface(sim, line.a, "sl0")
    gw.attach_interface(uplink, "192.12.40.1", network_route=False)
    uplink.set_peer("192.12.40.2")
    gw.routes.add_host_route("192.12.40.2", uplink)

    campus = NetStack(sim, "campus")
    downlink = SlipInterface(sim, line.b, "sl0")
    campus.attach_interface(downlink, "192.12.40.2", network_route=False)
    downlink.set_peer("192.12.40.1")
    campus.routes.add_host_route("192.12.40.1", downlink)
    campus.routes.add_network_route("44.0.0.0", downlink,
                                    gateway="192.12.40.1")

    pc = make_radio_host(sim, channel, "pc", "KB7DZ", "44.24.0.5")
    pc.stack.routes.set_default(pc.interface, "44.24.0.28")

    pinger = Pinger(pc.stack)
    pinger.send("192.12.40.2", count=1)
    sim.run(until=120 * SECOND)
    assert pinger.received == 1
    assert gw.counters["ip_forwarded"] >= 2
