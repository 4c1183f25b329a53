"""Tests for the packet radio pseudo-device driver (the paper's core)."""

from __future__ import annotations

from typing import List

import pytest

from repro.ax25.address import AX25Address, AX25Path, encode_address_field
from repro.ax25.defs import PID_ARPA_ARP, PID_ARPA_IP, PID_NO_L3
from repro.ax25.frames import AX25Frame
from repro.core.driver import PacketRadioInterface
from repro.inet.arp import ARP_REPLY, ARP_REQUEST, ArpPacket, HRD_AX25
from repro.inet.ip import IPv4Address
from repro.kiss import commands
from repro.kiss.framing import FEND, KissDeframer, frame as kiss_frame
from repro.serialio.line import SerialLine
from repro.serialio.tty import Tty

MY_CALL = AX25Address("NT7GW")
PEER_CALL = AX25Address("KB7DZ")
MY_IP = IPv4Address.parse("44.24.0.28")
PEER_IP = IPv4Address.parse("44.24.0.5")


class DriverHarness:
    """Driver + tty + a fake TNC endpoint we control byte-by-byte."""

    def __init__(self, sim, reassembly="per_char", **kwargs):
        self.sim = sim
        self.line = SerialLine(sim, baud=9600)
        self.tty = Tty(self.line.a)
        self.driver = PacketRadioInterface(
            sim, self.tty, MY_CALL, reassembly=reassembly, **kwargs
        )
        self.driver.address = MY_IP
        self.ip_in: List[bytes] = []
        self.driver.input_handler = (
            lambda packet, iface, proto: self.ip_in.append(packet)
            if proto == "ip" else None
        )
        # capture what the driver writes toward the TNC
        self.tnc_deframer = KissDeframer()
        self.line.b.on_receive(self.tnc_deframer.push_byte)

    def feed_frame(self, frame: AX25Frame) -> None:
        """Deliver a frame to the driver as the TNC would: KISS over serial."""
        record = kiss_frame(commands.type_byte(commands.CMD_DATA), frame.encode())
        self.line.b.write(record)
        self.sim.run_until_idle()

    def sent_frames(self) -> List[AX25Frame]:
        return [AX25Frame.decode(p) for t, p in self.tnc_deframer.frames
                if t & 0x0F == commands.CMD_DATA]


@pytest.fixture
def harness(sim):
    return DriverHarness(sim)


# ----------------------------------------------------------------------
# receive path
# ----------------------------------------------------------------------

def test_ip_frame_reaches_ip_input(harness):
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, b"ip-bytes")
    harness.feed_frame(frame)
    assert harness.ip_in == [b"ip-bytes"]
    assert harness.driver.frames_ip_in == 1


def test_broadcast_frame_accepted(harness):
    frame = AX25Frame.ui(AX25Address("QST"), PEER_CALL, PID_ARPA_IP, b"bcast")
    harness.feed_frame(frame)
    assert harness.ip_in == [b"bcast"]


def test_frame_for_other_station_discarded(harness):
    frame = AX25Frame.ui(AX25Address("W9XYZ"), PEER_CALL, PID_ARPA_IP, b"not-ours")
    harness.feed_frame(frame)
    assert harness.ip_in == []
    assert harness.driver.frames_not_for_us == 1


def test_frame_still_being_digipeated_discarded(harness):
    path = AX25Path.of("WB7DIG")           # unrepeated hop pending
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, b"in transit", path)
    harness.feed_frame(frame)
    assert harness.ip_in == []
    assert harness.driver.frames_not_for_us == 1


def test_fully_digipeated_frame_accepted(harness):
    path = AX25Path.of("WB7DIG").mark_repeated(AX25Address("WB7DIG"))
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, b"arrived", path)
    harness.feed_frame(frame)
    assert harness.ip_in == [b"arrived"]


def test_non_ip_frame_queued_for_user_program(harness):
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_NO_L3, b"chat text")
    harness.feed_frame(frame)
    assert harness.ip_in == []
    assert harness.driver.frames_non_ip == 1
    assert len(harness.driver.non_ip_queue) == 1
    assert harness.driver.non_ip_queue[0].info == b"chat text"


def test_non_ip_handler_hook_takes_priority(sim):
    harness = DriverHarness(sim)
    hooked = []
    harness.driver.non_ip_handler = hooked.append
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_NO_L3, b"for the app gateway")
    harness.feed_frame(frame)
    assert len(hooked) == 1
    assert harness.driver.non_ip_queue == []


def test_non_ip_queue_bounded(sim):
    harness = DriverHarness(sim)
    harness.driver.non_ip_queue_limit = 2
    for index in range(4):
        harness.feed_frame(
            AX25Frame.ui(MY_CALL, PEER_CALL, PID_NO_L3, bytes([index]))
        )
    assert len(harness.driver.non_ip_queue) == 2
    assert harness.driver.non_ip_drops == 2


def test_undecodable_frame_counted_bad(harness):
    record = kiss_frame(commands.type_byte(commands.CMD_DATA), b"\x01\x02garbage")
    harness.line.b.write(record)
    harness.sim.run_until_idle()
    assert harness.driver.frames_bad == 1
    assert harness.ip_in == []


def _bad_destination_block() -> bytes:
    field = bytearray(encode_address_field(AX25Address("W9XYZ"), PEER_CALL))
    field[0] |= 0x01  # extension bit inside the callsign bytes
    return bytes(field) + bytes([0x03, 0xCC])


@pytest.mark.parametrize("raw", [
    # A well-formed address field for another station, then a control
    # byte no frame type uses.
    encode_address_field(AX25Address("W9XYZ"), PEER_CALL) + bytes([0xEF]),
    _bad_destination_block(),
], ids=["unknown-control", "bad-destination-block"])
def test_malformed_frame_counts_bad_every_time(harness, raw):
    record = kiss_frame(commands.type_byte(commands.CMD_DATA), raw)
    for _ in range(2):
        harness.line.b.write(record)
        harness.sim.run_until_idle()
    assert harness.driver.frames_bad == 2
    assert harness.driver.frames_not_for_us == 0


def test_escaped_bytes_decoded_on_the_fly(harness):
    payload = bytes([FEND, 0xDB, FEND, 0x41])
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, payload)
    harness.feed_frame(frame)
    assert harness.ip_in == [payload]


def test_per_char_interrupts_counted(harness):
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, b"12345")
    record = kiss_frame(commands.type_byte(commands.CMD_DATA), frame.encode())
    harness.line.b.write(record)
    harness.sim.run_until_idle()
    assert harness.driver.rx_char_interrupts == len(record)


def test_buffered_reassembly_mode_equivalent_output(sim):
    per_char = DriverHarness(sim, reassembly="per_char")
    buffered = DriverHarness(sim, reassembly="buffered")
    payload = bytes([FEND, 0xDB]) + b"same frames"
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_IP, payload)
    per_char.feed_frame(frame)
    buffered.feed_frame(frame)
    assert per_char.ip_in == buffered.ip_in == [payload]
    # The buffered strategy touches every byte twice.
    assert buffered.driver.processing_ops > per_char.driver.processing_ops


def test_unknown_reassembly_mode_rejected(sim):
    line = SerialLine(sim, baud=9600)
    with pytest.raises(ValueError):
        PacketRadioInterface(sim, Tty(line.a), MY_CALL, reassembly="psychic")


# ----------------------------------------------------------------------
# transmit path
# ----------------------------------------------------------------------

def test_if_output_resolves_and_sends_ui_ip_frame(sim):
    harness = DriverHarness(sim)
    harness.driver.add_arp_entry(PEER_IP, PEER_CALL)
    assert harness.driver.if_output(b"ip-payload", PEER_IP)
    sim.run_until_idle()
    frames = harness.sent_frames()
    assert len(frames) == 1
    sent = frames[0]
    assert sent.destination.matches(PEER_CALL)
    assert sent.source.matches(MY_CALL)
    assert sent.pid == PID_ARPA_IP
    assert sent.info == b"ip-payload"


def test_if_output_unresolved_broadcasts_arp_request(sim):
    harness = DriverHarness(sim)
    harness.driver.if_output(b"held", PEER_IP)
    sim.run_until_idle()
    frames = harness.sent_frames()
    # initial request plus the unanswered retries -- all ARP broadcasts
    assert len(frames) == 3
    assert all(f.pid == PID_ARPA_ARP for f in frames)
    assert all(str(f.destination) == "QST" for f in frames)


def test_arp_reply_learns_path_and_flushes(sim):
    harness = DriverHarness(sim)
    harness.driver.if_output(b"held-packet", PEER_IP)
    sim.run(until=500 * 1000)   # request on the wire, retries still pending
    # Peer replies through a digipeater: driver learns reversed path.
    reply = ArpPacket(
        HRD_AX25, ARP_REPLY,
        PEER_CALL.encode(last=True), PEER_IP,
        MY_CALL.encode(last=True), MY_IP,
    )
    path = AX25Path.of("K3MC").mark_repeated(AX25Address("K3MC"))
    frame = AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_ARP, reply.encode(), path)
    harness.feed_frame(frame)
    frames = harness.sent_frames()
    data = [f for f in frames if f.pid == PID_ARPA_IP]
    assert len(data) == 1
    assert data[0].info == b"held-packet"
    # Flushed frame uses the learned (reversed) digipeater path.
    assert str(data[0].path) == "K3MC"


def test_static_arp_entry_with_path(sim):
    harness = DriverHarness(sim)
    harness.driver.add_arp_entry(PEER_IP, PEER_CALL, AX25Path.of("WB7DIG"))
    harness.driver.if_output(b"via digi", PEER_IP)
    sim.run_until_idle()
    sent = harness.sent_frames()[0]
    assert str(sent.path) == "WB7DIG"
    assert sent.link_destination.matches(AX25Address("WB7DIG"))


def test_undecodable_arp_hardware_address_dropped_without_tracer(sim):
    """Line noise can leave a garbage hardware address in the ARP cache.

    A driver built without a tracer (``attach_kiss_radio``'s default)
    must drop on both send paths, the resolved IP datagram and the ARP
    reply, rather than raise; nothing goes toward the TNC.
    """
    harness = DriverHarness(sim)
    assert harness.driver.tracer is None
    garbage = b"\xff" * 7
    harness.driver.arp.add_static(PEER_IP, garbage)
    assert harness.driver.if_output(b"ip-payload", PEER_IP)
    sim.run_until_idle()
    request = ArpPacket(HRD_AX25, ARP_REQUEST, garbage,
                        IPv4Address.parse("44.24.0.6"), bytes(7), MY_IP)
    harness.feed_frame(AX25Frame.ui(MY_CALL, PEER_CALL, PID_ARPA_ARP,
                                    request.encode()))
    assert harness.driver.arp.replies_sent == 1
    assert harness.line.a.bytes_sent == 0
    assert harness.tnc_deframer.frames == []


def test_broadcast_ip_goes_to_qst(sim):
    harness = DriverHarness(sim)
    harness.driver.if_output(b"everyone", IPv4Address.parse("255.255.255.255"))
    sim.run_until_idle()
    sent = harness.sent_frames()[0]
    assert str(sent.destination) == "QST"
    assert sent.pid == PID_ARPA_IP


def test_down_interface_refuses_output(sim):
    harness = DriverHarness(sim)
    harness.driver.if_ioctl("down")
    assert not harness.driver.if_output(b"x", PEER_IP)
    assert harness.driver.oerrors == 1


def test_kiss_ioctls_emit_command_records(sim):
    harness = DriverHarness(sim)
    harness.driver.if_ioctl("txdelay", 25)
    harness.driver.if_ioctl("persist", 63)
    harness.driver.if_ioctl("slottime", 10)
    sim.run_until_idle()
    records = harness.tnc_deframer.frames
    assert [(t & 0x0F, p) for t, p in records] == [
        (commands.CMD_TXDELAY, b"\x19"),
        (commands.CMD_PERSIST, b"\x3f"),
        (commands.CMD_SLOTTIME, b"\x0a"),
    ]


def test_unknown_ioctl_falls_through_to_base(sim):
    harness = DriverHarness(sim)
    harness.driver.if_ioctl("mtu", 512)
    assert harness.driver.mtu == 512
    with pytest.raises(ValueError):
        harness.driver.if_ioctl("bogus")
