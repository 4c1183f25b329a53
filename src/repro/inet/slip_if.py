"""SLIP: Serial Line IP (RFC 1055) as a point-to-point interface.

KISS "was inspired by SLIP" (Chepponis & Karn); the framing is the same
END/ESC discipline without the type byte.  In the paper's world SLIP is
how a campus connected outlying machines over leased serial lines, so
the reproduction includes it both for completeness and to build richer
topologies (e.g. a gateway reached over a serial link rather than an
Ethernet).

A :class:`SlipInterface` owns one end of a
:class:`~repro.serialio.line.SerialLine`; the peer address is
configured, there is no ARP, and each received byte feeds a
character-at-a-time deframer exactly like the packet radio driver's.
"""

from __future__ import annotations

from typing import Optional

from repro.inet.ip import IPv4Address
from repro.kiss.framing import escape
from repro.netif.ifnet import InterfaceFlags, NetworkInterface
from repro.serialio.line import SerialEndpoint
from repro.sim.engine import Simulator

SLIP_END = 0xC0
SLIP_ESC = 0xDB
SLIP_ESC_END = 0xDC
SLIP_ESC_ESC = 0xDD

#: RFC 1055's suggested maximum (the BSD SLIP default of 1006 is the
#: historically common value; 296 was the interactive-response choice).
SLIP_MTU = 1006

_END_BYTES = bytes((SLIP_END,))


def slip_encode(packet: bytes) -> bytes:
    """Frame one packet: leading+trailing END, ESC stuffing inside.

    SLIP's END/ESC/ESC_END/ESC_ESC are KISS's FEND/FESC/TFEND/TFESC, so
    the stuffing is :func:`repro.kiss.framing.escape`.
    """
    return _END_BYTES + escape(packet) + _END_BYTES


class SlipDeframer:
    """Byte-at-a-time SLIP receive state machine.

    RFC 1055 behaviour for protocol violations: a bad escape puts the
    errant byte into the packet (the reference implementation's choice)
    but we count it, and the IP checksum upstream catches the damage.
    That is why SLIP keeps its own deframer while sharing KISS's
    escaping: :class:`~repro.kiss.framing.KissDeframer` drops the frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._escaped = False
        self.packets: list = []
        self.errors = 0

    def push_byte(self, byte: int) -> Optional[bytes]:
        """Feed one byte; returns a completed packet when END arrives."""
        if byte == SLIP_END:
            self._escaped = False
            if self._buffer:
                packet = bytes(self._buffer)
                self._buffer.clear()
                self.packets.append(packet)
                return packet
            return None
        if self._escaped:
            if byte == SLIP_ESC_END:
                self._buffer.append(SLIP_END)
            elif byte == SLIP_ESC_ESC:
                self._buffer.append(SLIP_ESC)
            else:
                self.errors += 1
                self._buffer.append(byte)
            self._escaped = False
            return None
        if byte == SLIP_ESC:
            self._escaped = True
            return None
        self._buffer.append(byte)
        return None


class SlipInterface(NetworkInterface):
    """sl0: IP over a dedicated serial line to one known peer."""

    def __init__(self, sim: Simulator, endpoint: SerialEndpoint,
                 name: str = "sl0", mtu: int = SLIP_MTU) -> None:
        super().__init__(sim, name, mtu,
                         flags=InterfaceFlags.UP | InterfaceFlags.POINTOPOINT
                         | InterfaceFlags.NOARP)
        self.endpoint = endpoint
        #: The configured far-end address (ifconfig sl0 <local> <remote>).
        self.peer_address: Optional[IPv4Address] = None
        self._deframer = SlipDeframer()
        endpoint.on_receive(self._rx_byte)

    def set_peer(self, peer: "IPv4Address | str") -> None:
        """Configure the point-to-point peer address."""
        self.peer_address = IPv4Address.coerce(peer)

    @property
    def output_backlog(self) -> int:
        """Bytes queued toward the hardware, not yet on the wire."""
        return self.endpoint.tx_backlog_bytes

    def if_output(self, packet: bytes, next_hop: IPv4Address,
                  protocol: str = "ip") -> bool:
        """Transmit one layer-3 packet toward the next hop."""
        if not self.is_up:
            self.oerrors += 1
            return False
        if len(packet) > self.mtu + 20:
            self.oerrors += 1
            return False
        self.count_output(packet)
        self.endpoint.write(slip_encode(packet))
        return True

    def _rx_byte(self, byte: int) -> None:
        packet = self._deframer.push_byte(byte)
        if packet is not None:
            self.deliver_input(packet, "ip")

    @property
    def framing_errors(self) -> int:
        """Count of framing violations seen."""
        return self._deframer.errors
