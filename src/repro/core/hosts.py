"""Host builders: the kinds of stations the paper's network contains.

* :class:`GatewayHost` -- the MicroVAX: Ultrix stack, DEQNA on the
  Ethernet, KISS TNC on a DZ serial line, IP forwarding between them.
* :class:`PcHost` -- an isolated PC running Karn-style TCP/IP over a
  KISS TNC ("connected to only a power outlet and a radio").
* :class:`TerminalStation` -- a dumb terminal plugged into a stock ROM
  TNC; no IP at all, just AX.25 connected mode.
* :func:`make_ethernet_host` -- an ordinary Internet host on a LAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.ax25.address import AX25Address, AX25Path
from repro.ax25.lapb import LinkTimerPolicy
from repro.core.access_control import AccessControlTable
from repro.core.driver import PacketRadioInterface
from repro.ethernet.deqna import Deqna
from repro.ethernet.frames import MacAddress
from repro.ethernet.lan import EthernetLan
from repro.inet.ether_if import EthernetInterface
from repro.inet.ip import IPv4Address
from repro.inet.netstack import NetStack
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.serialio.line import SerialLine
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.tnc.kiss_tnc import KissTnc
from repro.tnc.rom_tnc import RomTnc

#: The DZ line speed between host and TNC in the era's setups.
DEFAULT_SERIAL_BAUD = 9600


@dataclass
class RadioAttachment:
    """The serial-line + TNC + driver bundle shared by radio-capable hosts."""

    serial: SerialLine
    tnc: KissTnc
    interface: PacketRadioInterface


def attach_kiss_radio(
    sim: Simulator,
    stack: NetStack,
    channel: RadioChannel,
    callsign: "AX25Address | str",
    ip: "IPv4Address | str",
    serial_baud: int = DEFAULT_SERIAL_BAUD,
    modem: Optional[ModemProfile] = None,
    csma: Optional[CsmaParameters] = None,
    tnc_address_filter: bool = False,
    default_path: AX25Path = AX25Path(),
    tracer: Tracer = NULL_TRACER,
    ifname: str = "pr0",
    fidelity: str = "per_char",
) -> RadioAttachment:
    """Wire a KISS TNC + packet radio driver onto an existing stack.

    This is Figure 1 in code: Radio -- TNC -- RS-232 line -- DZ -- Host.

    ``fidelity`` selects the serial line's delivery granularity
    (``"per_char"`` or ``"frame"``; see :mod:`repro.serialio.line`).
    The TNC and the driver log to ``tracer``; left out, they share the
    stateless :data:`~repro.sim.trace.NULL_TRACER` and run untraced.
    """
    callsign = (
        callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
    )
    serial = SerialLine(sim, baud=serial_baud, name=f"{stack.hostname}.dz0",
                        fidelity=fidelity)
    tnc = KissTnc(
        sim,
        channel,
        serial.b,
        name=str(callsign),
        callsign=callsign,
        modem=modem,
        csma=csma,
        address_filter=tnc_address_filter,
        tracer=tracer,
    )
    interface = PacketRadioInterface(
        sim, serial.a, callsign, name=ifname, default_path=default_path, tracer=tracer
    )
    stack.attach_interface(interface, ip)
    return RadioAttachment(serial=serial, tnc=tnc, interface=interface)


@dataclass
class PcHost:
    """An IBM PC running the KA9Q-style TCP/IP package over packet radio."""

    stack: NetStack
    radio: RadioAttachment

    @property
    def interface(self) -> PacketRadioInterface:
        """The network interface of this host."""
        return self.radio.interface

    @property
    def callsign(self) -> AX25Address:
        """This station's AX.25 callsign."""
        return self.radio.interface.callsign


def make_radio_host(
    sim: Simulator,
    channel: RadioChannel,
    hostname: str,
    callsign: "AX25Address | str",
    ip: "IPv4Address | str",
    tracer: Tracer = NULL_TRACER,
    **radio_kwargs,
) -> PcHost:
    """Build an IP-speaking radio-only host (the isolated PC of §2.3)."""
    stack = NetStack(sim, hostname, tracer=tracer)
    radio = attach_kiss_radio(
        sim, stack, channel, callsign, ip, tracer=tracer, **radio_kwargs
    )
    return PcHost(stack=stack, radio=radio)


@dataclass
class GatewayHost:
    """The MicroVAX: Ethernet + packet radio + IP forwarding (+ §4.3 AC)."""

    stack: NetStack
    ether: EthernetInterface
    radio: RadioAttachment
    access_control: Optional[AccessControlTable] = None

    @property
    def radio_interface(self) -> PacketRadioInterface:
        """The packet radio interface of this gateway."""
        return self.radio.interface

    def enable_access_control(self, entry_ttl: Optional[int] = None,
                              tracer: Tracer = NULL_TRACER) -> AccessControlTable:
        """Turn on the §4.3 table (idempotent)."""
        if self.access_control is None:
            kwargs = {}
            if entry_ttl is not None:
                kwargs["entry_ttl"] = entry_ttl
            table = AccessControlTable(
                self.stack.sim, self.radio.interface, tracer=tracer, **kwargs
            )
            self.stack.forward_filter = table.filter
            self.stack.icmp_listeners.append(table.handle_icmp)
            self.access_control = table
        return self.access_control


def make_gateway(
    sim: Simulator,
    lan: EthernetLan,
    channel: RadioChannel,
    hostname: str,
    callsign: "AX25Address | str",
    ether_ip: "IPv4Address | str",
    radio_ip: "IPv4Address | str",
    mac_index: int,
    tracer: Tracer = NULL_TRACER,
    **radio_kwargs,
) -> GatewayHost:
    """Build the paper's gateway: both interfaces, forwarding on."""
    stack = NetStack(sim, hostname, tracer=tracer)
    stack.ip_forwarding = True
    deqna = Deqna(lan, MacAddress.station(mac_index), f"{hostname}.qe0")
    ether = EthernetInterface(sim, deqna, "qe0")
    stack.attach_interface(ether, ether_ip)
    radio = attach_kiss_radio(
        sim, stack, channel, callsign, radio_ip, tracer=tracer, **radio_kwargs
    )
    return GatewayHost(stack=stack, ether=ether, radio=radio)


def make_ethernet_host(
    sim: Simulator,
    lan: EthernetLan,
    hostname: str,
    ip: "IPv4Address | str",
    mac_index: int,
    tracer: Tracer = NULL_TRACER,
) -> NetStack:
    """An ordinary host on the department Ethernet."""
    stack = NetStack(sim, hostname, tracer=tracer)
    deqna = Deqna(lan, MacAddress.station(mac_index), f"{hostname}.qe0")
    iface = EthernetInterface(sim, deqna, "qe0")
    stack.attach_interface(iface, ip)
    return stack


class TerminalStation:
    """A human at a dumb terminal wired to a ROM TNC.

    :attr:`screen` accumulates everything the TNC prints;
    :meth:`type_line` models the operator typing a line and pressing
    return (bytes are spread out by the serial line's baud rate).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        callsign: "AX25Address | str",
        serial_baud: int = 1200,
        tracer: Tracer = NULL_TRACER,
        timer_policy: Optional[Callable[[], LinkTimerPolicy]] = None,
    ) -> None:
        self.sim = sim
        self.serial = SerialLine(sim, baud=serial_baud, name=f"term-{callsign}")
        self.screen = bytearray()
        self.serial.a.on_receive(self.screen.append)
        self.tnc = RomTnc(
            sim, channel, self.serial.b, callsign, tracer=tracer, echo=False,
            timer_policy=timer_policy,
        )

    def type_line(self, text: str) -> None:
        """Type ``text`` and press return."""
        self.serial.a.write(text.encode("latin-1") + b"\r")

    def press_ctrl_c(self) -> None:
        """Send a Ctrl-C to the TNC."""
        self.serial.a.write(b"\x03")

    def screen_text(self) -> str:
        """Everything printed so far, newline-normalised."""
        return self.screen.decode("latin-1").replace("\r\n", "\n")

    @property
    def callsign(self) -> AX25Address:
        """This station's AX.25 callsign."""
        return self.tnc.callsign
