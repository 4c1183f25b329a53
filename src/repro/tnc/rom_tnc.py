"""The stock ROM TNC: command interpreter plus firmware AX.25 level 2.

"It 'packetizes' data in a manner conforming to the AX.25 link layer
protocol, provides a command interpreter, and has a primitive network
layer protocol for use with terminals unable to support this layer on
their own."

This model gives a terminal-only station everything it had in 1987:

* a ``cmd:`` prompt with the classic TAPR commands -- ``MYCALL``,
  ``CONNECT <call> [VIA digi,...]``, ``DISCONNECT``, ``CONVERSE``,
  ``UNPROTO``, ``MHEARD``, ``HELP``;
* converse mode, where typed lines ride AX.25 I frames over a
  connected-mode link (or UI frames to the UNPROTO destination);
* asynchronous ``*** CONNECTED to``/``*** DISCONNECTED`` notices.

Ctrl-C (0x03) returns from converse to command mode, as on a real TNC-2.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.ax25.address import AX25Address, AX25Path, AddressError, parse_path
from repro.ax25.defs import PID_NO_L3
from repro.ax25.frames import AX25Frame, FrameError
from repro.ax25.lapb import LapbConnection, LapbEndpoint, LinkTimerPolicy
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.serialio.line import SerialEndpoint
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

_CTRL_C = 0x03
_PROMPT = b"cmd: "


class RomTnc:
    """TNC with the stock (non-KISS) firmware, driven from a terminal."""

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        serial: SerialEndpoint,
        callsign: "AX25Address | str",
        modem: Optional[ModemProfile] = None,
        csma: Optional[CsmaParameters] = None,
        tracer: Tracer = NULL_TRACER,
        echo: bool = True,
        timer_policy: Optional[Callable[[], LinkTimerPolicy]] = None,
    ) -> None:
        self.sim = sim
        self.serial = serial
        self.callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.tracer = tracer
        self.echo = echo
        self.station = RadioStation(
            sim,
            channel,
            str(self.callsign),
            modem=modem,
            csma=csma,
            on_frame=self._frame_from_air,
        )
        self.endpoint = LapbEndpoint(
            sim,
            self.callsign,
            send_frame=self.station.send_frame_object,
            t1=5 * SECOND,
            timer_policy=timer_policy,
            tracer=tracer,
        )
        self.endpoint.on_connect = self._link_connected
        self.endpoint.on_data = self._link_data
        self.endpoint.on_disconnect = self._link_disconnected

        self.converse = False
        self.active: Optional[LapbConnection] = None
        self.unproto_dest = AX25Address("CQ")
        self.unproto_path = AX25Path()
        self.heard: Dict[str, int] = {}
        self._line_buffer = bytearray()
        serial.on_receive(self._byte_from_terminal)
        self._print(b"repro TNC firmware 1.0\r\n")
        self._prompt()

    # ------------------------------------------------------------------
    # terminal side
    # ------------------------------------------------------------------

    def _print(self, data: bytes) -> None:
        self.serial.write(data)

    def _prompt(self) -> None:
        if not self.converse:
            self._print(_PROMPT)

    def _byte_from_terminal(self, byte: int) -> None:
        if byte == _CTRL_C:
            if self.converse:
                self.converse = False
                self._line_buffer.clear()
                self._print(b"\r\n")
                self._prompt()
            return
        if byte in (0x0D, 0x0A):
            if self.echo:
                self._print(b"\r\n")
            line = self._line_buffer.decode("latin-1")
            self._line_buffer.clear()
            if self.converse:
                self._converse_line(line)
            else:
                self._command_line(line)
            return
        self._line_buffer.append(byte)
        if self.echo:
            self._print(bytes((byte,)))

    # ------------------------------------------------------------------
    # command interpreter
    # ------------------------------------------------------------------

    def _command_line(self, line: str) -> None:
        words = line.split()
        if not words:
            self._prompt()
            return
        verb = words[0].upper()
        args = words[1:]
        handler = {
            "MYCALL": self._cmd_mycall,
            "CONNECT": self._cmd_connect,
            "C": self._cmd_connect,
            "DISCONNECT": self._cmd_disconnect,
            "D": self._cmd_disconnect,
            "CONVERSE": self._cmd_converse,
            "K": self._cmd_converse,
            "UNPROTO": self._cmd_unproto,
            "MHEARD": self._cmd_mheard,
            "HELP": self._cmd_help,
        }.get(verb)
        if handler is None:
            self._print(b"*** What?\r\n")
            self._prompt()
            return
        handler(args)

    def _cmd_mycall(self, args: list) -> None:
        if args:
            try:
                self.callsign = AX25Address.parse(args[0])
                self.endpoint.address = self.callsign
                self._print(f"MYCALL {self.callsign}\r\n".encode())
            except AddressError:
                self._print(b"*** bad callsign\r\n")
        else:
            self._print(f"MYCALL {self.callsign}\r\n".encode())
        self._prompt()

    def _cmd_connect(self, args: list) -> None:
        if not args:
            self._print(b"*** usage: CONNECT call [VIA d1,d2]\r\n")
            self._prompt()
            return
        try:
            remote = AX25Address.parse(args[0])
            path = AX25Path()
            if len(args) >= 3 and args[1].upper() in ("VIA", "V"):
                path = parse_path(",".join(args[2:]))
        except AddressError as exc:
            self._print(f"*** {exc}\r\n".encode())
            self._prompt()
            return
        self._print(f"*** trying {remote}...\r\n".encode())
        self.active = self.endpoint.connect(remote, path)

    def _cmd_disconnect(self, args: list) -> None:
        if self.active is not None:
            self.active.disconnect()
        else:
            self._print(b"*** not connected\r\n")
            self._prompt()

    def _cmd_converse(self, args: list) -> None:
        self.converse = True

    def _cmd_unproto(self, args: list) -> None:
        if args:
            try:
                self.unproto_dest = AX25Address.parse(args[0])
                if len(args) >= 3 and args[1].upper() in ("VIA", "V"):
                    self.unproto_path = parse_path(",".join(args[2:]))
            except AddressError:
                self._print(b"*** bad address\r\n")
        self._print(f"UNPROTO {self.unproto_dest}\r\n".encode())
        self._prompt()

    def _cmd_mheard(self, args: list) -> None:
        if not self.heard:
            self._print(b"*** nothing heard\r\n")
        for call, count in sorted(self.heard.items()):
            self._print(f"{call:<10} {count}\r\n".encode())
        self._prompt()

    def _cmd_help(self, args: list) -> None:
        self._print(
            b"MYCALL CONNECT DISCONNECT CONVERSE UNPROTO MHEARD HELP\r\n"
        )
        self._prompt()

    # ------------------------------------------------------------------
    # converse mode
    # ------------------------------------------------------------------

    def _converse_line(self, line: str) -> None:
        data = (line + "\r").encode("latin-1")
        if self.active is not None and self.active.connected:
            self.active.send(data)
        else:
            frame = AX25Frame.ui(
                self.unproto_dest, self.callsign, PID_NO_L3, data, self.unproto_path
            )
            self.station.send_frame(frame.encode())

    # ------------------------------------------------------------------
    # radio side
    # ------------------------------------------------------------------

    def _frame_from_air(self, payload: bytes) -> None:
        try:
            frame = AX25Frame.decode(payload)
        except FrameError:
            return
        key = str(frame.source)
        self.heard[key] = self.heard.get(key, 0) + 1
        if not frame.path.fully_repeated:
            return  # still on its way through digipeaters; not for us yet
        if frame.destination.matches(self.callsign):
            self.endpoint.handle_frame(frame)

    # ------------------------------------------------------------------
    # link callbacks
    # ------------------------------------------------------------------

    def _link_connected(self, conn: LapbConnection, initiated: bool) -> None:
        self.active = conn
        self.converse = True
        self._print(f"*** CONNECTED to {conn.remote}\r\n".encode())
        self.tracer.log("tnc.link", str(self.callsign), f"connected {conn.remote}")

    def _link_data(self, conn: LapbConnection, data: bytes, pid: int) -> None:
        self._print(data.replace(b"\r", b"\r\n"))

    def _link_disconnected(self, conn: LapbConnection, reason: str) -> None:
        if self.active is conn:
            self.active = None
        self.converse = False
        notice = f"*** DISCONNECTED from {conn.remote}"
        if reason:
            notice += f" ({reason})"
        self._print(notice.encode() + b"\r\n")
        self._prompt()
        self.tracer.log("tnc.link", str(self.callsign), f"disconnected {conn.remote}")
