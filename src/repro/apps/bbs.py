"""The packet bulletin board system.

"Another development was that some users connected their TNCs to
computers on which they ran packet bulletin board software. ... Users
with terminals were able to leave messages and read messages. ... The
BBSs would forward mail to other BBSs for non-local users using packet
radio."

The BBS speaks AX.25 connected mode (level 2) directly -- terminal
users connect to its callsign with a stock TNC.  Commands follow the
W0RLI-style conventions: ``L`` list, ``R n`` read, ``S CALL`` send
(body ends with ``/EX``), ``B`` bye, ``H`` help.  Mail addressed
``user@host`` can be handed to an Internet mail hook (the gateway's
SMTP client) -- the interconnection the paper exists to provide.
Store-and-forward to a peer BBS replays an ``S``-command session over
a fresh AX.25 connection, as real forwarding protocols did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.ax25.address import AX25Address, AX25Path
from repro.ax25.frames import AX25Frame, FrameError
from repro.ax25.lapb import LapbConnection, LapbEndpoint, LinkTimerPolicy
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass
class BbsMessage:
    """One stored message."""

    number: int
    to: str
    origin: str
    body: str
    forwarded: bool = False


class _Session:
    """Per-connection interpreter state."""

    def __init__(self, bbs: "BulletinBoard", conn: LapbConnection) -> None:
        self.bbs = bbs
        self.conn = conn
        self.buffer = bytearray()
        self.composing_to: Optional[str] = None
        self.compose_lines: List[str] = []

    def data(self, chunk: bytes) -> None:
        """Consume bytes arriving from the remote end."""
        self.buffer += chunk
        while True:
            index = -1
            for terminator in (0x0D, 0x0A):
                found = self.buffer.find(bytes((terminator,)))
                if found >= 0 and (index < 0 or found < index):
                    index = found
            if index < 0:
                return
            raw = bytes(self.buffer[:index])
            del self.buffer[: index + 1]
            self.line(raw.decode("latin-1").strip())

    def send(self, text: str) -> None:
        """Send bytes to the peer."""
        self.conn.send((text + "\r").encode("latin-1"))

    def line(self, line: str) -> None:
        """Interpret one complete input line."""
        if self.composing_to is not None:
            if line.upper() == "/EX":
                self.bbs.store_message(self.composing_to, str(self.conn.remote),
                                       "\n".join(self.compose_lines))
                self.send("Message saved")
                self.composing_to = None
                self.compose_lines = []
                self.send(self.bbs.PROMPT)
            else:
                self.compose_lines.append(line)
            return
        words = line.split()
        if not words:
            self.send(self.bbs.PROMPT)
            return
        verb = words[0].upper()
        if verb == "L":
            self.cmd_list()
        elif verb == "R" and len(words) > 1:
            self.cmd_read(words[1])
        elif verb == "S" and len(words) > 1:
            self.composing_to = words[1].upper()
            self.send("Enter message, /EX to end")
        elif verb == "B":
            self.send("73!")
            self.conn.disconnect()
            return
        elif verb == "H":
            self.send("L=list R n=read S call=send B=bye")
            self.send(self.bbs.PROMPT)
        else:
            self.send("?" )
            self.send(self.bbs.PROMPT)

    def cmd_list(self) -> None:
        """The L command: list stored messages."""
        if not self.bbs.messages:
            self.send("No messages")
        for message in self.bbs.messages:
            self.send(f"{message.number:>3} {message.to:<9} fm {message.origin}")
        self.send(self.bbs.PROMPT)

    def cmd_read(self, number_text: str) -> None:
        """The R command: print one message."""
        try:
            number = int(number_text)
        except ValueError:
            self.send("?")
            self.send(self.bbs.PROMPT)
            return
        for message in self.bbs.messages:
            if message.number == number:
                self.send(f"To: {message.to}  Fm: {message.origin}")
                for body_line in message.body.split("\n"):
                    self.send(body_line)
                self.send(self.bbs.PROMPT)
                return
        self.send("No such message")
        self.send(self.bbs.PROMPT)


class BulletinBoard:
    """A BBS station on the shared channel."""

    PROMPT = ">"

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        callsign: "AX25Address | str",
        modem: Optional[ModemProfile] = None,
        csma: Optional[CsmaParameters] = None,
        tracer: Tracer = NULL_TRACER,
        timer_policy: Optional[Callable[[], LinkTimerPolicy]] = None,
    ) -> None:
        self.sim = sim
        self.callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.tracer = tracer
        self.station = RadioStation(
            sim, channel, str(self.callsign), modem=modem, csma=csma,
            on_frame=self._from_air,
        )
        self.endpoint = LapbEndpoint(
            sim, self.callsign,
            send_frame=self.station.send_frame_object,
            t1=5 * SECOND,
            timer_policy=timer_policy,
            tracer=tracer,
        )
        self.endpoint.on_connect = self._connected
        self.endpoint.on_data = self._data
        self.endpoint.on_disconnect = self._disconnected
        self.messages: List[BbsMessage] = []
        self._sessions: Dict[str, _Session] = {}
        self._next_number = 1
        #: Hook for mail addressed ``user@host``: ``f(message) -> bool``.
        self.internet_mail_hook: Optional[Callable[[BbsMessage], bool]] = None
        self.forwarded_to_internet = 0
        self._forwarder: Optional[_Forwarder] = None

    # ------------------------------------------------------------------
    # message store
    # ------------------------------------------------------------------

    def store_message(self, to: str, origin: str, body: str) -> BbsMessage:
        """Store a message; forwards @internet mail via the hook."""
        message = BbsMessage(self._next_number, to.upper(), origin, body)
        self._next_number += 1
        self.messages.append(message)
        if "@" in to and self.internet_mail_hook is not None:
            if self.internet_mail_hook(message):
                message.forwarded = True
                self.forwarded_to_internet += 1
        self.tracer.log("bbs.store", str(self.callsign),
                        f"#{message.number} to {message.to}")
        return message

    def pending_for(self, bbs_suffix: str) -> List[BbsMessage]:
        """Messages addressed ``CALL@SUFFIX`` awaiting forwarding."""
        suffix = bbs_suffix.upper()
        return [
            message for message in self.messages
            if not message.forwarded and message.to.endswith(f"@{suffix}")
        ]

    def forward_to(self, remote: "AX25Address | str",
                   path: AX25Path = AX25Path()) -> int:
        """Forward every message addressed ``@remote`` over the air.

        Returns the number of messages handed to the forwarder; they are
        marked forwarded as the remote accepts each one.
        """
        remote = (
            remote if isinstance(remote, AX25Address) else AX25Address.parse(remote)
        )
        pending = self.pending_for(remote.callsign)
        if not pending:
            return 0
        self._forwarder = _Forwarder(self, remote, path, pending)
        return len(pending)

    # ------------------------------------------------------------------
    # link callbacks
    # ------------------------------------------------------------------

    def _connected(self, conn: LapbConnection, initiated: bool) -> None:
        if initiated:
            return  # outgoing forwarding connection; _Forwarder drives it
        session = _Session(self, conn)
        self._sessions[str(conn.remote)] = session
        session.send(f"[{self.callsign} BBS]")
        session.send("L=list R n=read S call=send B=bye H=help")
        session.send(self.PROMPT)

    def _data(self, conn: LapbConnection, data: bytes, pid: int) -> None:
        if self._forwarder is not None and conn is self._forwarder.conn:
            self._forwarder.data(data)
            return
        session = self._sessions.get(str(conn.remote))
        if session is not None:
            session.data(data)

    def _disconnected(self, conn: LapbConnection, reason: str) -> None:
        self._sessions.pop(str(conn.remote), None)
        if self._forwarder is not None and conn is self._forwarder.conn:
            self._forwarder = None

    def _from_air(self, payload: bytes) -> None:
        try:
            frame = AX25Frame.decode(payload)
        except FrameError:
            return
        if not frame.path.fully_repeated:
            return
        self.endpoint.handle_frame(frame)


class _Forwarder:
    """Drives a scripted S-command session against a peer BBS."""

    def __init__(self, bbs: BulletinBoard, remote: AX25Address,
                 path: AX25Path, pending: List[BbsMessage]) -> None:
        self.bbs = bbs
        self.pending = list(pending)
        self.current: Optional[BbsMessage] = None
        self.buffer = bytearray()
        self.conn = bbs.endpoint.connect(remote, path)
        self.awaiting_prompt = True

    def data(self, chunk: bytes) -> None:
        """Consume bytes arriving from the remote end."""
        self.buffer += chunk
        text = self.buffer.decode("latin-1")
        if self.current is None:
            if text.rstrip().endswith(self.bbs.PROMPT):
                self.buffer.clear()
                self._start_next()
        else:
            if "Message saved" in text:
                self.current.forwarded = True
                self.current = None
                self.buffer.clear()
                self._start_next()

    def _start_next(self) -> None:
        if not self.pending:
            self.conn.send(b"B\r")
            return
        self.current = self.pending.pop(0)
        local_part = self.current.to.split("@")[0]
        lines = [f"S {local_part}"] + self.current.body.split("\n") + ["/EX"]
        self.conn.send(("\r".join(lines) + "\r").encode("latin-1"))
