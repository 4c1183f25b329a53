"""AX.25 frame encoding and decoding.

A frame on the wire (after KISS/HDLC framing, which lives elsewhere) is:

    address field | control (1 byte) | [PID (1 byte)] | [info ...]

The PID byte is present only for I and UI frames; it is the field the
paper's driver inspects: "It also checks the protocol ID field.  If the
packet type is IP, the driver then adds the encapsulated IP packet to
the queue of incoming IP packets."

The FCS (frame check sequence) is computed by the TNC hardware in the
real system ("sends and receives data and calculates the necessary
checksums" -- KISS TNC code); our modem model likewise verifies a CRC,
so frames at this layer carry none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from repro.ax25.address import (
    AX25Address,
    AX25Path,
    decode_address_field,
    encode_address_field,
)
from repro.ax25.defs import (
    PF_BIT,
    PID_NO_L3,
    FrameType,
    S_REJ,
    S_RNR,
    S_RR,
    U_DISC,
    U_DM,
    U_FRMR,
    U_SABM,
    U_UA,
    U_UI,
)


class FrameError(ValueError):
    """Raised when a byte string cannot be decoded as an AX.25 frame."""


_U_CONTROL_TO_TYPE = {
    U_SABM: FrameType.SABM,
    U_DISC: FrameType.DISC,
    U_DM: FrameType.DM,
    U_UA: FrameType.UA,
    U_UI: FrameType.UI,
    U_FRMR: FrameType.FRMR,
}
_TYPE_TO_U_CONTROL = {value: key for key, value in _U_CONTROL_TO_TYPE.items()}

_S_CONTROL_TO_TYPE = {
    S_RR: FrameType.RR,
    S_RNR: FrameType.RNR,
    S_REJ: FrameType.REJ,
}
_TYPE_TO_S_CONTROL = {value: key for key, value in _S_CONTROL_TO_TYPE.items()}


@dataclass(frozen=True)
class AX25Frame:
    """A decoded AX.25 frame.

    ``ns``/``nr`` are the modulo-8 send/receive sequence numbers and are
    meaningful only for the frame types that carry them (``ns`` for I
    frames, ``nr`` for I and supervisory frames).
    """

    destination: AX25Address
    source: AX25Address
    frame_type: FrameType
    path: AX25Path = AX25Path()
    pid: Optional[int] = None
    info: bytes = b""
    ns: int = 0
    nr: int = 0
    poll_final: bool = False
    command: bool = True

    # ------------------------------------------------------------------
    # constructors for the common cases
    # ------------------------------------------------------------------

    @classmethod
    def ui(
        cls,
        destination: AX25Address,
        source: AX25Address,
        pid: int,
        info: bytes,
        path: AX25Path = AX25Path(),
    ) -> "AX25Frame":
        """Unnumbered-information frame -- how IP datagrams travel."""
        return cls(
            destination=destination,
            source=source,
            frame_type=FrameType.UI,
            path=path,
            pid=pid,
            info=info,
        )

    @classmethod
    def i_frame(
        cls,
        destination: AX25Address,
        source: AX25Address,
        ns: int,
        nr: int,
        info: bytes,
        pid: int = PID_NO_L3,
        path: AX25Path = AX25Path(),
        poll: bool = False,
    ) -> "AX25Frame":
        """Numbered information frame (connected mode)."""
        return cls(
            destination=destination,
            source=source,
            frame_type=FrameType.I,
            path=path,
            pid=pid,
            info=info,
            ns=ns % 8,
            nr=nr % 8,
            poll_final=poll,
        )

    @classmethod
    def supervisory(
        cls,
        frame_type: FrameType,
        destination: AX25Address,
        source: AX25Address,
        nr: int,
        poll_final: bool = False,
        command: bool = True,
        path: AX25Path = AX25Path(),
    ) -> "AX25Frame":
        """RR / RNR / REJ frame."""
        if not frame_type.is_supervisory:
            raise FrameError(f"{frame_type} is not supervisory")
        return cls(
            destination=destination,
            source=source,
            frame_type=frame_type,
            path=path,
            nr=nr % 8,
            poll_final=poll_final,
            command=command,
        )

    @classmethod
    def unnumbered(
        cls,
        frame_type: FrameType,
        destination: AX25Address,
        source: AX25Address,
        poll_final: bool = False,
        command: bool = True,
        path: AX25Path = AX25Path(),
        info: bytes = b"",
    ) -> "AX25Frame":
        """SABM / DISC / DM / UA / FRMR frame."""
        if not frame_type.is_unnumbered or frame_type is FrameType.UI:
            raise FrameError(f"use a dedicated constructor for {frame_type}")
        return cls(
            destination=destination,
            source=source,
            frame_type=frame_type,
            path=path,
            poll_final=poll_final,
            command=command,
            info=info,
        )

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------

    def _control_byte(self) -> int:
        pf = PF_BIT if self.poll_final else 0
        if self.frame_type is FrameType.I:
            return ((self.nr & 0x07) << 5) | pf | ((self.ns & 0x07) << 1)
        if self.frame_type.is_supervisory:
            return ((self.nr & 0x07) << 5) | pf | _TYPE_TO_S_CONTROL[self.frame_type]
        return _TYPE_TO_U_CONTROL[self.frame_type] | pf

    def encode(self) -> bytes:
        """Serialise to the on-air byte string (no flags, no FCS)."""
        out = bytearray()
        out += encode_address_field(
            self.destination, self.source, self.path, command=self.command
        )
        out.append(self._control_byte())
        if self.frame_type in (FrameType.I, FrameType.UI):
            out.append(self.pid if self.pid is not None else PID_NO_L3)
            out += self.info
        elif self.info:
            # FRMR carries a 3-byte status field in its info part.
            out += self.info
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "AX25Frame":
        """Parse an on-air byte string back into a frame.

        Memoised on the bytes: every station that hears one transmission
        gets the same frozen frame (see :func:`_decode_frame`).
        """
        return _decode_frame(bytes(data))

    # ------------------------------------------------------------------
    # digipeating helpers
    # ------------------------------------------------------------------

    def digipeated_by(self, station: AX25Address) -> "AX25Frame":
        """Copy of this frame after ``station`` relays it (H bit set)."""
        return replace(self, path=self.path.mark_repeated(station))

    @property
    def link_destination(self) -> AX25Address:
        """The station that should act on the frame *next*.

        With a pending digipeater path this is the next digipeater;
        otherwise the final destination.
        """
        pending = self.path.next_unrepeated
        return pending if pending is not None else self.destination

    def __str__(self) -> str:
        via = f" via {self.path}" if self.path else ""
        body = ""
        if self.frame_type in (FrameType.I, FrameType.UI):
            body = f" pid=0x{(self.pid or 0):02x} len={len(self.info)}"
        seq = ""
        if self.frame_type is FrameType.I:
            seq = f" ns={self.ns} nr={self.nr}"
        elif self.frame_type.is_supervisory:
            seq = f" nr={self.nr}"
        return f"{self.source}>{self.destination}{via} {self.frame_type.value}{seq}{body}"


def _decode_addresses(data: bytes):
    try:
        return decode_address_field(data)
    except ValueError as exc:
        raise FrameError(str(exc)) from exc


@lru_cache(maxsize=256)
def _decode_frame(data: bytes) -> AX25Frame:
    """Decode one on-air frame; the body of :meth:`AX25Frame.decode`.

    Memoised on the frame bytes: the KISS hosts, ROM TNCs, BBS and
    digipeaters that hear one transmission each decode the same bytes.
    The result is a pure function of the immutable key and the frame is
    frozen all the way down, so a hit returns exactly what a fresh
    decode would.  A malformed frame raises and is not cached.
    """
    destination, source, path, is_command, offset = _decode_addresses(data)
    if len(data) <= offset:
        raise FrameError("frame has no control byte")
    control = data[offset]
    offset += 1
    poll_final = bool(control & PF_BIT)

    if control & 0x01 == 0:
        # I frame: bit 0 clear.
        ns = (control >> 1) & 0x07
        nr = (control >> 5) & 0x07
        if len(data) <= offset:
            raise FrameError("I frame missing PID byte")
        pid = data[offset]
        info = data[offset + 1 :]
        return AX25Frame(
            destination=destination,
            source=source,
            frame_type=FrameType.I,
            path=path,
            pid=pid,
            info=info,
            ns=ns,
            nr=nr,
            poll_final=poll_final,
            command=is_command,
        )

    if control & 0x03 == 0x01:
        # Supervisory frame: bits 1-0 == 01.
        subtype = control & 0x0F
        frame_type = _S_CONTROL_TO_TYPE.get(subtype)
        if frame_type is None:
            raise FrameError(f"unknown supervisory control 0x{control:02x}")
        nr = (control >> 5) & 0x07
        return AX25Frame(
            destination=destination,
            source=source,
            frame_type=frame_type,
            path=path,
            nr=nr,
            poll_final=poll_final,
            command=is_command,
        )

    # Unnumbered frame: bits 1-0 == 11.
    masked = control & ~PF_BIT
    frame_type = _U_CONTROL_TO_TYPE.get(masked)
    if frame_type is None:
        raise FrameError(f"unknown unnumbered control 0x{control:02x}")
    if frame_type is FrameType.UI:
        if len(data) <= offset:
            raise FrameError("UI frame missing PID byte")
        pid = data[offset]
        info = data[offset + 1 :]
        return AX25Frame(
            destination=destination,
            source=source,
            frame_type=FrameType.UI,
            path=path,
            pid=pid,
            info=info,
            poll_final=poll_final,
            command=is_command,
        )
    info = data[offset:] if frame_type is FrameType.FRMR else b""
    return AX25Frame(
        destination=destination,
        source=source,
        frame_type=frame_type,
        path=path,
        poll_final=poll_final,
        command=is_command,
        info=info,
    )
