"""KISS framing: FEND delimiters and FESC escaping.

The paper singles out exactly this as the driver's hardest job: "As
each character is read by the interrupt handler, some processing of
characters is done on the fly.  In particular, escaped frame end
characters that are embedded in the packet are decoded."

:func:`frame`/:func:`escape` build the byte stream a host writes to the
TNC; :class:`KissDeframer` is the character-at-a-time state machine the
driver's receive interrupt handler runs.  It is written so one byte can
be pushed per call -- mirroring the per-character tty interrupt -- and
also accepts whole buffers for convenience.
"""

from __future__ import annotations

from typing import Callable, List, Optional

FEND = 0xC0   #: frame end delimiter
FESC = 0xDB   #: frame escape
TFEND = 0xDC  #: transposed frame end (FESC TFEND encodes FEND)
TFESC = 0xDD  #: transposed frame escape (FESC TFESC encodes FESC)

_FEND_BYTES = bytes((FEND,))
_FESC_BYTES = bytes((FESC,))
_ESCAPED_FEND = bytes((FESC, TFEND))
_ESCAPED_FESC = bytes((FESC, TFESC))


class KissError(ValueError):
    """Raised on protocol violations in the KISS byte stream."""


def escape(payload: bytes) -> bytes:
    """Escape embedded FEND/FESC bytes.

    FESC goes first: the FEND substitution writes FESC bytes of its own,
    which must not be escaped a second time.
    """
    return (bytes(payload).replace(_FESC_BYTES, _ESCAPED_FESC)
            .replace(_FEND_BYTES, _ESCAPED_FEND))


def unescape(payload: bytes) -> bytes:
    """Reverse :func:`escape`.  Raises :class:`KissError` on bad sequences."""
    out = bytearray()
    index = 0
    length = len(payload)
    while index < length:
        byte = payload[index]
        if byte == FESC:
            if index + 1 >= length:
                raise KissError("dangling FESC at end of payload")
            follower = payload[index + 1]
            if follower == TFEND:
                out.append(FEND)
            elif follower == TFESC:
                out.append(FESC)
            else:
                raise KissError(f"invalid escape FESC 0x{follower:02x}")
            index += 2
        elif byte == FEND:
            raise KissError("unescaped FEND inside payload")
        else:
            out.append(byte)
            index += 1
    return bytes(out)


def frame(type_byte: int, payload: bytes) -> bytes:
    """Build a complete KISS record: FEND type payload FEND.

    The leading FEND is included (recommended by the spec to flush line
    noise); back-to-back records therefore show doubled FENDs, which the
    deframer treats as empty frames and skips.
    """
    return _FEND_BYTES + escape(bytes((type_byte,)) + payload) + _FEND_BYTES


class KissDeframer:
    """Character-at-a-time KISS receive state machine.

    Push bytes with :meth:`push_byte` (one per simulated tty interrupt)
    or :meth:`push` (a buffer).  Completed records -- type byte plus
    unescaped payload -- are handed to ``on_frame(type_byte, payload)``
    if given, and otherwise collected in :attr:`frames`: a deframer with
    a callback keeps nothing, so a long-lived driver or TNC does not
    hold every record it has ever received.

    Malformed escape sequences drop the frame in progress and count in
    :attr:`errors` -- a driver must survive line noise, not crash.
    """

    def __init__(self, on_frame: Optional[Callable[[int, bytes], None]] = None,
                 max_frame: int = 2048) -> None:
        self.on_frame = on_frame
        self.max_frame = max_frame
        self.frames: List[tuple[int, bytes]] = []
        self.errors = 0
        self.oversize_drops = 0
        self._buffer = bytearray()
        self._escaped = False
        self._discarding = False

    def push(self, data: bytes) -> None:
        """Push a buffer of received bytes.

        Byte-for-byte equivalent to calling :meth:`push_byte` in a loop
        (same frames, same ``errors``/``oversize_drops`` counts, same
        residual state) but vectorised: the buffer is cut at FEND
        delimiters with ``bytes.find`` and each delimiter-free segment
        is unescaped by splitting on FESC, so the common no-escape case
        is a single ``bytearray`` extend instead of a Python-level loop
        per byte.  This is the frame-fidelity fast path: one burst
        delivery per KISS record instead of one interrupt per character.

        The commonest burst is one whole record with nothing to
        unescape, pushed while the deframer is idle: ``FEND``, at most
        ``max_frame`` bytes with no FEND or FESC, ``FEND``.  Its type
        byte and payload are handed on as slices of ``data``.
        """
        data = bytes(data)
        length = len(data)
        last = length - 1
        if (1 < last <= self.max_frame + 1
                and data[0] == FEND and data[last] == FEND
                and not self._buffer and not self._escaped
                and not self._discarding
                and data.find(FEND, 1, last) < 0
                and data.find(FESC, 1, last) < 0):
            if self.on_frame is None:
                self.frames.append((data[1], data[2:last]))
            else:
                self.on_frame(data[1], data[2:last])
            return
        position = 0
        while position < length:
            boundary = data.find(FEND, position)
            if boundary < 0:
                self._push_segment(data[position:])
                return
            if boundary > position:
                self._push_segment(data[position:boundary])
            self._end_of_frame()
            position = boundary + 1

    def _push_segment(self, segment: bytes) -> None:
        """Feed a FEND-free run of bytes through the state machine."""
        if self._discarding:
            return
        buffer = self._buffer
        parts = segment.split(_FESC_BYTES)
        head = parts[0]
        if self._escaped:
            # The pending FESC from the previous push resolves against
            # this segment's first byte.
            lead = segment[0]
            if lead == TFEND:
                buffer.append(FEND)
            elif lead == TFESC:
                buffer.append(FESC)
            else:
                self.errors += 1
                self._discard()
                return
            self._escaped = False
            head = head[1:]
        if head:
            buffer += head
        if len(buffer) > self.max_frame:
            self.oversize_drops += 1
            self._discard()
            return
        last = len(parts) - 1
        for index in range(1, len(parts)):
            part = parts[index]
            if not part:
                if index == last:
                    # Segment ends mid-escape; the next byte decides.
                    self._escaped = True
                    return
                # FESC immediately followed by FESC: a bad escape.
                self.errors += 1
                self._discard()
                return
            follower = part[0]
            if follower == TFEND:
                buffer.append(FEND)
            elif follower == TFESC:
                buffer.append(FESC)
            else:
                self.errors += 1
                self._discard()
                return
            if len(part) > 1:
                buffer += part[1:]
            if len(buffer) > self.max_frame:
                self.oversize_drops += 1
                self._discard()
                return

    def push_byte(self, byte: int) -> None:
        """Push one received byte (the per-character interrupt path)."""
        if byte == FEND:
            self._end_of_frame()
            return
        if self._discarding:
            return
        if self._escaped:
            if byte == TFEND:
                self._buffer.append(FEND)
            elif byte == TFESC:
                self._buffer.append(FESC)
            else:
                # Bad escape: discard the rest of this frame.
                self.errors += 1
                self._discard()
                return
            self._escaped = False
        elif byte == FESC:
            self._escaped = True
        else:
            self._buffer.append(byte)
        if len(self._buffer) > self.max_frame:
            self.oversize_drops += 1
            self._discard()

    # ------------------------------------------------------------------

    def _end_of_frame(self) -> None:
        if self._discarding:
            self._reset()
            return
        if self._escaped:
            # FESC immediately before FEND is a violation.
            self.errors += 1
            self._reset()
            return
        if self._buffer:
            record = bytes(self._buffer)
            type_byte, payload = record[0], record[1:]
            if self.on_frame is None:
                self.frames.append((type_byte, payload))
            else:
                self.on_frame(type_byte, payload)
        self._reset()

    def _discard(self) -> None:
        self._discarding = True
        self._buffer.clear()
        self._escaped = False

    def _reset(self) -> None:
        self._buffer.clear()
        self._escaped = False
        self._discarding = False
