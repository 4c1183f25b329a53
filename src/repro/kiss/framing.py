"""KISS framing: FEND delimiters and FESC escaping.

The paper singles out exactly this as the driver's hardest job: "As
each character is read by the interrupt handler, some processing of
characters is done on the fly.  In particular, escaped frame end
characters that are embedded in the packet are decoded."

:func:`frame`/:func:`escape` build the byte stream a host writes to the
TNC, and :func:`unescape` reverses :func:`escape` the same way, with
``bytes`` methods over a whole record body.  :class:`KissDeframer` is
the character-at-a-time state machine the driver's receive interrupt
handler runs: :meth:`~KissDeframer.push_byte` takes one byte per call,
mirroring the per-character tty interrupt.  :meth:`~KissDeframer.push`
takes a buffer: one whole record on an idle deframer is decoded in one
step, and any other buffer is fed to ``push_byte`` a byte at a time.
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
    """Reverse :func:`escape`.  Raises :class:`KissError` on bad sequences.

    A raw FEND is a violation, and so is a FESC that is not followed by
    TFEND or TFESC: the FESC count must equal the number of ``FESC
    TFEND`` and ``FESC TFESC`` pairs, which cannot overlap.  The FEND
    pair is then decoded first: decoding ``FESC TFESC`` writes a FESC
    of its own, which must not pair with a following TFEND.
    """
    payload = bytes(payload)
    if FEND in payload:
        raise KissError("unescaped FEND inside payload")
    if payload.count(FESC) != (payload.count(_ESCAPED_FEND)
                               + payload.count(_ESCAPED_FESC)):
        raise KissError("FESC not followed by TFEND or TFESC")
    return (payload.replace(_ESCAPED_FEND, _FEND_BYTES)
            .replace(_ESCAPED_FESC, _FESC_BYTES))


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

        One whole record, ``FEND`` body ``FEND``, pushed while the
        deframer is idle (empty buffer, no pending escape, not
        discarding) is decoded in one step; a frame-fidelity line
        delivers each record so.  A body with no FESC and at most
        ``max_frame`` bytes is handed on as slices of ``data``; one with
        a FESC goes through :func:`unescape` and is handed on if that
        gives at most ``max_frame`` bytes.  Any other buffer (several
        records, part of one, a bad escape, an oversize body, a busy
        deframer) is fed to :meth:`push_byte` a byte at a time, so the
        frames, counts and residual state always match ``push_byte``'s.
        """
        data = bytes(data)
        last = len(data) - 1
        if (1 < last and data[0] == FEND and data[last] == FEND
                and not self._buffer and not self._escaped
                and not self._discarding
                and data.find(FEND, 1, last) < 0):
            if data.find(FESC, 1, last) < 0:
                if last <= self.max_frame + 1:
                    if self.on_frame is None:
                        self.frames.append((data[1], data[2:last]))
                    else:
                        self.on_frame(data[1], data[2:last])
                    return
            else:
                try:
                    record = unescape(data[1:last])
                except KissError:
                    record = b""  # push_byte counts the error
                if 0 < len(record) <= self.max_frame:
                    if self.on_frame is None:
                        self.frames.append((record[0], record[1:]))
                    else:
                        self.on_frame(record[0], record[1:])
                    return
        for byte in data:
            self.push_byte(byte)

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
