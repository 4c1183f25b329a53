"""Differential testing of the KISS deframer's buffer path.

``KissDeframer.push`` has two outcomes.  One whole record pushed while
the deframer is idle is decoded in one step: a slice when it has no
escape, ``unescape`` when it has one.  Every other buffer is fed to
``push_byte`` a byte at a time.  Either way it must match ``push_byte``
in a loop -- same frames, same error and oversize accounting, same
residual state -- for any byte stream and any chunking of it, and each
push must take the outcome its input calls for.  These tests check the
crafted corner cases (escapes split across pushes, doubled FESC,
oversize mid-record, escaped records at the size bound) and then
hammer the equivalence with seeded random streams sliced into random
chunks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kiss.framing import FEND, FESC, TFEND, TFESC, KissDeframer, frame


def _state(deframer: KissDeframer):
    return (deframer.frames, deframer.errors, deframer.oversize_drops,
            bytes(deframer._buffer), deframer._escaped,
            deframer._discarding)


class _CountingDeframer(KissDeframer):
    """A deframer that counts the bytes ``push`` hands to ``push_byte``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.per_byte_calls = 0

    def push_byte(self, byte: int) -> None:
        self.per_byte_calls += 1
        super().push_byte(byte)


def _one_step(deframer: KissDeframer, data: bytes) -> bool:
    """Whether ``push(data)`` must decode ``data`` without ``push_byte``.

    It must when the deframer is idle and ``push_byte`` would turn
    ``data``, ``FEND`` body ``FEND``, into one record and nothing else.
    """
    if deframer._buffer or deframer._escaped or deframer._discarding:
        return False
    if (len(data) < 3 or data[0] != FEND or data[-1] != FEND
            or FEND in data[1:-1]):
        return False
    reference = KissDeframer(max_frame=deframer.max_frame)
    for byte in data:
        reference.push_byte(byte)
    return len(reference.frames) == 1


def _differential(stream: bytes, chunks, max_frame: int = 2048,
                  callback: bool = False) -> None:
    """``stream`` pushed in ``chunks``, against ``push_byte`` per byte.

    With ``callback`` the records go to ``on_frame`` instead of
    ``frames``.  Either way they must be the same ``(type, payload)``
    pairs, with each payload a ``bytes``.  Each push must decode in one
    step exactly when :func:`_one_step` says so, and otherwise call
    ``push_byte`` once per byte.
    """
    def build():
        got = []
        deframer = _CountingDeframer(
            on_frame=(lambda kind, payload: got.append((kind, payload)))
            if callback else None,
            max_frame=max_frame)
        return deframer, got

    reference, reference_got = build()
    for byte in stream:
        reference.push_byte(byte)
    pushed, got = build()
    position = 0
    for size in list(chunks) + [len(stream)]:
        data = stream[position:position + size]
        one_step = _one_step(pushed, data)
        pushed.per_byte_calls = 0
        pushed.push(data)
        assert pushed.per_byte_calls == (0 if one_step else len(data))
        position += len(data)
    assert _state(pushed) == _state(reference)
    assert got == reference_got
    assert all(type(payload) is bytes
               for _kind, payload in got + pushed.frames)


def test_simple_records_equivalent():
    stream = frame(0x00, b"hello") + frame(0x00, b"world")
    _differential(stream, [3, 7, 1])


def test_escape_split_across_pushes():
    payload = bytes([1, FEND, 2, FESC, 3])
    stream = frame(0x00, payload)
    # Split at every position, including mid-escape-sequence.
    for cut in range(len(stream) + 1):
        _differential(stream, [cut])


def test_bad_escape_and_doubled_fesc():
    bad = bytes([FEND, 0x00, FESC, 0x41, FEND])           # invalid escape
    doubled = bytes([FEND, 0x00, FESC, FESC, TFEND, FEND])  # FESC FESC
    for stream in (bad, doubled, bad + doubled):
        for cut in range(len(stream) + 1):
            _differential(stream, [cut])


def test_oversize_drop_equivalent():
    stream = frame(0x00, bytes(100)) + frame(0x00, b"ok")
    for cut in (0, 5, 50, 64, 66, 120):
        _differential(stream, [cut], max_frame=64)


def test_dangling_escape_at_stream_end():
    stream = bytes([FEND, 0x00, 0x41, FESC])
    _differential(stream, [2])
    # ... and the continuation resolving it either way.
    for tail in (bytes([TFEND, FEND]), bytes([TFESC, FEND]),
                 bytes([0x99, FEND])):
        _differential(stream + tail, [len(stream)])


@pytest.mark.parametrize("seed", range(8))
def test_randomized_differential(seed):
    """Random noisy streams, random chunking: states always identical."""
    rng = random.Random(seed)
    interesting = [FEND, FESC, TFEND, TFESC, 0x00, 0x41]
    stream = bytearray()
    for _ in range(rng.randrange(1, 40)):
        if rng.random() < 0.5:
            payload = bytes(rng.choice(interesting + [rng.randrange(256)])
                            for _ in range(rng.randrange(0, 30)))
            stream += frame(rng.randrange(256), payload)
        else:  # raw noise, possibly malformed
            stream += bytes(rng.choice(interesting)
                            if rng.random() < 0.6 else rng.randrange(256)
                            for _ in range(rng.randrange(1, 20)))
    chunks = []
    remaining = len(stream)
    while remaining > 0:
        size = rng.randrange(0, min(remaining, 17) + 1)
        chunks.append(size)
        remaining -= size
    _differential(bytes(stream), chunks,
                  max_frame=rng.choice([16, 64, 2048]))


# ----------------------------------------------------------------------
# whole records, one push each (what a frame-fidelity line delivers)
# ----------------------------------------------------------------------

def _whole_pushes(pushes, callback: bool) -> None:
    """Each buffer in ``pushes`` as one push, at ``max_frame=8``."""
    _differential(b"".join(pushes), [len(data) for data in pushes],
                  max_frame=8, callback=callback)


def _record(content: bytes) -> bytes:
    return bytes([FEND]) + content + bytes([FEND])


#: Buffers pushed one at a time, at ``max_frame=8``.
RECORD_CASES = {
    "empty record": [bytes([FEND, FEND])],
    "empty then record": [bytes([FEND, FEND]), _record(b"\x00hi")],
    "type byte only": [_record(b"\x05")],
    "exactly max_frame": [_record(b"\x00" + bytes(range(1, 8)))],
    "max_frame + 1": [_record(b"\x00" + bytes(range(1, 9))),
                      _record(b"\x00ok")],
    "inner FEND": [_record(b"\x00ab") + b"\x01cd" + bytes([FEND])],
    "leading FEND pair": [bytes([FEND]) + _record(b"\x00ab")],
    "FESC TFEND": [_record(bytes([0, FESC, TFEND, 0x41]))],
    "FESC TFESC": [_record(bytes([0, FESC, TFESC, 0x41]))],
    "bare TFEND and TFESC": [_record(bytes([0, TFEND, TFESC, 0x41]))],
    "partial frame first": [bytes([FEND, 0, 0x41]), _record(b"\x00ab")],
    "pending escape first": [bytes([FEND, 0, FESC]), _record(b"\x00ab")],
    "pending escape, empty buffer": [bytes([FEND, FESC]), _record(b"\x00ab")],
    "discard first": [bytes([FEND, 0, FESC, 0x41]), _record(b"\x00ab")],
    "oversize discard first": [bytes([FEND]) + bytes(12),
                               _record(b"\x00ab")],
    "no trailing FEND": [bytes([FEND, 0, 0x41]), bytes([0x42, FEND])],
    "FESC TFESC TFEND": [_record(bytes([0, FESC, TFESC, TFEND]))],
    # Twelve escaped bytes that decode to exactly max_frame.
    "escaped past max_frame + 1, decoded within":
        [_record(bytes([0]) + bytes([FESC, TFEND]) * 4 + b"ABC")],
    "escaped exactly max_frame + 1": [_record(bytes([0, FESC, TFEND])
                                              + bytes(range(1, 7)))],
    "escaped, decoded max_frame + 1": [_record(bytes([0, FESC, TFEND])
                                               + bytes(range(1, 8))),
                                       _record(b"\x00ok")],
    "FESC last in body": [_record(bytes([0, 0x41, FESC])),
                          _record(bytes([0, FESC, TFESC]))],
    "FESC FESC TFEND": [_record(bytes([0, FESC, FESC, TFEND]))],
    "FESC then 0x41": [_record(bytes([0, FESC, 0x41]))],
    "partial frame, then escaped record":
        [bytes([FEND, 0, 0x41]), _record(bytes([0, FESC, TFEND]))],
    "pending escape, then escaped record":
        [bytes([FEND, 0, FESC]), _record(bytes([0, FESC, TFESC]))],
    "discard, then escaped record":
        [bytes([FEND, 0, FESC, 0x41]), _record(bytes([0, FESC, TFEND]))],
}


@pytest.mark.parametrize("callback", [False, True],
                         ids=["frames", "on_frame"])
@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_whole_record_pushes_match_push_byte(case, callback):
    _whole_pushes(RECORD_CASES[case], callback)


_CONTENT_BYTES = st.sampled_from([0x00, 0x41, 0x7F, FESC, TFEND, TFESC])
_CONTENT = st.lists(_CONTENT_BYTES, max_size=10).map(bytes)
_PUSHES = st.lists(st.one_of(
    st.just(bytes([FEND, FEND])),
    # A whole record, sometimes at or past max_frame (8).
    st.lists(_CONTENT_BYTES, min_size=1, max_size=10).map(
        lambda content: _record(bytes(content))),
    st.integers(7, 10).map(lambda size: _record(bytes([0x41]) * size)),
    # Two records in one buffer, joined at one FEND.
    st.tuples(_CONTENT, _CONTENT).map(
        lambda pair: _record(pair[0]) + pair[1] + bytes([FEND])),
    # What can leave the deframer busy: a partial frame, a pending
    # escape, a bad escape (discard) or an oversize run.
    _CONTENT.map(lambda content: bytes([FEND]) + content),
    _CONTENT.map(lambda content: bytes([FEND]) + content + bytes([FESC])),
    st.just(bytes([FESC, 0x41])),
    st.just(bytes(12)),
), max_size=8)


@settings(max_examples=300, deadline=None)
@given(pushes=_PUSHES, callback=st.booleans())
def test_random_whole_record_pushes_match_push_byte(pushes, callback):
    _whole_pushes(pushes, callback)
