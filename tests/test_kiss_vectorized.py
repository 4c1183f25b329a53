"""Differential testing of the vectorised KISS deframer.

``KissDeframer.push`` (buffer-at-a-time, ``bytes.find``/``split``) must
be byte-for-byte equivalent to ``push_byte`` in a loop -- same frames,
same error and oversize accounting, same residual state -- for any
byte stream and any chunking of it.  These tests check the crafted
corner cases (escapes split across pushes, doubled FESC, oversize
mid-segment) and then hammer the equivalence with seeded random
streams sliced into random chunks.
"""

from __future__ import annotations

import random

import pytest

from repro.kiss.framing import FEND, FESC, TFEND, TFESC, KissDeframer, frame


def _state(deframer: KissDeframer):
    return (deframer.frames, deframer.errors, deframer.oversize_drops,
            bytes(deframer._buffer), deframer._escaped,
            deframer._discarding)


def _differential(stream: bytes, chunks, max_frame: int = 2048) -> None:
    reference = KissDeframer(max_frame=max_frame)
    for byte in stream:
        reference.push_byte(byte)
    vectorised = KissDeframer(max_frame=max_frame)
    position = 0
    for size in chunks:
        vectorised.push(stream[position:position + size])
        position += size
    vectorised.push(stream[position:])
    assert _state(vectorised) == _state(reference)


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
