"""Tests for KISS framing and commands."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.kiss import commands
from repro.kiss.framing import (
    FEND,
    FESC,
    KissDeframer,
    KissError,
    TFEND,
    TFESC,
    escape,
    frame,
    unescape,
)


# ----------------------------------------------------------------------
# escaping
# ----------------------------------------------------------------------

def test_escape_substitutions():
    assert escape(bytes([FEND])) == bytes([FESC, TFEND])
    assert escape(bytes([FESC])) == bytes([FESC, TFESC])
    assert escape(b"plain") == b"plain"


def test_unescape_reverses():
    raw = bytes([1, FEND, 2, FESC, 3])
    assert unescape(escape(raw)) == raw


def test_unescape_rejects_dangling_escape():
    with pytest.raises(KissError):
        unescape(bytes([FESC]))


def test_unescape_rejects_bad_escape():
    with pytest.raises(KissError):
        unescape(bytes([FESC, 0x41]))


def test_unescape_rejects_raw_fend():
    with pytest.raises(KissError):
        unescape(bytes([FEND]))


@given(st.binary(max_size=512))
def test_escaped_stream_contains_no_fend(payload):
    assert FEND not in escape(payload)


def _reference_escape(payload) -> bytes:
    """The per-byte escape loop that ``escape`` must match."""
    out = bytearray()
    for byte in payload:
        if byte == FEND:
            out += bytes((FESC, TFEND))
        elif byte == FESC:
            out += bytes((FESC, TFESC))
        else:
            out.append(byte)
    return bytes(out)


#: Payloads dense in the four KISS special bytes, and arbitrary ones.
payloads = st.one_of(
    st.lists(st.sampled_from([FEND, FESC, TFEND, TFESC, 0x00, 0x41]),
             max_size=64).map(bytes),
    st.binary(max_size=512),
)
buffer_types = st.sampled_from([bytes, bytearray])


@given(payloads, buffer_types)
def test_escape_matches_per_byte_reference(payload, kind):
    escaped = escape(kind(payload))
    assert type(escaped) is bytes
    assert escaped == _reference_escape(payload)


def _reference_unescape(payload):
    """The per-byte scan ``unescape`` must match; None where it raises.

    A raw FEND, a FESC followed by anything but TFEND or TFESC, and a
    FESC at the end are each a violation.
    """
    out = bytearray()
    index = 0
    while index < len(payload):
        byte = payload[index]
        if byte == FEND:
            return None
        if byte != FESC:
            out.append(byte)
            index += 1
            continue
        follower = payload[index + 1] if index + 1 < len(payload) else None
        if follower == TFEND:
            out.append(FEND)
        elif follower == TFESC:
            out.append(FESC)
        else:
            return None
        index += 2
    return bytes(out)


@given(payloads, buffer_types)
def test_escape_round_trip_property(payload, kind):
    decoded = unescape(kind(escape(payload)))
    assert type(decoded) is bytes
    assert decoded == payload


@given(payloads, buffer_types)
def test_unescape_raises_exactly_where_per_byte_scan_does(payload, kind):
    expected = _reference_unescape(payload)
    if expected is None:
        with pytest.raises(KissError):
            unescape(kind(payload))
    else:
        assert unescape(kind(payload)) == expected


@given(st.lists(payloads, max_size=6), buffer_types)
def test_framed_payloads_come_back_whole(records, kind):
    stream = b"".join(frame(0x00, kind(payload)) for payload in records)
    whole = KissDeframer()
    whole.push(stream)
    single = KissDeframer()
    for byte in stream:
        single.push_byte(byte)
    expected = [(0x00, payload) for payload in records]
    assert whole.frames == single.frames == expected


# ----------------------------------------------------------------------
# framing and the per-character deframer
# ----------------------------------------------------------------------

def test_frame_layout():
    record = frame(0x00, b"AB")
    assert record[0] == FEND and record[-1] == FEND
    assert record[1] == 0x00
    assert record[2:4] == b"AB"


def test_deframer_whole_buffer():
    deframer = KissDeframer()
    deframer.push(frame(0x00, b"hello"))
    assert deframer.frames == [(0x00, b"hello")]


def test_deframer_byte_at_a_time_matches_buffer():
    record = frame(0x10, bytes([1, FEND, 2, FESC, 3]))
    whole = KissDeframer()
    whole.push(record)
    single = KissDeframer()
    for byte in record:
        single.push_byte(byte)
    assert whole.frames == single.frames == [(0x10, bytes([1, FEND, 2, FESC, 3]))]


def test_deframer_back_to_back_records():
    deframer = KissDeframer()
    deframer.push(frame(0, b"one") + frame(0, b"two"))
    assert [p for _t, p in deframer.frames] == [b"one", b"two"]


def test_deframer_skips_empty_frames_between_fends():
    deframer = KissDeframer()
    deframer.push(bytes([FEND, FEND, FEND]) + frame(0, b"x"))
    assert [p for _t, p in deframer.frames] == [b"x"]


def test_deframer_bad_escape_drops_frame_counts_error():
    deframer = KissDeframer()
    deframer.push(bytes([FEND, 0x00, FESC, 0x41, 0x42, FEND]))
    assert deframer.frames == []
    assert deframer.errors == 1
    # next frame is still decoded fine
    deframer.push(frame(0, b"ok"))
    assert [p for _t, p in deframer.frames] == [b"ok"]


def test_deframer_escape_before_fend_is_error():
    deframer = KissDeframer()
    deframer.push(bytes([FEND, 0x00, 0x41, FESC, FEND]))
    assert deframer.frames == []
    assert deframer.errors == 1


def test_deframer_oversize_frame_dropped():
    deframer = KissDeframer(max_frame=10)
    deframer.push(frame(0, bytes(64)))
    assert deframer.frames == []
    assert deframer.oversize_drops == 1
    deframer.push(frame(0, b"ok"))
    assert [p for _t, p in deframer.frames] == [b"ok"]


def test_deframer_callback_invoked():
    seen = []
    deframer = KissDeframer(on_frame=lambda t, p: seen.append((t, p)))
    deframer.push(frame(0x21, b"zz"))
    assert seen == [(0x21, b"zz")]


def test_deframer_with_callback_keeps_no_frames():
    seen = []
    deframer = KissDeframer(on_frame=lambda t, p: seen.append((t, p)))
    stream = frame(0, b"one") + frame(0, b"two")
    deframer.push(stream)
    for byte in stream:
        deframer.push_byte(byte)
    assert [p for _t, p in seen] == [b"one", b"two", b"one", b"two"]
    assert deframer.frames == []


@given(st.lists(st.binary(min_size=1, max_size=64), max_size=8),
       st.integers(min_value=0, max_value=15))
def test_deframer_stream_property(payloads, command):
    stream = b"".join(frame(command, p) for p in payloads)
    deframer = KissDeframer()
    for byte in stream:
        deframer.push_byte(byte)
    assert [p for _t, p in deframer.frames] == payloads
    assert all(t == command for t, _p in deframer.frames)


# ----------------------------------------------------------------------
# command bytes
# ----------------------------------------------------------------------

def test_type_byte_packs_port_and_command():
    assert commands.type_byte(commands.CMD_TXDELAY, port=2) == 0x21
    assert commands.split_type_byte(0x21) == (1, 2)


def test_type_byte_range_checks():
    with pytest.raises(ValueError):
        commands.type_byte(16)
    with pytest.raises(ValueError):
        commands.type_byte(0, port=16)


def test_command_nibble_values():
    assert commands.CMD_DATA == 0
    assert commands.CMD_RETURN == 0xF
