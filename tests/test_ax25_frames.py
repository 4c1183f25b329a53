"""Tests for AX.25 frame encoding and decoding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ax25.address import AX25Address, AX25Path, decode_address_field
from repro.ax25.defs import PF_BIT, PID_ARPA_IP, PID_NO_L3, FrameType
from repro.ax25.frames import AX25Frame, FrameError

DEST = AX25Address("KB7DZ")
SRC = AX25Address("N7AKR", 2)


def test_ui_round_trip():
    frame = AX25Frame.ui(DEST, SRC, PID_ARPA_IP, b"payload")
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.frame_type is FrameType.UI
    assert decoded.pid == PID_ARPA_IP
    assert decoded.info == b"payload"
    assert decoded.destination.matches(DEST)
    assert decoded.source.matches(SRC)


def test_i_frame_round_trip():
    frame = AX25Frame.i_frame(DEST, SRC, ns=3, nr=5, info=b"data", poll=True)
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.frame_type is FrameType.I
    assert decoded.ns == 3 and decoded.nr == 5
    assert decoded.poll_final
    assert decoded.info == b"data"


def test_i_frame_sequence_numbers_wrap_mod8():
    frame = AX25Frame.i_frame(DEST, SRC, ns=9, nr=10, info=b"")
    assert frame.ns == 1 and frame.nr == 2


@pytest.mark.parametrize("frame_type", [FrameType.RR, FrameType.RNR, FrameType.REJ])
def test_supervisory_round_trip(frame_type):
    frame = AX25Frame.supervisory(frame_type, DEST, SRC, nr=6, poll_final=True,
                                  command=False)
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.frame_type is frame_type
    assert decoded.nr == 6
    assert decoded.poll_final
    assert not decoded.command


def test_supervisory_rejects_non_supervisory_type():
    with pytest.raises(FrameError):
        AX25Frame.supervisory(FrameType.SABM, DEST, SRC, nr=0)


@pytest.mark.parametrize("frame_type", [FrameType.SABM, FrameType.DISC,
                                        FrameType.DM, FrameType.UA,
                                        FrameType.FRMR])
def test_unnumbered_round_trip(frame_type):
    frame = AX25Frame.unnumbered(frame_type, DEST, SRC, poll_final=True)
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.frame_type is frame_type
    assert decoded.poll_final


def test_unnumbered_rejects_ui():
    with pytest.raises(FrameError):
        AX25Frame.unnumbered(FrameType.UI, DEST, SRC)


def test_unnumbered_rejects_i():
    with pytest.raises(FrameError):
        AX25Frame.unnumbered(FrameType.I, DEST, SRC)


def test_frmr_carries_status_info():
    frame = AX25Frame.unnumbered(FrameType.FRMR, DEST, SRC, info=b"\x01\x02\x03")
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.info == b"\x01\x02\x03"


def test_frame_with_digipeater_path():
    path = AX25Path.of("D1", "D2")
    frame = AX25Frame.ui(DEST, SRC, PID_NO_L3, b"x", path)
    decoded = AX25Frame.decode(frame.encode())
    assert [str(h) for h in decoded.path] == ["D1", "D2"]


def test_digipeated_by_sets_h_bit_and_link_destination():
    path = AX25Path.of("D1", "D2")
    frame = AX25Frame.ui(DEST, SRC, PID_NO_L3, b"x", path)
    assert frame.link_destination.matches(AX25Address("D1"))
    relayed = frame.digipeated_by(AX25Address("D1"))
    assert relayed.link_destination.matches(AX25Address("D2"))
    relayed = relayed.digipeated_by(AX25Address("D2"))
    assert relayed.link_destination.matches(DEST)
    # survives a wire round trip
    decoded = AX25Frame.decode(relayed.encode())
    assert decoded.path.fully_repeated


def test_decode_rejects_truncated_frames():
    frame = AX25Frame.ui(DEST, SRC, PID_ARPA_IP, b"payload").encode()
    with pytest.raises(FrameError):
        AX25Frame.decode(frame[:13])   # inside address field
    with pytest.raises(FrameError):
        AX25Frame.decode(frame[:14])   # no control byte


def test_decode_rejects_unknown_control():
    base = AX25Frame.ui(DEST, SRC, PID_ARPA_IP, b"").encode()
    corrupted = base[:14] + bytes([0xEF])  # U-frame bits with bogus type
    with pytest.raises(FrameError):
        AX25Frame.decode(corrupted)


def test_ui_without_pid_rejected():
    base = AX25Frame.ui(DEST, SRC, PID_ARPA_IP, b"").encode()
    with pytest.raises(FrameError):
        AX25Frame.decode(base[:15])  # control byte present, PID missing


def test_command_response_bits_round_trip():
    command = AX25Frame.ui(DEST, SRC, PID_NO_L3, b"")
    assert AX25Frame.decode(command.encode()).command
    response = AX25Frame.supervisory(FrameType.RR, DEST, SRC, nr=0, command=False)
    assert not AX25Frame.decode(response.encode()).command


def test_str_is_informative():
    text = str(AX25Frame.ui(DEST, SRC, PID_ARPA_IP, b"xy", AX25Path.of("D1")))
    assert "N7AKR-2>KB7DZ" in text and "via D1" in text and "UI" in text


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=255))
def test_ui_round_trip_property(payload, pid):
    frame = AX25Frame.ui(DEST, SRC, pid, payload)
    decoded = AX25Frame.decode(frame.encode())
    assert decoded.info == payload
    assert decoded.pid == pid


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.binary(max_size=64), st.booleans())
def test_i_frame_round_trip_property(ns, nr, info, poll):
    frame = AX25Frame.i_frame(DEST, SRC, ns=ns, nr=nr, info=info, poll=poll)
    decoded = AX25Frame.decode(frame.encode())
    assert (decoded.ns, decoded.nr, decoded.info, decoded.poll_final) == (ns, nr, info, poll)


# ----------------------------------------------------------------------
# the frame memo
# ----------------------------------------------------------------------

_S_TYPES = {0x01: FrameType.RR, 0x05: FrameType.RNR, 0x09: FrameType.REJ}
_U_TYPES = {0x2F: FrameType.SABM, 0x43: FrameType.DISC, 0x0F: FrameType.DM,
            0x63: FrameType.UA, 0x03: FrameType.UI, 0x87: FrameType.FRMR}


def _decode_uncached(data):
    """The frame decoder as it was before it was memoised."""
    try:
        destination, source, path, is_command, offset = (
            decode_address_field(data))
    except ValueError as exc:
        raise FrameError(str(exc)) from exc
    if len(data) <= offset:
        raise FrameError("frame has no control byte")
    control = data[offset]
    offset += 1
    poll_final = bool(control & PF_BIT)
    common = dict(destination=destination, source=source, path=path,
                  poll_final=poll_final, command=is_command)
    if control & 0x01 == 0:
        if len(data) <= offset:
            raise FrameError("I frame missing PID byte")
        return AX25Frame(frame_type=FrameType.I, pid=data[offset],
                         info=bytes(data[offset + 1:]),
                         ns=(control >> 1) & 0x07, nr=(control >> 5) & 0x07,
                         **common)
    if control & 0x03 == 0x01:
        frame_type = _S_TYPES.get(control & 0x0F)
        if frame_type is None:
            raise FrameError(f"unknown supervisory control 0x{control:02x}")
        return AX25Frame(frame_type=frame_type, nr=(control >> 5) & 0x07,
                         **common)
    frame_type = _U_TYPES.get(control & ~PF_BIT)
    if frame_type is None:
        raise FrameError(f"unknown unnumbered control 0x{control:02x}")
    if frame_type is FrameType.UI:
        if len(data) <= offset:
            raise FrameError("UI frame missing PID byte")
        return AX25Frame(frame_type=FrameType.UI, pid=data[offset],
                         info=bytes(data[offset + 1:]), **common)
    info = bytes(data[offset:]) if frame_type is FrameType.FRMR else b""
    return AX25Frame(frame_type=frame_type, info=info, **common)


_CALLSIGNS = st.sampled_from(["KB7DZ", "N7AKR", "WL0", "QST", "K3MC"])
_ADDRESSES = st.builds(AX25Address, _CALLSIGNS, st.integers(0, 15))
_HOPS = st.builds(AX25Address, _CALLSIGNS, st.integers(0, 15), st.booleans())


@st.composite
def _frames_on_air(draw):
    """An encoded I, S, U, UI or FRMR frame with 0-8 digipeaters, some
    already repeated; sometimes cut anywhere, its control byte replaced
    by any byte, or arbitrary bytes instead."""
    destination, source = draw(_ADDRESSES), draw(_ADDRESSES)
    path = AX25Path(tuple(draw(st.lists(_HOPS, max_size=8))))
    kind = draw(st.sampled_from(["I", "S", "U", "UI", "FRMR"]))
    poll, command = draw(st.booleans()), draw(st.booleans())
    info = draw(st.binary(max_size=40))
    pid = draw(st.sampled_from([PID_ARPA_IP, PID_NO_L3, 0x08]))
    if kind == "I":
        frame = AX25Frame.i_frame(destination, source, ns=draw(st.integers(0, 7)),
                                  nr=draw(st.integers(0, 7)), info=info,
                                  pid=pid, path=path, poll=poll)
    elif kind == "S":
        frame = AX25Frame.supervisory(
            draw(st.sampled_from(sorted(_S_TYPES.values(), key=str))),
            destination, source, nr=draw(st.integers(0, 7)),
            poll_final=poll, command=command, path=path)
    elif kind == "UI":
        frame = AX25Frame.ui(destination, source, pid, info, path)
    else:
        frame_type = (FrameType.FRMR if kind == "FRMR" else draw(
            st.sampled_from([FrameType.SABM, FrameType.DISC, FrameType.DM,
                             FrameType.UA])))
        frame = AX25Frame.unnumbered(frame_type, destination, source,
                                     poll_final=poll, command=command,
                                     path=path, info=info[:3] if kind == "FRMR" else b"")
    data = bytearray(frame.encode())
    damage = draw(st.sampled_from(["none"] * 4 + ["cut", "control", "noise"]))
    if damage == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif damage == "control":
        data[14 + 7 * len(path)] = draw(st.integers(0, 0xFF))
    elif damage == "noise":
        data = bytearray(draw(st.binary(max_size=40)))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(_frames_on_air(), st.booleans())
def test_memoised_decode_matches_the_uncached_decoder(data, as_bytearray):
    """Every hearer of one transmission gets what a fresh decode gives.

    A malformed frame raises the same ``FrameError`` on every call,
    not only on the first: the memo keeps no exceptions.
    """
    wire = bytearray(data) if as_bytearray else data
    try:
        expected = _decode_uncached(wire)
    except FrameError as exc:
        for _ in range(3):
            with pytest.raises(FrameError) as raised:
                AX25Frame.decode(wire)
            assert str(raised.value) == str(exc)
        return
    first = AX25Frame.decode(wire)
    assert first == expected and type(first.info) is bytes
    # A second hearer, with the same bytes in either type, shares it.
    assert AX25Frame.decode(bytes(data)) is first
    assert AX25Frame.decode(bytearray(data)) is first
