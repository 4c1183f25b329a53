"""Tests for AX.25 addresses and digipeater paths."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.ax25.address import (
    AX25Address,
    AX25Path,
    AddressError,
    decode_address_field,
    encode_address_field,
    is_broadcast,
    parse_path,
)

callsigns = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
                    min_size=1, max_size=6)
ssids = st.integers(min_value=0, max_value=15)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_parse_plain_callsign():
    addr = AX25Address.parse("N7AKR")
    assert addr.callsign == "N7AKR"
    assert addr.ssid == 0


def test_parse_with_ssid():
    addr = AX25Address.parse("KB7DZ-12")
    assert addr.callsign == "KB7DZ"
    assert addr.ssid == 12


def test_parse_lowercase_normalised():
    assert AX25Address.parse("n7akr-2").callsign == "N7AKR"


def test_parse_repeated_star():
    addr = AX25Address.parse("K3MC-7*")
    assert addr.repeated
    assert str(addr) == "K3MC-7*"


@pytest.mark.parametrize("bad", ["", "TOOLONGCALL", "BAD CALL", "N7AKR-16",
                                 "N7AKR--1", "N7!KR"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(AddressError):
        AX25Address.parse(bad)


def test_ssid_range_enforced():
    with pytest.raises(AddressError):
        AX25Address("N7AKR", 16)
    with pytest.raises(AddressError):
        AX25Address("N7AKR", -1)


def test_str_omits_zero_ssid():
    assert str(AX25Address("N7AKR")) == "N7AKR"
    assert str(AX25Address("N7AKR", 3)) == "N7AKR-3"


# ----------------------------------------------------------------------
# on-air encoding
# ----------------------------------------------------------------------

def test_encode_shifts_callsign_left():
    block = AX25Address("A").encode(last=False)
    assert block[0] == ord("A") << 1
    assert block[1] == ord(" ") << 1  # padding


def test_encode_last_sets_extension_bit():
    assert AX25Address("N7AKR").encode(last=True)[6] & 0x01
    assert not AX25Address("N7AKR").encode(last=False)[6] & 0x01


def test_decode_round_trip():
    original = AX25Address("KB7DZ", 5)
    decoded, last, _bit = AX25Address.decode(original.encode(last=True))
    assert decoded.matches(original)
    assert last


def test_decode_rejects_wrong_length():
    with pytest.raises(AddressError):
        AX25Address.decode(b"short")


def test_decode_rejects_extension_bit_inside_callsign():
    block = bytearray(AX25Address("N7AKR").encode(last=True))
    block[0] |= 0x01
    with pytest.raises(AddressError):
        AX25Address.decode(bytes(block))


@given(callsigns, ssids)
def test_encode_decode_property(callsign, ssid):
    original = AX25Address(callsign, ssid)
    decoded, last, _ = AX25Address.decode(original.encode(last=True))
    assert decoded.callsign == original.callsign
    assert decoded.ssid == original.ssid
    assert last


def _reference_decode(block: bytes):
    """The per-character block decode, with no memo."""
    if len(block) != 7:
        raise AddressError(f"address block must be 7 bytes, got {len(block)}")
    chars = []
    for byte in block[:6]:
        if byte & 0x01:
            raise AddressError("extension bit set inside callsign bytes")
        chars.append(chr(byte >> 1))
    callsign = "".join(chars).rstrip()
    if not callsign:
        raise AddressError("empty callsign in address block")
    ssid_byte = block[6]
    top_bit = bool(ssid_byte & 0x80)
    address = AX25Address(callsign, (ssid_byte >> 1) & 0x0F, repeated=top_bit)
    return address, bool(ssid_byte & 0x01), top_bit


def _outcome(decode, block):
    try:
        return decode(block)
    except AddressError as exc:
        return "AddressError", str(exc)


#: Arbitrary 7-byte blocks (mostly malformed) and well-formed ones.
blocks = st.one_of(
    st.binary(min_size=7, max_size=7),
    st.builds(lambda callsign, ssid, last, command:
              AX25Address(callsign, ssid).encode(last=last, command=command),
              callsigns, ssids, st.booleans(), st.booleans()),
)


@given(blocks)
def test_decode_matches_uncached_reference(block):
    expected = _outcome(_reference_decode, block)
    assert _outcome(AX25Address.decode, block) == expected
    # The repeat is a memo hit, or raises the same error again.
    assert _outcome(AX25Address.decode, block) == expected
    assert _outcome(AX25Address.decode, bytearray(block)) == expected


def test_matches_ignores_repeated_flag():
    a = AX25Address("K3MC", 7)
    assert a.matches(a.with_repeated())
    assert a.with_repeated().base == a


def test_broadcast_detection():
    assert is_broadcast(AX25Address.parse("QST"))
    assert is_broadcast(AX25Address("QST", 5))
    assert not is_broadcast(AX25Address.parse("N7AKR"))


# ----------------------------------------------------------------------
# digipeater paths
# ----------------------------------------------------------------------

def test_path_limit_is_eight():
    hops = tuple(AX25Address(f"D{i}") for i in range(8))
    AX25Path(hops)  # fine
    with pytest.raises(AddressError):
        AX25Path(hops + (AX25Address("D9"),))


def test_next_unrepeated_walks_in_order():
    path = AX25Path.of("D1", "D2")
    assert path.next_unrepeated.matches(AX25Address("D1"))
    path = path.mark_repeated(AX25Address("D1"))
    assert path.next_unrepeated.matches(AX25Address("D2"))
    path = path.mark_repeated(AX25Address("D2"))
    assert path.next_unrepeated is None
    assert path.fully_repeated


def test_mark_repeated_unknown_station_raises():
    path = AX25Path.of("D1")
    with pytest.raises(AddressError):
        path.mark_repeated(AX25Address("D9"))


def test_reversed_clears_repeated_bits():
    path = AX25Path.of("D1", "D2").mark_repeated(AX25Address("D1"))
    reverse = path.reversed()
    assert [str(h) for h in reverse] == ["D2", "D1"]
    assert not any(h.repeated for h in reverse)


def test_parse_path_round_trip():
    path = parse_path("WB7XYZ-1,K3MC-7*")
    assert len(path) == 2
    assert path.digipeaters[1].repeated
    assert parse_path("") == AX25Path()


# ----------------------------------------------------------------------
# full address field
# ----------------------------------------------------------------------

def test_address_field_round_trip_no_path():
    dest, src = AX25Address("KB7DZ"), AX25Address("N7AKR", 2)
    data = encode_address_field(dest, src)
    d, s, path, command, used = decode_address_field(data + b"extra")
    assert d.matches(dest) and s.matches(src)
    assert len(path) == 0 and used == 14
    assert command


def test_address_field_round_trip_with_path():
    dest, src = AX25Address("KB7DZ"), AX25Address("N7AKR")
    path = AX25Path.of("D1", "D2-3")
    data = encode_address_field(dest, src, path)
    d, s, decoded_path, _cmd, used = decode_address_field(data)
    assert used == 28
    assert [str(h) for h in decoded_path] == ["D1", "D2-3"]


def test_address_field_response_flag():
    dest, src = AX25Address("A"), AX25Address("B")
    data = encode_address_field(dest, src, command=False)
    _d, _s, _p, command, _u = decode_address_field(data)
    assert not command


def test_address_field_truncation_detected():
    dest, src = AX25Address("KB7DZ"), AX25Address("N7AKR")
    data = encode_address_field(dest, src, AX25Path.of("D1"))
    with pytest.raises(AddressError):
        decode_address_field(data[:20])


@given(st.lists(st.tuples(callsigns, ssids), min_size=0, max_size=8))
def test_address_field_property_round_trip(hop_specs):
    dest, src = AX25Address("KB7DZ", 1), AX25Address("N7AKR", 2)
    path = AX25Path(tuple(AX25Address(c, s) for c, s in hop_specs))
    data = encode_address_field(dest, src, path)
    d, s, decoded, _cmd, used = decode_address_field(data)
    assert d.matches(dest) and s.matches(src)
    assert used == 14 + 7 * len(hop_specs)
    assert all(a.matches(b) for a, b in zip(decoded, path))
