"""Tests for IPv4: addresses, datagrams, fragmentation, reassembly."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.inet.checksum import internet_checksum, verify_checksum
from repro.inet.ip import (
    IPError,
    IPv4Address,
    IPv4Datagram,
    PROTO_UDP,
    Reassembler,
    fragment,
)


# ----------------------------------------------------------------------
# checksum
# ----------------------------------------------------------------------

def test_checksum_of_zeroes():
    assert internet_checksum(b"\x00" * 8) == 0xFFFF


def _reference_word_sum(data: bytes) -> int:
    """The per-word loop: folded one's-complement sum, odd tail padded."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += (data[index] << 8) | data[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@given(st.binary(max_size=1500))
@example(bytes.fromhex("ffffffff0001"))  # the first fold carries out again
def test_checksum_matches_per_word_reference(data):
    reference = _reference_word_sum(data)
    assert internet_checksum(data) == (~reference) & 0xFFFF
    assert verify_checksum(data) == (reference == 0xFFFF)
    if len(data) % 2 == 0:
        stamped = data + internet_checksum(data).to_bytes(2, "big")
        assert verify_checksum(stamped)


def test_checksum_detects_corruption():
    data = bytearray(b"The Internet checksum is weak but honest")
    checksum = internet_checksum(bytes(data))
    whole = bytes(data) + checksum.to_bytes(2, "big")
    assert verify_checksum(whole)
    corrupted = bytearray(whole)
    corrupted[3] ^= 0x40
    assert not verify_checksum(bytes(corrupted))


def test_checksum_odd_length_padded():
    assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


@given(st.binary(min_size=1, max_size=128))
def test_checksum_verifies_own_output(data):
    checksum = internet_checksum(data)
    assert verify_checksum(data + checksum.to_bytes(2, "big")) or len(data) % 2 == 1


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------

def test_address_parse_and_str():
    addr = IPv4Address.parse("44.24.0.28")
    assert str(addr) == "44.24.0.28"
    assert addr.value == (44 << 24) | (24 << 16) | 28


@pytest.mark.parametrize("bad", ["44.24.0", "44.24.0.256", "a.b.c.d", "1.2.3.4.5"])
def test_address_parse_rejects(bad):
    with pytest.raises(IPError):
        IPv4Address.parse(bad)


def test_classful_classes():
    assert IPv4Address.parse("44.0.0.1").address_class == "A"
    assert IPv4Address.parse("128.95.1.1").address_class == "B"
    assert IPv4Address.parse("192.12.33.2").address_class == "C"


def test_classful_network_extraction():
    assert str(IPv4Address.parse("44.24.0.28").network) == "44.0.0.0"
    assert str(IPv4Address.parse("128.95.1.2").network) == "128.95.0.0"
    assert str(IPv4Address.parse("192.12.33.2").network) == "192.12.33.0"


def test_same_network_classful():
    a = IPv4Address.parse("44.24.0.5")
    b = IPv4Address.parse("44.56.0.5")       # same class A net 44!
    c = IPv4Address.parse("45.0.0.1")
    assert a.same_network(b)
    assert not a.same_network(c)


def test_coerce():
    addr = IPv4Address.parse("1.2.3.4")
    assert IPv4Address.coerce("1.2.3.4") == addr
    assert IPv4Address.coerce(addr) is addr
    assert IPv4Address.coerce(addr.value) == addr


def test_packed_round_trip():
    addr = IPv4Address.parse("10.20.30.40")
    assert IPv4Address.unpack(addr.packed()) == addr


# ----------------------------------------------------------------------
# datagrams
# ----------------------------------------------------------------------

SRC = IPv4Address.parse("44.24.0.5")
DST = IPv4Address.parse("128.95.1.2")


def make_datagram(payload=b"payload", **kwargs):
    defaults = dict(source=SRC, destination=DST, protocol=PROTO_UDP,
                    payload=payload, identification=42)
    defaults.update(kwargs)
    return IPv4Datagram(**defaults)


def test_datagram_round_trip():
    datagram = make_datagram(ttl=17, tos=8)
    decoded = IPv4Datagram.decode(datagram.encode())
    assert decoded.source == SRC and decoded.destination == DST
    assert decoded.protocol == PROTO_UDP
    assert decoded.payload == b"payload"
    assert decoded.ttl == 17 and decoded.tos == 8
    assert decoded.identification == 42


def test_datagram_header_checksum_verified():
    wire = bytearray(make_datagram().encode())
    wire[8] ^= 0xFF  # clobber TTL
    with pytest.raises(IPError):
        IPv4Datagram.decode(bytes(wire))
    IPv4Datagram.decode(bytes(wire), verify=False)  # opt-out works


def test_datagram_trims_link_padding():
    wire = make_datagram(payload=b"abc").encode() + b"\x00" * 20  # Ethernet pad
    decoded = IPv4Datagram.decode(wire)
    assert decoded.payload == b"abc"


def test_datagram_rejects_truncation():
    wire = make_datagram(payload=b"abcdefgh").encode()
    with pytest.raises(IPError):
        IPv4Datagram.decode(wire[:19])
    with pytest.raises(IPError):
        IPv4Datagram.decode(wire[:24])  # shorter than total_length


def test_datagram_rejects_wrong_version():
    wire = bytearray(make_datagram().encode())
    wire[0] = (6 << 4) | 5
    with pytest.raises(IPError):
        IPv4Datagram.decode(bytes(wire))


def test_decremented():
    assert make_datagram(ttl=5).decremented().ttl == 4


@given(st.binary(max_size=1400), st.integers(min_value=0, max_value=255),
       st.integers(min_value=1, max_value=255))
def test_datagram_round_trip_property(payload, proto, ttl):
    datagram = make_datagram(payload=payload, protocol=proto, ttl=ttl)
    decoded = IPv4Datagram.decode(datagram.encode())
    assert decoded.payload == payload
    assert decoded.protocol == proto


# ----------------------------------------------------------------------
# fragmentation
# ----------------------------------------------------------------------

def test_no_fragmentation_needed_returns_original():
    datagram = make_datagram(payload=bytes(100))
    assert fragment(datagram, mtu=1500) == [datagram]


def test_fragment_sizes_and_offsets():
    datagram = make_datagram(payload=bytes(1000))
    pieces = fragment(datagram, mtu=256)
    # payload per fragment: (256-20) & ~7 = 232
    assert [len(p.payload) for p in pieces] == [232, 232, 232, 232, 72]
    assert [p.fragment_offset for p in pieces] == [0, 29, 58, 87, 116]
    assert [p.more_fragments for p in pieces] == [True, True, True, True, False]
    assert all(p.identification == datagram.identification for p in pieces)


def test_fragment_respects_df():
    datagram = make_datagram(payload=bytes(1000), dont_fragment=True)
    with pytest.raises(IPError):
        fragment(datagram, mtu=256)


def test_fragment_tiny_mtu_rejected():
    with pytest.raises(IPError):
        fragment(make_datagram(payload=bytes(100)), mtu=24)


def test_reassembly_in_order():
    reassembler = Reassembler()
    datagram = make_datagram(payload=bytes(range(250)) * 4)
    pieces = fragment(datagram, mtu=256)
    result = None
    for piece in pieces:
        result = reassembler.input(piece, now=0)
    assert result is not None
    assert result.payload == datagram.payload
    assert not result.is_fragment


def test_reassembly_out_of_order():
    reassembler = Reassembler()
    datagram = make_datagram(payload=bytes(777))
    pieces = fragment(datagram, mtu=200)
    results = [reassembler.input(p, now=0) for p in reversed(pieces)]
    completed = [r for r in results if r is not None]
    assert len(completed) == 1
    assert completed[0].payload == datagram.payload


def test_reassembly_keys_on_identification():
    reassembler = Reassembler()
    d1 = make_datagram(payload=bytes(500), identification=1)
    d2 = make_datagram(payload=bytes([1]) * 500, identification=2)
    interleaved = [piece for pair in zip(fragment(d1, 256), fragment(d2, 256))
                   for piece in pair]
    completed = [r for r in (reassembler.input(p, now=0) for p in interleaved)
                 if r is not None]
    assert sorted(len(r.payload) for r in completed) == [500, 500]
    payloads = {r.identification: r.payload for r in completed}
    assert payloads[1] == bytes(500)
    assert payloads[2] == bytes([1]) * 500


def test_reassembly_timeout_discards_partial():
    reassembler = Reassembler(timeout=1000)
    pieces = fragment(make_datagram(payload=bytes(500)), mtu=256)
    assert reassembler.input(pieces[0], now=0) is None
    # Way later, the missing piece arrives -- entry was expired and the
    # late fragment alone cannot complete.
    assert reassembler.input(pieces[1], now=10_000) is None
    assert reassembler.timed_out == 1


def test_non_fragment_passes_through():
    reassembler = Reassembler()
    datagram = make_datagram()
    assert reassembler.input(datagram, now=0) is datagram


@given(st.binary(min_size=1, max_size=3000),
       st.sampled_from([64, 128, 256, 576]))
def test_fragment_reassemble_property(payload, mtu):
    reassembler = Reassembler()
    datagram = make_datagram(payload=payload)
    result = None
    for piece in fragment(datagram, mtu):
        assert 20 + len(piece.payload) <= mtu
        result = reassembler.input(piece, now=0)
    assert result is not None
    assert result.payload == payload
