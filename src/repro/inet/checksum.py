"""The Internet checksum (RFC 1071).

Used by the IPv4 header, ICMP, UDP and TCP.  Implemented over bytes
with the usual end-around-carry fold; odd-length data is padded with a
zero byte.
"""

from __future__ import annotations

import struct


def _word_sum(data: bytes) -> int:
    """Folded one's-complement sum of ``data``'s big-endian 16-bit words."""
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum of ``data``.

    RFC 1071 §3's example bytes sum to 0xddf2; the checksum is its
    complement, 0x220d:

    >>> internet_checksum(b"\\x00\\x01\\xf2\\x03\\xf4\\xf5\\xf6\\xf7")
    8717
    """
    return (~_word_sum(data)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return _word_sum(data) == 0xFFFF


def pseudo_header(source: bytes, destination: bytes, protocol: int, length: int) -> bytes:
    """The TCP/UDP pseudo-header for checksum computation."""
    return source + destination + bytes((0, protocol)) + length.to_bytes(2, "big")
