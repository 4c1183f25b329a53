"""AX.25 addresses: callsign + SSID, on-air encoding, digipeater paths.

An AX.25 link address is an amateur radio callsign of up to six
characters followed by a 4-bit "secondary station identifier" (SSID),
written ``N7AKR-2``.  On the air each address occupies seven bytes: the
six callsign characters shifted left one bit (so bit 0 is free for the
address-extension flag), then an SSID byte packing the SSID, two
command/response or has-been-repeated bits, and the extension bit that
marks the final block of the address field.

The paper: "AX.25 addresses look like amateur radio callsigns followed
by a 4 bit system ID.  Things are complicated by the fact that some
entries may contain additional callsigns for digipeaters."  Both the
plain address and the digipeater path live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.ax25.defs import (
    ADDR_C_OR_H_BIT,
    ADDR_EXTENSION_BIT,
    ADDRESS_BLOCK_LEN,
    CALLSIGN_MAX,
    MAX_DIGIPEATERS,
    SSID_MASK,
    SSID_RESERVED_BITS,
)


class AddressError(ValueError):
    """Raised for malformed callsigns or undecodable address fields."""


_CALLSIGN_RE = re.compile(r"^[A-Z0-9]{1,6}$")


@dataclass(frozen=True)
class AX25Address:
    """A single AX.25 station address.

    ``repeated`` is only meaningful when the address appears as a
    digipeater entry: it is the "H" (has-been-repeated) bit that a
    digipeater sets when it relays the frame.
    """

    callsign: str
    ssid: int = 0
    repeated: bool = False

    def __post_init__(self) -> None:
        callsign = self.callsign.upper()
        if not _CALLSIGN_RE.match(callsign):
            raise AddressError(f"invalid callsign {self.callsign!r}")
        if not 0 <= self.ssid <= 15:
            raise AddressError(f"SSID out of range: {self.ssid}")
        object.__setattr__(self, "callsign", callsign)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AX25Address":
        """Parse ``"N7AKR-2"`` or ``"N7AKR-2*"`` (trailing ``*`` = repeated)."""
        text = text.strip().upper()
        repeated = text.endswith("*")
        if repeated:
            text = text[:-1]
        if "-" in text:
            callsign, _, ssid_text = text.partition("-")
            try:
                ssid = int(ssid_text)
            except ValueError as exc:
                raise AddressError(f"bad SSID in {text!r}") from exc
        else:
            callsign, ssid = text, 0
        return cls(callsign, ssid, repeated)

    # ------------------------------------------------------------------
    # on-air encoding
    # ------------------------------------------------------------------

    def encode(self, last: bool, command: bool = False) -> bytes:
        """Encode to the 7-byte on-air block.

        ``last`` sets the address-extension bit marking the final block;
        ``command`` sets the C bit (v2.0 command/response discipline).
        """
        padded = self.callsign.ljust(CALLSIGN_MAX)
        block = bytearray((ord(char) << 1) & 0xFF for char in padded)
        ssid_byte = SSID_RESERVED_BITS | ((self.ssid & SSID_MASK) << 1)
        if command:
            ssid_byte |= ADDR_C_OR_H_BIT
        if self.repeated:
            ssid_byte |= ADDR_C_OR_H_BIT
        if last:
            ssid_byte |= ADDR_EXTENSION_BIT
        block.append(ssid_byte)
        return bytes(block)

    @classmethod
    def decode(cls, block: bytes) -> Tuple["AX25Address", bool, bool]:
        """Decode a 7-byte block.

        Returns ``(address, last, c_or_h_bit)`` where the final element is
        the top bit of the SSID byte (the C bit for dest/source blocks,
        the H bit for digipeater blocks -- the caller knows which role
        the block plays).
        """
        address, last, top_bit, _base = _decode_block(bytes(block))
        return address, last, top_bit

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    @property
    def base(self) -> "AX25Address":
        """The same station address with the repeated flag cleared."""
        if not self.repeated:
            return self
        return AX25Address(self.callsign, self.ssid)

    def matches(self, other: "AX25Address") -> bool:
        """Station identity comparison (ignores the repeated flag)."""
        return self.callsign == other.callsign and self.ssid == other.ssid

    def with_repeated(self) -> "AX25Address":
        """Copy with the has-been-repeated bit set (digipeater action)."""
        return AX25Address(self.callsign, self.ssid, repeated=True)

    def __str__(self) -> str:
        text = self.callsign if self.ssid == 0 else f"{self.callsign}-{self.ssid}"
        return f"{text}*" if self.repeated else text


#: The link-layer broadcast address checked by the paper's driver.
BROADCAST = AX25Address("QST")


@lru_cache(maxsize=4096)
def _decode_block(block: bytes) -> Tuple[AX25Address, bool, bool, AX25Address]:
    """Decode one 7-byte block: ``(address, last, top_bit, address.base)``.

    Memoised on the block: a gateway hears the same few dozen blocks
    over and over.  The result is a pure function of the immutable key
    and every value in it is frozen, so a hit returns exactly what a
    fresh decode would.  A malformed block raises and is not cached.
    """
    if len(block) != ADDRESS_BLOCK_LEN:
        raise AddressError(f"address block must be 7 bytes, got {len(block)}")
    chars = []
    for byte in block[:CALLSIGN_MAX]:
        if byte & ADDR_EXTENSION_BIT:
            raise AddressError("extension bit set inside callsign bytes")
        chars.append(chr(byte >> 1))
    callsign = "".join(chars).rstrip()
    if not callsign:
        raise AddressError("empty callsign in address block")
    ssid_byte = block[CALLSIGN_MAX]
    ssid = (ssid_byte >> 1) & SSID_MASK
    last = bool(ssid_byte & ADDR_EXTENSION_BIT)
    top_bit = bool(ssid_byte & ADDR_C_OR_H_BIT)
    address = AX25Address(callsign, ssid, repeated=top_bit)
    return address, last, top_bit, address.base


@dataclass(frozen=True)
class AX25Path:
    """An ordered digipeater path of at most eight stations.

    The paper: "The standard amateur packet radio link layer protocol
    allows the specification of up to eight digipeaters through which a
    packet is to pass.  This type of routing is known as source routing."
    """

    digipeaters: Tuple[AX25Address, ...] = ()

    def __post_init__(self) -> None:
        if len(self.digipeaters) > MAX_DIGIPEATERS:
            raise AddressError(
                f"at most {MAX_DIGIPEATERS} digipeaters allowed, got {len(self.digipeaters)}"
            )

    @classmethod
    def of(cls, *hops: "AX25Address | str") -> "AX25Path":
        """Build a path from addresses or parseable strings."""
        parsed = tuple(
            hop if isinstance(hop, AX25Address) else AX25Address.parse(hop) for hop in hops
        )
        return cls(parsed)

    def __len__(self) -> int:
        return len(self.digipeaters)

    def __iter__(self):
        return iter(self.digipeaters)

    def __bool__(self) -> bool:
        return bool(self.digipeaters)

    @property
    def next_unrepeated(self) -> "AX25Address | None":
        """The first digipeater that has not yet relayed the frame."""
        for hop in self.digipeaters:
            if not hop.repeated:
                return hop
        return None

    @property
    def fully_repeated(self) -> bool:
        """True when every hop has relayed (or there are no hops)."""
        return all(hop.repeated for hop in self.digipeaters)

    def mark_repeated(self, station: AX25Address) -> "AX25Path":
        """Return a path with ``station``'s first unrepeated entry marked.

        This is the digipeater's state update when it relays a frame.
        """
        hops: List[AX25Address] = []
        done = False
        for hop in self.digipeaters:
            if not done and not hop.repeated and hop.matches(station):
                hops.append(hop.with_repeated())
                done = True
            else:
                hops.append(hop)
        if not done:
            raise AddressError(f"{station} is not a pending digipeater in {self}")
        return AX25Path(tuple(hops))

    def reversed(self) -> "AX25Path":
        """The return path (hops reversed, repeated bits cleared)."""
        return AX25Path(tuple(hop.base for hop in reversed(self.digipeaters)))

    def __str__(self) -> str:
        return ",".join(str(hop) for hop in self.digipeaters)


def parse_path(text: str) -> AX25Path:
    """Parse ``"WB7XYZ-1,K3MC-7*"`` style comma-separated paths."""
    text = text.strip()
    if not text:
        return AX25Path()
    return AX25Path.of(*(part for part in text.split(",") if part.strip()))


def encode_address_field(
    destination: AX25Address,
    source: AX25Address,
    path: AX25Path = AX25Path(),
    command: bool = True,
) -> bytes:
    """Encode the full variable-length address field of a frame."""
    blocks = bytearray()
    hops: Sequence[AX25Address] = path.digipeaters
    blocks += destination.encode(last=False, command=command)
    blocks += source.encode(last=not hops, command=not command)
    for index, hop in enumerate(hops):
        blocks += hop.encode(last=index == len(hops) - 1)
    return bytes(blocks)


def decode_address_field(data: bytes) -> Tuple[AX25Address, AX25Address, AX25Path, bool, int]:
    """Decode destination, source, digipeater path from a frame prefix.

    Returns ``(destination, source, path, is_command, bytes_consumed)``.
    """
    data = bytes(data)
    if len(data) < 2 * ADDRESS_BLOCK_LEN:
        raise AddressError("address field truncated")
    _, dest_last, dest_c, destination = _decode_block(data[:ADDRESS_BLOCK_LEN])
    if dest_last:
        raise AddressError("address field ends after destination")
    _, src_last, src_c, source = _decode_block(
        data[ADDRESS_BLOCK_LEN : 2 * ADDRESS_BLOCK_LEN]
    )
    is_command = dest_c and not src_c
    offset = 2 * ADDRESS_BLOCK_LEN
    hops: List[AX25Address] = []
    last = src_last
    while not last:
        if len(hops) >= MAX_DIGIPEATERS:
            raise AddressError("more than 8 digipeaters in address field")
        if len(data) < offset + ADDRESS_BLOCK_LEN:
            raise AddressError("digipeater block truncated")
        hop, last, _, _ = _decode_block(data[offset : offset + ADDRESS_BLOCK_LEN])
        hops.append(hop)
        offset += ADDRESS_BLOCK_LEN
    return destination, source, AX25Path(tuple(hops)), is_command, offset


def is_broadcast(address: AX25Address) -> bool:
    """True for the QST broadcast address (any SSID)."""
    return address.callsign == BROADCAST.callsign
