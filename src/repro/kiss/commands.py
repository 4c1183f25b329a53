"""KISS command bytes.

The first byte of every KISS record is ``(port << 4) | command``.  Data
records carry an AX.25 frame; the others set TNC channel-access
parameters that our TNC model honours (they feed straight into the CSMA
machinery: TXDELAY, persistence P, slot time).
"""

from __future__ import annotations

CMD_DATA = 0x0      #: data frame follows
CMD_TXDELAY = 0x1   #: keyup delay, in 10 ms units
CMD_PERSIST = 0x2   #: p-persistence value, P = (value + 1)/256
CMD_SLOTTIME = 0x3  #: slot interval, in 10 ms units
CMD_TXTAIL = 0x4    #: time to hold transmitter after frame, 10 ms units
CMD_FULLDUP = 0x5   #: nonzero = full duplex
CMD_SETHW = 0x6     #: hardware-specific
CMD_RETURN = 0xF    #: exit KISS mode (reboot to ROM firmware)


def type_byte(command: int, port: int = 0) -> int:
    """Compose the record type byte from command nibble and port."""
    if not 0 <= command <= 0xF:
        raise ValueError(f"KISS command out of range: {command}")
    if not 0 <= port <= 0xF:
        raise ValueError(f"KISS port out of range: {port}")
    return ((port & 0x0F) << 4) | (command & 0x0F)


#: The type byte of a DATA record on port 0: every AX.25 frame a host
#: and its TNC pass each other.
DATA_TYPE_BYTE = type_byte(CMD_DATA)


def split_type_byte(value: int) -> tuple[int, int]:
    """Return ``(command, port)`` from a record type byte."""
    return value & 0x0F, (value >> 4) & 0x0F
