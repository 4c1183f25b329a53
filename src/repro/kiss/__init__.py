"""The KISS host-to-TNC protocol (Chepponis & Karn, ARRL 1987).

"Since we did not require the higher software layers of the TNC, we
used a stripped down version of the software for it known as the KISS
TNC code. ... Unlike the normal code that resides in the ROM of the
TNC, the KISS TNC code does not worry about the packet format at all."

KISS wraps raw AX.25 frames in FEND-delimited, FESC-escaped records on
the serial line and prefixes each with a one-byte type/port command.
"""

from repro.kiss.commands import (
    CMD_DATA,
    CMD_FULLDUP,
    CMD_PERSIST,
    CMD_RETURN,
    CMD_SETHW,
    CMD_SLOTTIME,
    CMD_TXDELAY,
    CMD_TXTAIL,
)
from repro.kiss.framing import (
    FEND,
    FESC,
    KissDeframer,
    KissError,
    TFEND,
    TFESC,
    escape,
    frame as kiss_frame,
    unescape,
)

__all__ = [
    "CMD_DATA",
    "CMD_FULLDUP",
    "CMD_PERSIST",
    "CMD_RETURN",
    "CMD_SETHW",
    "CMD_SLOTTIME",
    "CMD_TXDELAY",
    "CMD_TXTAIL",
    "FEND",
    "FESC",
    "KissDeframer",
    "KissError",
    "TFEND",
    "TFESC",
    "escape",
    "kiss_frame",
    "unescape",
]
