"""Serial-line substrate: the RS-232 link between host and TNC.

"One difference, though, is that the TNC does not sit on the bus.
Instead, one communicates with it through a serial line."  The DZ
serial interface of Figure 1 delivers received characters to the host
one interrupt at a time; :class:`~repro.serialio.line.SerialLine` models
the byte-timed wire, and each :class:`~repro.serialio.line.SerialEndpoint`
is one DZ tty line: it calls the receive interrupt handler its consumer
registers (the pr0 driver, a TNC, a SLIP interface or a terminal) once
per character.
"""

from repro.serialio.line import SerialEndpoint, SerialLine

__all__ = ["SerialEndpoint", "SerialLine"]
