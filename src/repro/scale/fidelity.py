"""The fidelity dial.

Three levels, selectable per serial line / station:

* ``per_char`` -- the byte-faithful default: every serial byte is one
  event, exactly as the DZ interrupt handler of the paper sees it.
* ``frame`` -- one event per host serial write (one KISS record in the
  common case), delivered at the instant the *last* byte would have
  arrived.  Because a KISS record is terminated by its trailing FEND,
  frame completion times -- and therefore every protocol outcome --
  are identical to the per-char path on a clean line.  While a serial
  fault is installed on the receiving endpoint the line automatically
  downshifts to per-char delivery so per-byte fault filters still see
  every byte (see :mod:`repro.serialio.line`).
* ``flow`` -- no serial line at all: an analytic rate/queue model
  (:class:`repro.scale.flow.FlowStationCloud`) stands in for a crowd of
  background stations, occupying the shared radio channel with
  carrier-only bursts and accounting its own traffic in a CounterSet.

The frame level is gated, not trusted: tests and the ``scale`` gate
compare metric digests of the same seeded scenario at ``per_char`` and
``frame`` fidelity through
:func:`repro.harness.results.comparable_metrics`, which strips only the
event-queue bookkeeping that legitimately differs (fewer events is the
whole point).
"""

from __future__ import annotations

#: The selectable fidelity levels, cheapest last.
FIDELITY_LEVELS = ("per_char", "frame", "flow")

#: Serial-line fidelity levels (what :class:`~repro.serialio.line.SerialLine`
#: accepts); ``flow`` replaces the line entirely rather than tuning it.
LINE_FIDELITY_LEVELS = ("per_char", "frame")


def validate_line_fidelity(fidelity: str) -> str:
    """Check a serial-line fidelity name; returns it for chaining."""
    if fidelity not in LINE_FIDELITY_LEVELS:
        raise ValueError(
            f"unknown line fidelity {fidelity!r}; "
            f"expected one of {LINE_FIDELITY_LEVELS}")
    return fidelity
