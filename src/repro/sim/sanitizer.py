"""The runtime sim sanitizer: dynamic checks for the deep static passes.

The whole-program passes in :mod:`repro.analysis` prove ordering and
conservation properties about the *source*; this module checks the same
properties about an actual *run*, so that ``lint --deep --bench`` can
report whether the two analyses agree:

* :class:`OrderShuffleSimulator` is the dynamic analogue of RACE001.
  The stock :class:`~repro.sim.engine.Simulator` breaks equal-timestamp
  ties by registration order.  Any model behaviour that survives only
  because of that accident is a hidden ordering dependence -- exactly
  what RACE001 hunts statically.  Running the same seeded scenario under
  a salted tie-break and comparing end-of-run metrics flushes such
  dependences out dynamically.

* :class:`SimSanitizer` is the dynamic analogue of CONS001.  The static
  pass proves every discard *site* bumps a counter and emits a terminal;
  the sanitizer asserts the resulting *run* conserves packets (live,
  every check interval) and takes a stale-span census at the end: an
  in-flight span nothing has touched for a long time is a packet some
  layer swallowed without accounting for it.

Both checks are deterministic: the shuffle key is a salted SHA-256 of
the registration instant (no wall clock, no ``random``), and the
sanitizer only schedules events on the simulator it watches.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.clock import SECOND, format_time
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import FlightRecorder

#: How often the live conservation check runs.
DEFAULT_CHECK_INTERVAL = 5 * SECOND

#: An in-flight span with no sighting for this long is counted stale.
#: Generous on purpose: the slowest legitimate path (1200 bps radio,
#: digipeated, retransmitted) completes in a few seconds.
DEFAULT_STALE_AFTER = 30 * SECOND


class SanitizerError(AssertionError):
    """A sanitizer invariant failed (strict mode only)."""


class OrderShuffleSimulator(Simulator):
    """A simulator whose equal-time tie-break is salted.

    Events registered in *different* instants that fire at the same
    timestamp are ordered by a salted hash of their registration instant
    instead of by registration order; events registered in the *same*
    instant keep FIFO order among themselves.  The same-instant guarantee
    is deliberate: ``call_soon`` is the model's software interrupt, and
    "runs after work already queued for this instant" is documented
    engine semantics that components legitimately rely on.  Cross-instant
    ties (two timers that happen to expire together) carry no such
    guarantee, so reordering them must not change any metric.

    The key stays unique and totally ordered -- ``(group, seq)`` with a
    globally monotonic ``seq`` -- as :meth:`Simulator._next_seq` requires.
    """

    def __init__(self, order_salt: int) -> None:
        super().__init__()
        self.order_salt = order_salt

    def _next_seq(self, time: int):
        seq = super()._next_seq(time)
        digest = hashlib.sha256(
            f"{self.order_salt}:{self._now}".encode("ascii")).digest()
        group = int.from_bytes(digest[:8], "big")
        return (group, seq)


class SimSanitizer:
    """Live conservation assertions plus an end-of-run stale-span census.

    Attach to a running scenario with a flight recorder::

        sanitizer = SimSanitizer(sim, recorder)
        sanitizer.start()
        sim.run(until=...)
        metrics = sanitizer.finalize_metrics()

    Every ``check_interval`` the sanitizer asserts the recorder's
    conservation invariant (born == delivered + dropped + shed +
    in-flight, no contradictory terminals).  At finalize it counts
    *stale* spans: still in flight, not settleable as an observational
    loss, and untouched for ``stale_after`` -- the signature of a drop
    path that neither counted nor emitted (the bug class CONS001 proves
    absent statically).  ``strict=True`` turns either observation into a
    :class:`SanitizerError`; the default records metrics only, because
    chaos runs legitimately strand a few spans (a serial-corrupted frame
    is undecodable, so no layer can terminate its span).
    """

    def __init__(
        self,
        sim: Simulator,
        recorder: "FlightRecorder",
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        stale_after: int = DEFAULT_STALE_AFTER,
        strict: bool = False,
    ) -> None:
        self.sim = sim
        self.recorder = recorder
        self.check_interval = check_interval
        self.stale_after = stale_after
        self.strict = strict
        self.checks = 0
        self.conservation_failures = 0
        self.stale_spans = 0
        self.diagnostics: List[str] = []
        self._started = False
        self._finalized = False

    # ------------------------------------------------------------------
    # live checking
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic conservation checks.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.check_interval, self._tick,
                          label="sanitizer-check")

    def _tick(self) -> None:
        self.check_now()
        self.sim.schedule(self.check_interval, self._tick,
                          label="sanitizer-check")

    def check_now(self) -> bool:
        """Run one conservation check; returns True when it held."""
        self.checks += 1
        if self.recorder.conservation_ok():
            return True
        self.conservation_failures += 1
        message = (
            f"conservation broken at {format_time(self.sim.now)}: "
            f"born={self.recorder.born_total} "
            f"delivered={self.recorder.delivered} "
            f"dropped={self.recorder.dropped} shed={self.recorder.shed} "
            f"violations={self.recorder.conservation_violations}"
        )
        self.diagnostics.append(message)
        if self.strict:
            raise SanitizerError(message)
        return False

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Final conservation check plus the stale-span census.

        Idempotent.  Runs after :meth:`FlightRecorder.finalize` so that
        observational losses have already been settled into drops --
        what remains in flight is either genuinely mid-air (recent last
        sighting) or stale (swallowed without accounting).
        """
        if self._finalized:
            return
        self._finalized = True
        self.check_now()
        self.recorder.finalize()
        now = self.sim.now
        for span in self.recorder.iter_spans():
            if span.state != "in_flight":
                continue
            last = span.last_seen or span.born_at
            if now - last <= self.stale_after:
                continue
            self.stale_spans += 1
            self.diagnostics.append(
                f"stale span pkt {span.pkt_id} ({span.kind} from "
                f"{span.origin}): in flight, last sighting "
                f"{format_time(last)}, now {format_time(now)}"
            )
        if self.strict and self.stale_spans:
            raise SanitizerError(
                f"{self.stale_spans} stale span(s); first: "
                + self.diagnostics[-self.stale_spans]
            )

    def finalize_metrics(self) -> Dict[str, float]:
        """Finalize and return the sanitizer's fixed metric schema."""
        self.finalize()
        return {
            "sanitizer_checks": float(self.checks),
            "sanitizer_conservation_failures":
                float(self.conservation_failures),
            "sanitizer_stale_spans": float(self.stale_spans),
            "sanitizer_order_salted":
                1.0 if isinstance(self.sim, OrderShuffleSimulator) else 0.0,
        }
