"""Periodic instrument snapshots: metrics over sim time, not just at exit.

End-of-run aggregates hide dynamics -- a retransmission storm that rages
for thirty seconds and then clears looks like a mildly elevated mean.  A
:class:`TimeSeries` samples a metrics provider (typically the flight
recorder's summary plus its instruments) on a fixed simulated cadence,
so the ops surface can answer "what did the run look like at t=40s?"
and ``python -m repro report --timeline`` can draw the curve.

Determinism contract: sampling schedules ordinary simulator events
(visible in ``events_executed``, which the ordering gates treat as
order-neutral) and *reads* state without mutating any model object or
drawing randomness.  Snapshot **values** stay out of scenario metric
dicts -- only the snapshot *count* and cadence are exported -- because
mid-run readings may legitimately differ under the sanitizer's salted
event ordering while end-of-run totals must not.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

#: Default sampling cadence.
DEFAULT_CADENCE = 10 * SECOND

#: The headline per-interval series shown by ``report --timeline``.
DEFAULT_TIMELINE_KEYS = ("born_total", "delivered", "dropped", "shed")


class TimeSeries:
    """Fixed-cadence snapshots of a flat metrics dict.

    ``sampler`` is any zero-argument callable returning ``{name: number}``
    -- the recorder's :meth:`~repro.obs.spans.FlightRecorder.summary` is
    the canonical one.  Call :meth:`start` to begin sampling; snapshots
    accumulate as ``(sim_time, metrics)`` pairs.
    """

    def __init__(self, sim: Simulator,
                 sampler: Callable[[], Dict[str, float]],
                 cadence: int = DEFAULT_CADENCE) -> None:
        if cadence <= 0:
            raise ValueError("snapshot cadence must be positive")
        self.sim = sim
        self.sampler = sampler
        self.cadence = cadence
        self.snapshots: List[Tuple[int, Dict[str, float]]] = []
        self._started = False

    def start(self) -> None:
        """Begin periodic sampling.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.cadence, self._snap, label="timeseries-snap")

    def _snap(self) -> None:
        self.snapshots.append((self.sim.now, dict(self.sampler())))
        self.sim.schedule(self.cadence, self._snap, label="timeseries-snap")

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Digest-safe export: counts and cadence only, never values."""
        return {
            "timeseries_snapshots": float(len(self.snapshots)),
            "timeseries_cadence_us": float(self.cadence),
        }

    def series(self, key: str) -> List[Tuple[int, float]]:
        """One metric's sampled (time, value) points, missing -> skipped."""
        return [(time, float(values[key]))
                for time, values in self.snapshots if key in values]

    def deltas(self, key: str) -> List[Tuple[int, float]]:
        """Per-interval increments of a monotonic counter series."""
        points = self.series(key)
        out: List[Tuple[int, float]] = []
        previous = 0.0
        for time, value in points:
            out.append((time, value - previous))
            previous = value
        return out

    def render(self, keys: Optional[Sequence[str]] = None,
               width: int = 30) -> str:
        """ASCII per-interval activity table with a bar for the first key.

        Counter series are shown as per-interval deltas, so a burst is a
        visible spike rather than a step in a cumulative line.
        """
        keys = tuple(keys) if keys else DEFAULT_TIMELINE_KEYS
        if not self.snapshots:
            return "timeseries: no snapshots taken"
        columns = {key: dict(self.deltas(key)) for key in keys}
        peak = max((max(column.values(), default=0.0)
                    for column in columns.values()), default=0.0)
        scale = (width / peak) if peak > 0 else 0.0
        header = f"{'t':>8} " + " ".join(f"{key:>12}" for key in keys)
        lines = [header]
        for time, _values in self.snapshots:
            cells = " ".join(
                f"{columns[key].get(time, 0.0):>12.0f}" for key in keys)
            first = columns[keys[0]].get(time, 0.0)
            bar = "#" * int(round(first * scale))
            lines.append(f"{time // SECOND:>7}s {cells}  {bar}")
        return "\n".join(lines)
