"""reprocheck: bounded explicit-state model checking of the stack.

The simulator (:mod:`repro.sim.engine`) is deterministic: FIFO
tie-breaking among equal-time events picks *one* of the legal kernel
schedules.  reprocheck explores the others.  It drives a small "world"
(two or three stations plus a scripted workload) through every
reachable interleaving of same-instant events and every branch of the
fault choices (deliver/drop, collide, shed), checking safety
invariants at each state and liveness obligations at each terminal
state, with sleep-set partial-order reduction and visited-state
dedup keeping the walk tractable.

Entry points:

* :func:`repro.check.worlds.build_world` -- the preset worlds.
* :class:`repro.check.explorer.Explorer` -- the bounded search.
* :func:`repro.check.replay.replay` -- deterministic counterexample replay.
* ``python -m repro mc`` -- the CLI gate (presets + mutation gate).
"""

from repro.check.explorer import (Budget, ExplorationResult, Explorer,
                                  Violation, por_ratio)
from repro.check.invariants import Invariant
from repro.check.replay import replay
from repro.check.snapshot import StateCapturer, fingerprint
from repro.check.worlds import WORLDS, build_world

__all__ = [
    "Budget",
    "ExplorationResult",
    "Explorer",
    "Invariant",
    "StateCapturer",
    "Violation",
    "WORLDS",
    "build_world",
    "fingerprint",
    "por_ratio",
    "replay",
]
