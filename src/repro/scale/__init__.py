"""Multi-fidelity simulation and sharded regional execution.

The reproduction's default byte-faithful path clocks every serial byte
and radio frame through the event loop; that is the right fidelity for
the paper's two-host testbeds but wasteful for a scenario with
thousands of background stations.  This package adds the machinery to
trade fidelity for scale without giving up determinism:

* :mod:`repro.scale.fidelity` -- the fidelity dial (``per_char``,
  ``frame``, ``flow``).
* :mod:`repro.scale.flow` -- :class:`~repro.scale.flow.FlowStationCloud`,
  an analytic rate/queue model standing in for many background stations
  while still occupying the shared channel and feeding CounterSets.
* :mod:`repro.scale.regions` -- partition a topology into per-region
  simulations joined by gateway links.
* :mod:`repro.scale.shard` -- the conservative time-windowed shard
  runner: one region per worker process, lookahead equal to the
  inter-region link latency, deterministic merged digests for every
  worker count.
"""

from repro.scale.fidelity import FIDELITY_LEVELS
from repro.scale.flow import FlowStationCloud
from repro.scale.regions import (
    Region,
    RegionGatewayLink,
    ScaleLayout,
    build_region,
    layout_from_scenario,
)
from repro.scale.shard import run_sharded

__all__ = [
    "FIDELITY_LEVELS",
    "FlowStationCloud",
    "Region",
    "RegionGatewayLink",
    "ScaleLayout",
    "build_region",
    "layout_from_scenario",
    "run_sharded",
]
