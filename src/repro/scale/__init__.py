"""Multi-fidelity simulation and sharded regional execution.

The reproduction's default byte-faithful path clocks every serial byte
and radio frame through the event loop; that is the right fidelity for
the paper's two-host testbeds but wasteful for a scenario with
thousands of background stations.  This package adds the machinery to
trade fidelity for scale without giving up determinism.  The fidelity
dial has three levels: ``per_char`` and ``frame`` are serial-line
levels (:mod:`repro.serialio.line` owns them and their check), and
``flow`` replaces the line with an analytic model.

* :mod:`repro.scale.flow` -- :class:`~repro.scale.flow.FlowStationCloud`,
  an analytic rate/queue model standing in for many background stations
  while still occupying the shared channel and feeding CounterSets.
* :mod:`repro.scale.regions` -- :class:`~repro.scale.regions.ScaleLayout`,
  the one description of a regional world, and :func:`build_region`,
  which materialises one region of it as its own simulation joined to
  the others by a gateway link.
* :mod:`repro.scale.shard` -- the conservative time-windowed shard
  runner: one region per worker process, lookahead equal to the
  inter-region link latency, deterministic merged digests for every
  worker count.
"""

from repro.scale.flow import FlowStationCloud
from repro.scale.regions import (
    Region,
    RegionGatewayLink,
    ScaleLayout,
    build_region,
)
from repro.scale.shard import run_sharded

__all__ = [
    "FlowStationCloud",
    "Region",
    "RegionGatewayLink",
    "ScaleLayout",
    "build_region",
    "run_sharded",
]
