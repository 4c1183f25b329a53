"""A shared 10 Mb/s Ethernet segment.

One frame occupies the segment at a time; contending transmissions
queue FIFO (a deliberately mild stand-in for CSMA/CD -- at the traffic
levels of the experiments the Ethernet is never the bottleneck, and the
paper treats it as "fast").  Frames are delivered to every attached
controller; MAC filtering happens in the controller, as on real
hardware without promiscuous mode.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.sim.clock import SECOND, US
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


class EthernetLan:
    """A broadcast segment with serialisation delay and FIFO arbitration."""

    #: Fixed per-frame propagation+interframe-gap allowance.
    PROPAGATION = 5 * US

    def __init__(self, sim: Simulator, bit_rate: int = 10_000_000,
                 tracer: Tracer = NULL_TRACER, name: str = "ether0") -> None:
        self.sim = sim
        self.bit_rate = bit_rate
        self.tracer = tracer
        self.name = name
        self._taps: List[Tuple[str, Callable[[bytes], None]]] = []
        self._busy_until = 0
        self.frames_carried = 0
        self.bytes_carried = 0

    def attach(self, name: str, on_frame: Callable[[bytes], None]) -> None:
        """Attach a controller's receive callback."""
        self._taps.append((name, on_frame))

    def transmit(self, sender: str, data: bytes) -> int:
        """Put a frame on the wire; returns its delivery time."""
        start = max(self.sim.now, self._busy_until)
        airtime = round(len(data) * 8 * SECOND / self.bit_rate)
        done = start + airtime + self.PROPAGATION
        self._busy_until = done
        self.frames_carried += 1
        self.bytes_carried += len(data)
        self.tracer.log("ether.tx", sender, "frame", bytes=len(data))
        self.sim.at(done, self._deliver, sender, data, label=f"ether {self.name}")
        return done

    def _deliver(self, sender: str, data: bytes) -> None:
        for name, on_frame in self._taps:
            if name == sender:
                continue
            on_frame(data)
