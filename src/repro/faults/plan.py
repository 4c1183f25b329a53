"""Declarative fault plans.

A :class:`FaultPlan` is an immutable, validated schedule of
:class:`FaultSpec` events -- *what* goes wrong, *where*, and *when* --
kept strictly separate from the machinery that applies it
(:mod:`repro.faults.inject`).  Because the plan is pure data and every
probabilistic decision is drawn from a named :class:`~repro.sim.rand.RandomStreams`
stream, a chaos run is a pure function of (plan, seed): the same plan on
the same seed produces byte-identical metrics no matter how the
surrounding sweep is parallelised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.sim.clock import SECOND

#: Everything the injector knows how to break.
FAULT_KINDS = frozenset({
    "serial_noise",    # corrupt bytes on the host<-TNC serial RX path
    "serial_drop",     # drop bytes on the host<-TNC serial RX path
    "tnc_wedge",       # hang the TNC firmware main loop (§3 lockup)
    "tnc_garbage",     # TNC spews a burst of garbage up the serial line
    "tnc_reboot",      # spontaneous TNC reset (deaf/mute while rebooting)
    "channel_fade",    # receiver loses frames with given probability
    "partition",       # two stations stop hearing each other
    "iface_flap",      # administratively down, later up
})

#: Kinds that act over a window and need ``duration`` > 0.
WINDOWED_KINDS = frozenset({
    "serial_noise", "serial_drop", "channel_fade", "partition", "iface_flap",
})

#: Kinds that draw per-byte/per-frame decisions and need ``probability``.
PROBABILISTIC_KINDS = frozenset({"serial_noise", "serial_drop", "channel_fade"})


@dataclass(frozen=True)
class FaultSpec:
    """One fault event.

    ``at`` is absolute simulated microseconds; ``target`` names the
    victim (a station/port name for radio faults, an attachment name for
    serial/TNC faults, an interface name for flaps).  ``peer`` is only
    meaningful for ``partition``; ``count`` only for ``tnc_garbage``.
    """

    kind: str
    at: int
    target: str
    duration: int = 0
    probability: float = 0.0
    peer: str = ""
    count: int = 0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"{self.kind}: at={self.at} is before t=0")
        if not self.target:
            raise ValueError(f"{self.kind}: target must be non-empty")
        if self.kind in WINDOWED_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind}: needs duration > 0")
        if self.kind in PROBABILISTIC_KINDS:
            if not (0.0 < self.probability <= 1.0):
                raise ValueError(
                    f"{self.kind}: probability {self.probability} not in (0, 1]")
        if self.kind == "partition" and not self.peer:
            raise ValueError("partition: needs a peer station")
        if self.kind == "tnc_garbage" and self.count <= 0:
            raise ValueError("tnc_garbage: needs count > 0")

    @property
    def end(self) -> int:
        """Absolute time the fault clears (== ``at`` for point faults)."""
        return self.at + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of fault events."""

    specs: Tuple[FaultSpec, ...] = ()
    name: str = "plan"

    @classmethod
    def of(cls, specs: Sequence[FaultSpec], name: str = "plan") -> "FaultPlan":
        """Build a plan sorted by injection time; validates every spec."""
        ordered = tuple(sorted(specs, key=lambda s: (s.at, s.kind, s.target)))
        plan = cls(specs=ordered, name=name)
        plan.validate()
        return plan

    def validate(self) -> None:
        for spec in self.specs:
            spec.validate()

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def last_clear_time(self) -> int:
        """When the final fault has cleared (0 for an empty plan)."""
        return max((spec.end for spec in self.specs), default=0)


#: The fault-plan axis of the policy tournament, mildest to harshest.
TOURNAMENT_PLANS = ("storm", "noise", "fade", "partition", "wedge")


def tournament_plan(
    name: str,
    duration_seconds: int,
    gateway: str = "gateway",
    gateway_port: str = "NT7GW",
    stations: Sequence[str] = ("WL0", "WL1"),
) -> FaultPlan:
    """One named hostile-link condition for the policy tournament.

    Each plan opens a window of trouble in the middle of the run and
    clears by ~75% so the tail measures recovery, not just survival:

    * ``storm`` -- the §4.1 condition: the hub's receiver fades hard,
      so every sender's data frames die on arrival and timeout-driven
      retransmissions pile onto the shared channel.
    * ``noise`` -- the host<-TNC serial line corrupts, then drops bytes.
    * ``fade`` -- the stations' receivers fade (ACK loss, asymmetric).
    * ``partition`` -- a station and the hub stop hearing each other
      entirely: link-layer give-up and post-blackout recovery.
    * ``wedge`` -- the hub TNC spews garbage and spontaneously reboots,
      twice.

    ``gateway`` names the hub's serial/TNC attachment, ``gateway_port``
    its radio port on the channel; ``stations`` are the victim radio
    ports for fades and partitions.
    """
    total = duration_seconds * SECOND
    if name == "storm":
        specs = [
            FaultSpec("channel_fade", at=total // 5, target=gateway_port,
                      duration=total // 2, probability=0.45),
        ]
    elif name == "noise":
        specs = [
            FaultSpec("serial_noise", at=total * 3 // 20, target=gateway,
                      duration=3 * total // 10, probability=0.04),
            FaultSpec("serial_drop", at=total * 11 // 20, target=gateway,
                      duration=total // 5, probability=0.02),
        ]
    elif name == "fade":
        specs = [
            FaultSpec("channel_fade", at=total // 4, target=station,
                      duration=2 * total // 5, probability=0.35)
            for station in stations
        ]
    elif name == "partition":
        specs = [
            FaultSpec("partition", at=2 * total // 5, target=stations[0],
                      peer=gateway_port, duration=total // 4),
        ]
    elif name == "wedge":
        specs = [
            FaultSpec("tnc_garbage", at=total // 5, target=gateway, count=256),
            FaultSpec("tnc_reboot", at=7 * total // 20, target=gateway),
            FaultSpec("tnc_reboot", at=13 * total // 20, target=gateway),
        ]
    else:
        raise ValueError(f"unknown tournament plan {name!r}")
    return FaultPlan.of(specs, name=f"tournament-{name}")


def chaos_plan(
    duration_seconds: int,
    gateway: str = "gateway",
    stations: Sequence[str] = (),
) -> FaultPlan:
    """The standard chaos-soak schedule, scaled to the run length.

    Phases (fractions of the run): early line noise on the gateway's
    serial RX path, a mid-run TNC wedge (the tentpole recovery test), a
    radio fade and a partition among the stations, an interface flap,
    and a garbage burst -- all cleared by ~80% of the run so the tail
    measures post-recovery health.
    """
    total = duration_seconds * SECOND
    specs = [
        FaultSpec("serial_noise", at=total // 10, target=gateway,
                  duration=total // 10, probability=0.02),
        FaultSpec("tnc_garbage", at=total // 5, target=gateway, count=512),
        FaultSpec("tnc_wedge", at=3 * total // 10, target=gateway),
        FaultSpec("serial_drop", at=6 * total // 10, target=gateway,
                  duration=total // 20, probability=0.01),
    ]
    if stations:
        first = stations[0]
        specs.append(FaultSpec("channel_fade", at=total // 4, target=first,
                               duration=total // 5, probability=0.3))
        specs.append(FaultSpec("iface_flap", at=7 * total // 10, target=first,
                               duration=total // 20))
    if len(stations) >= 2:
        specs.append(FaultSpec("partition", at=total // 2, target=stations[0],
                               peer=stations[1], duration=total // 10))
    return FaultPlan.of(specs, name=f"chaos-{duration_seconds}s")
