"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

The injector owns no policy -- it walks the plan and schedules each
spec against the component hooks the subsystem layers expose
(``SerialEndpoint.rx_fault``, ``KissTnc.wedge/reboot``,
``RadioChannel.fade_probability/blocked_pairs``,
``NetworkInterface.if_ioctl``).  Every random decision comes from a
stream named after the fault and its target (``fault/serial/<name>``,
``fault/garbage/<name>``; the channel draws fades from
``fault/fade/<port>`` itself), so injecting faults never perturbs the
RNG sequence of healthy components and metrics stay a pure function of
(plan, seed).

Two design rules matter here beyond the fault semantics themselves:

* **No closures in live state.**  Everything the injector installs on a
  component or schedules on the simulator is a bound method, a
  :func:`functools.partial` over bound methods, or a small callable
  object (:class:`LineNoiseFilter`).  A lambda or nested ``def`` caught
  in an event queue or an ``rx_fault`` slot cannot be pickled, so a
  model-checker snapshot of the world would fail (SNAP001 in reprolint
  guards this repo-wide).
* **Nondeterminism is interceptable.**  When a :class:`ChoiceOracle` is
  installed, the coarse binary fault decisions (apply a fade or skip
  it, wedge now or later) become enumerable :class:`ChoicePoint` draws
  instead of RNG draws, which is how :mod:`repro.check` explores every
  fault schedule instead of sampling one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.faults.plan import FaultPlan, FaultSpec
from repro.netif.ifnet import NetworkInterface
from repro.radio.channel import RadioChannel
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass
class ChoicePoint:
    """One resolved nondeterministic decision.

    ``arms`` is how many alternatives existed; ``chosen`` is the arm
    taken.  A sequence of these is a complete, replayable schedule of
    every decision a run made.
    """

    name: str
    arms: int
    chosen: int


class ChoiceOracle:
    """Resolves nondeterministic choices from a script, recording all.

    The model checker's enumeration engine: components ask
    :meth:`choose` at each decision; scripted positions replay the
    given arm, unscripted positions default to arm 0 and are recorded
    in :attr:`trace` so the explorer can enumerate the siblings.

    The oracle deliberately holds only plain data (lists of ints and
    :class:`ChoicePoint` records), so it rides along with a snapshot
    of whatever world owns it.
    """

    def __init__(self) -> None:
        self.script: List[int] = []
        self.trace: List[ChoicePoint] = []
        self._cursor = 0

    def begin(self, script: Sequence[int] = ()) -> None:
        """Reset for one transition, replaying ``script`` as a prefix."""
        self.script = list(script)
        self.trace = []
        self._cursor = 0

    def choose(self, name: str, arms: int) -> int:
        """Resolve one decision with ``arms`` alternatives."""
        if arms <= 1:
            return 0
        if self._cursor < len(self.script):
            chosen = self.script[self._cursor]
            if not 0 <= chosen < arms:
                raise ValueError(
                    f"scripted arm {chosen} out of range for {name!r} ({arms} arms)")
        else:
            chosen = 0
        self._cursor += 1
        self.trace.append(ChoicePoint(name, arms, chosen))
        return chosen

    @property
    def choices_taken(self) -> List[int]:
        """The arm sequence this transition actually took."""
        return [point.chosen for point in self.trace]


@dataclass
class LineNoiseFilter:
    """The serial RX fault filter, as a snapshot-safe callable object.

    Installed on ``SerialEndpoint.rx_fault``; a snapshot of the
    endpoint carries a copy of this filter (injector and RNG
    included), which a closure could not do.
    """

    injector: "FaultInjector"
    spec: FaultSpec
    rng: object
    drop: bool

    def __call__(self, byte: int) -> Optional[int]:
        if self.rng.random() >= self.spec.probability:
            return byte
        if self.drop:
            self.injector.bytes_dropped += 1
            return None
        self.injector.bytes_corrupted += 1
        return byte ^ (1 << int(self.rng.random() * 8))


@dataclass
class _Partition:
    """Undoable partition bookkeeping (both directions of one pair)."""

    channel: RadioChannel
    pairs: tuple

    def apply(self) -> None:
        for pair in self.pairs:
            self.channel.blocked_pairs.add(pair)

    def undo(self) -> None:
        for pair in self.pairs:
            self.channel.blocked_pairs.discard(pair)


class FaultInjector:
    """Schedules a plan's faults against live components."""

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.sim = sim
        self.streams = streams
        self.tracer = tracer
        #: When set, coarse fault decisions are drawn from this oracle
        #: instead of being applied unconditionally -- the model
        #: checker's hook (see :meth:`choice`).
        self.oracle: Optional[ChoiceOracle] = None

        # accounting (all deterministic given the plan + seed)
        self.faults_injected = 0
        self.faults_cleared = 0
        self.bytes_corrupted = 0
        self.bytes_dropped = 0
        self.garbage_bytes = 0

    def choice(self, name: str, arms: int) -> int:
        """One enumerable decision: oracle-driven when installed, else arm 0.

        Without an oracle the injector is fully deterministic (the plan
        says what happens; arm 0 is "apply as scheduled"), so chaos-run
        metrics stay a pure function of (plan, seed).
        """
        if self.oracle is None:
            return 0
        return self.oracle.choose(name, arms)

    def install(
        self,
        plan: FaultPlan,
        channel: Optional[RadioChannel] = None,
        attachments: Optional[Mapping[str, object]] = None,
        interfaces: Optional[Mapping[str, NetworkInterface]] = None,
    ) -> None:
        """Validate ``plan`` and schedule every spec.

        ``attachments`` maps target names to
        :class:`~repro.core.hosts.RadioAttachment` bundles (serial/TNC
        faults); ``channel`` serves fades and partitions;
        ``interfaces`` serves flaps.  Missing a needed map raises
        immediately, at install time, not mid-run.
        """
        plan.validate()
        attachments = dict(attachments or {})
        interfaces = dict(interfaces or {})
        for spec in plan:
            apply = self._resolve(spec, channel, attachments, interfaces)
            self.sim.at(spec.at, self._fire, spec, apply,
                        label=f"fault {spec.kind} {spec.target}")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _resolve(self, spec: FaultSpec, channel: Optional[RadioChannel],
                 attachments: Dict[str, object],
                 interfaces: Dict[str, NetworkInterface]) -> Callable[[], None]:
        """Bind a spec to its victim; raises KeyError for unknown targets."""
        if spec.kind in ("serial_noise", "serial_drop"):
            return partial(self._serial_fault, spec, attachments[spec.target])
        if spec.kind in ("tnc_wedge", "tnc_reboot", "tnc_garbage"):
            return partial(self._tnc_fault, spec, attachments[spec.target])
        if spec.kind in ("channel_fade", "partition"):
            if channel is None:
                raise ValueError(f"{spec.kind} needs a channel")
            if spec.target not in channel.ports:
                raise KeyError(spec.target)
            if spec.kind == "partition" and spec.peer not in channel.ports:
                raise KeyError(spec.peer)
            return partial(self._channel_fault, spec, channel)
        if spec.kind == "iface_flap":
            return partial(self._flap, spec, interfaces[spec.target])
        raise ValueError(f"unhandled fault kind {spec.kind!r}")  # pragma: no cover

    def _fire(self, spec: FaultSpec, apply: Callable[[], None]) -> None:
        self.faults_injected += 1
        self.tracer.log("fault.inject", spec.target, spec.kind,
                        duration=spec.duration)
        apply()

    def _clear(self, spec: FaultSpec, undo: Callable[[], None]) -> None:
        self.sim.at(spec.end, self._run_clear, spec, undo,
                    label=f"fault-clear {spec.kind} {spec.target}")

    def _run_clear(self, spec: FaultSpec, undo: Callable[[], None]) -> None:
        self.faults_cleared += 1
        self.tracer.log("fault.clear", spec.target, spec.kind)
        undo()

    # ------------------------------------------------------------------
    # serial-line faults
    # ------------------------------------------------------------------

    def _serial_fault(self, spec: FaultSpec, attachment: object) -> None:
        # Host-side endpoint: bytes arriving from the TNC, i.e. the §2.2
        # receive path the paper's driver must survive.
        endpoint = attachment.serial.a
        line_noise = LineNoiseFilter(
            injector=self,
            spec=spec,
            rng=self.streams.stream(f"fault/serial/{spec.target}"),
            drop=spec.kind == "serial_drop",
        )
        endpoint.rx_fault = line_noise
        self._clear(spec, partial(self._remove_filter, endpoint, line_noise))

    @staticmethod
    def _remove_filter(endpoint: object, installed: Callable) -> None:
        # Only uninstall our own filter: a later, overlapping window may
        # have replaced it (last writer wins while both are active).
        if endpoint.rx_fault is installed:
            endpoint.rx_fault = None

    # ------------------------------------------------------------------
    # TNC faults
    # ------------------------------------------------------------------

    def _tnc_fault(self, spec: FaultSpec, attachment: object) -> None:
        tnc = attachment.tnc
        if spec.kind == "tnc_wedge":
            # Wedge now, or (under exploration) defer one second -- the
            # "wedge now/later" race the paper's §3 lockup hinges on.
            if self.choice(f"wedge-later:{spec.target}", 2) == 1:
                self.sim.schedule(1 * SECOND, tnc.wedge,
                                  label=f"fault tnc_wedge {spec.target}")
            else:
                tnc.wedge()
        elif spec.kind == "tnc_reboot":
            tnc.reboot()
        else:  # tnc_garbage: the firmware hiccups and spews noise upline
            rng = self.streams.stream(f"fault/garbage/{spec.target}")
            burst = bytes(int(rng.random() * 256) for _ in range(spec.count))
            self.garbage_bytes += len(burst)
            attachment.serial.b.write(burst)

    # ------------------------------------------------------------------
    # radio-channel faults
    # ------------------------------------------------------------------

    def _channel_fault(self, spec: FaultSpec, channel: RadioChannel) -> None:
        if spec.kind == "channel_fade":
            # Under exploration, a fade window is itself a choice: the
            # checker explores both the faded and the clean schedule.
            if self.choice(f"fade-on:{spec.target}", 2) == 1:
                return
            channel.fade_probability[spec.target] = spec.probability
            self._clear(spec, partial(channel.fade_probability.pop,
                                      spec.target, None))
        else:  # partition
            partition = _Partition(channel, ((spec.target, spec.peer),
                                             (spec.peer, spec.target)))
            partition.apply()
            self._clear(spec, partition.undo)

    # ------------------------------------------------------------------
    # interface faults
    # ------------------------------------------------------------------

    def _flap(self, spec: FaultSpec, interface: NetworkInterface) -> None:
        interface.if_ioctl("down")
        self._clear(spec, partial(interface.if_ioctl, "up"))
