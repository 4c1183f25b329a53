"""Seeded bugs proving the checker can actually find bugs.

Each mutation re-introduces a realistic defect -- an accounting gap,
a dead retransmission timer, a missing priority exemption -- by
patching the live method with a copy lacking one crucial line.  The
mutation gate (``python -m repro mc --mutation-gate``) requires the
explorer to find a violation in every mutant AND to replay its
counterexample deterministically; a checker that passes clean worlds
but misses these is vacuous.

The mutants are deliberately of three different species so they
exercise three different properties:

* ``dropped-ack``    -- safety, conservation arithmetic (LapbConservation)
* ``skipped-t1``     -- safety, timer liveness scaffolding (NoStuckFsm)
* ``unfair-shed``    -- safety, priority fairness (ControlNeverShed)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict

from repro.ax25.defs import FrameType
from repro.ax25.lapb import LapbConnection, LapbState, _seq_in_range
from repro.core.driver import PRIO_BULK, PRIO_CONTROL, PacketRadioInterface


def _mutant_apply_ack(self, nr: int) -> None:
    """_apply_ack with the i_acked bump dropped (accounting gap)."""
    if not self._nr_valid(nr):
        self.stats["frmr_sent"] += 1
        self._send_u(FrameType.FRMR, poll_final=False, command=False)
        return
    while self.unacked:
        entry = self.unacked[0]
        if _seq_in_range(entry.ns, self.va, nr):
            self.unacked.popleft()
            # BUG: stats["i_acked"] is never bumped.
            self.va = (entry.ns + 1) % 8
            self.retry_count = 0
            if not entry.retransmitted:
                self.timer_policy.sample(
                    self.endpoint.sim.now - entry.sent_at)
                self.stats["rtt_samples"] += 1
                self._observe_recovery()
        else:
            break
    if not self.unacked and self.state is LapbState.CONNECTED:
        self._stop_t1()
    self._pump()


def _mutant_t1_expired(self) -> None:
    """_t1_expired that forgets to rearm T1 after resending SABM."""
    self._t1_event = None
    self.retry_count += 1
    if self.retry_count > self.retries:
        self._enter_disconnected(notify=True, reason="retry limit")
        return
    if self.state is LapbState.AWAITING_CONNECTION:
        self._send_u(FrameType.SABM, poll_final=True)
        # BUG: no _start_t1() -- if this SABM is also lost, the
        # connection waits forever with no timer to save it.
    elif self.state is LapbState.AWAITING_RELEASE:
        self._send_u(FrameType.DISC, poll_final=True)
        self._start_t1()
    elif self.state is LapbState.CONNECTED:
        if self.unacked:
            self._retransmit_window()
        else:
            self._send_s(FrameType.RR, poll_final=True, command=True)
            self._start_t1()


def _mutant_transmit_ui(self, destination, pid, payload, path,
                        priority: int = PRIO_BULK) -> None:
    """The backlog shed guard without the control-traffic exemption."""
    if (self.shed_threshold_bytes is not None
            and self.serial.tx_backlog_bytes > self.shed_threshold_bytes):
        # BUG: sheds regardless of priority -- ARP and ICMP die with
        # the bulk, so a congested link also goes undiagnosable.
        self.count_shed()
        if priority == PRIO_CONTROL:
            self.sheds_control += 1
        self.tracer.log("driver.shed", str(self.callsign),
                        "output shed under backlog (no exemption)",
                        backlog=self.serial.tx_backlog_bytes)
        return
    _ORIGINAL_TRANSMIT_UI(self, destination, pid, payload, path, priority)


_ORIGINAL_TRANSMIT_UI = PacketRadioInterface._transmit_ui


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: where to patch, what with, and where to hunt it."""

    name: str
    description: str
    world: str                     # preset expected to expose it
    expected_invariant: str        # invariant expected to fire
    target: type
    attribute: str
    mutant: Callable

    @contextmanager
    def active(self):
        """Install the mutant for the duration of a with-block."""
        original = getattr(self.target, self.attribute)
        setattr(self.target, self.attribute, self.mutant)
        try:
            yield
        finally:
            setattr(self.target, self.attribute, original)


MUTATIONS: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="dropped-ack",
            description="ack bookkeeping loses the i_acked bump",
            world="lapb2",
            expected_invariant="lapb-conservation",
            target=LapbConnection,
            attribute="_apply_ack",
            mutant=_mutant_apply_ack,
        ),
        Mutation(
            name="skipped-t1",
            description="SABM retransmission forgets to rearm T1",
            world="lapb2",
            expected_invariant="no-stuck-fsm",
            target=LapbConnection,
            attribute="_t1_expired",
            mutant=_mutant_t1_expired,
        ),
        Mutation(
            name="unfair-shed",
            description="backlog shed loses the control-traffic exemption",
            world="shedworld",
            expected_invariant="control-never-shed",
            target=PacketRadioInterface,
            attribute="_transmit_ui",
            mutant=_mutant_transmit_ui,
        ),
    )
}
