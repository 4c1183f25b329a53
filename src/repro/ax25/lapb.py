"""AX.25 connected mode (level 2) -- the LAPB-style balanced link.

This is the protocol a stock TNC speaks in firmware and what terminal
users ride when they type ``connect KB7DZ``.  The paper's gateway does
not need it for IP (IP rides UI frames), but §2.4's application-layer
gateway and the BBS do: "A user program can then read from this line,
and maintain the state required to keep track of AX.25 level [2]
connections."

The implementation covers the working core of AX.25 v2.0: SABM/UA
connection establishment, DISC/UA release, DM refusal, modulo-8 I-frame
numbering with a configurable window, cumulative acknowledgement, T1
retransmission with exponential backoff, N2 retry give-up, REJ-based
go-back-N recovery, and RNR flow control.  Omitted relative to the full
spec (documented here so nobody goes hunting): FRMR generation beyond
unexpected-frame cases, XID negotiation, and the modulo-128 extension.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.ax25.address import AX25Address, AX25Path
from repro.ax25.defs import (
    DEFAULT_PACLEN,
    DEFAULT_RETRIES,
    DEFAULT_WINDOW,
    PID_NO_L3,
    SEQUENCE_MODULO,
    FrameType,
)
from repro.ax25.frames import AX25Frame
from repro.sim.clock import MS, SECOND
from repro.sim.engine import Event, Simulator
from repro.sim.trace import NULL_TRACER, Tracer


# ----------------------------------------------------------------------
# T1 timer policies
# ----------------------------------------------------------------------

class LinkTimerPolicy:
    """Strategy interface for the T1 retransmission timer.

    Mirrors :class:`repro.inet.tcp.RtoPolicy` one layer down: the
    connection feeds I-frame round-trip samples (never from
    retransmitted frames -- Karn's rule) and asks for the delay to arm,
    already scaled by the retry count's exponential backoff.
    """

    def current(self, retry_count: int) -> int:
        """The T1 delay to arm now, in microseconds."""
        raise NotImplementedError

    def sample(self, rtt: int) -> None:
        """Feed one I-frame round-trip measurement."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return type(self).__name__


class FixedLinkTimer(LinkTimerPolicy):
    """The classic TNC behaviour: a configured T1, doubling per retry.

    This is exactly what the firmware of a ROM TNC does -- FRACK is a
    knob the operator sets once, regardless of whether the path is one
    hop of clear 9600 baud or three digipeats of contested 1200.
    """

    MAX_SHIFT = 4

    def __init__(self, t1: int = 5 * SECOND) -> None:
        self.t1 = t1

    def current(self, retry_count: int) -> int:
        """The timeout value to arm now, in microseconds."""
        return self.t1 * (1 << min(retry_count, self.MAX_SHIFT))

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"FixedLinkTimer({self.t1 / SECOND:.2f}s)"


class AdaptiveLinkTimer(LinkTimerPolicy):
    """Jacobson-smoothed T1 from measured I-frame round trips.

    srtt/rttvar integer estimation exactly as the TCP layer does it,
    T1 = srtt + 4*rttvar clamped to [min_t1, max_t1], with capped
    exponential backoff on retries.  The *connection* enforces Karn's
    rule by never feeding samples for retransmitted frames.
    """

    MAX_SHIFT = 4

    def __init__(self, initial_t1: int = 5 * SECOND,
                 min_t1: int = 500 * MS,
                 max_t1: int = 60 * SECOND) -> None:
        self.initial_t1 = initial_t1
        self.min_t1 = min_t1
        self.max_t1 = max_t1
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.samples = 0

    def current(self, retry_count: int) -> int:
        """The timeout value to arm now, in microseconds."""
        if self.srtt is None:
            base = self.initial_t1
        else:
            base = self.srtt + 4 * self.rttvar
        base = max(self.min_t1, min(base, self.max_t1))
        return min(base << min(retry_count, self.MAX_SHIFT), self.max_t1)

    def sample(self, rtt: int) -> None:
        """Feed one I-frame round-trip measurement."""
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt // 2
        else:
            delta = rtt - self.srtt
            self.srtt += delta // 8
            self.rttvar += (abs(delta) - self.rttvar) // 4

    def describe(self) -> str:
        """One-line human-readable description."""
        srtt = "?" if self.srtt is None else f"{self.srtt / SECOND:.2f}s"
        return f"AdaptiveLinkTimer(srtt={srtt})"


@dataclass
class _UnackedI:
    """One I frame in flight: sequence, payload, Karn bookkeeping."""

    ns: int
    info: bytes
    sent_at: int
    retransmitted: bool = False


class LapbState(enum.Enum):
    """Connection states (subset of the AX.25 v2.0 state chart)."""

    DISCONNECTED = "disconnected"
    AWAITING_CONNECTION = "awaiting-connection"
    CONNECTED = "connected"
    AWAITING_RELEASE = "awaiting-release"


class LapbConnection:
    """One balanced link between two stations.

    Created by :class:`LapbEndpoint`; applications interact through
    :meth:`send` and the endpoint's callbacks.
    """

    def __init__(
        self,
        endpoint: "LapbEndpoint",
        remote: AX25Address,
        path: AX25Path,
        window: int,
        t1: int,
        retries: int,
        timer_policy: Optional[LinkTimerPolicy] = None,
    ) -> None:
        self.endpoint = endpoint
        self.remote = remote
        self.path = path
        self.window = window
        self.t1 = t1
        self.retries = retries
        self.timer_policy = timer_policy or FixedLinkTimer(t1)

        self.state = LapbState.DISCONNECTED
        self.vs = 0                      # next send sequence number V(S)
        self.vr = 0                      # expected receive number V(R)
        self.va = 0                      # oldest unacknowledged V(A)
        self.peer_busy = False           # remote sent RNR
        self.retry_count = 0
        self.send_queue: Deque[bytes] = deque()      # not yet transmitted
        self.unacked: Deque[_UnackedI] = deque()     # I frames in flight
        self._t1_event: Optional[Event] = None
        self._rej_outstanding = False
        self.local_busy = False
        self.giveup_drops = 0            # I frames abandoned at N2 give-up

        # statistics for tests and benches
        self.stats = {
            "i_sent": 0,
            "i_acked": 0,
            "i_rexmit": 0,
            "i_received": 0,
            "rej_sent": 0,
            "rej_received": 0,
            "frmr_sent": 0,
            "bytes_delivered": 0,
            "rtt_samples": 0,
            "i_abandoned": 0,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Initiate the link (send SABM, await UA)."""
        if self.state is not LapbState.DISCONNECTED:
            return
        self.state = LapbState.AWAITING_CONNECTION
        self.retry_count = 0
        self._send_u(FrameType.SABM, poll_final=True)
        self._start_t1()

    def disconnect(self) -> None:
        """Release the link (send DISC, await UA)."""
        if self.state is LapbState.DISCONNECTED:
            return
        if self.state is LapbState.AWAITING_CONNECTION:
            self._enter_disconnected(notify=True)
            return
        self.state = LapbState.AWAITING_RELEASE
        self.retry_count = 0
        self._send_u(FrameType.DISC, poll_final=True)
        self._start_t1()

    def send(self, data: bytes, pid: int = PID_NO_L3) -> None:
        """Queue application data; it is segmented to PACLEN and windowed."""
        if self.state is not LapbState.CONNECTED:
            raise ConnectionError(f"link to {self.remote} is {self.state.value}")
        paclen = self.endpoint.paclen
        if not data:
            self.send_queue.append(b"")
        else:
            for start in range(0, len(data), paclen):
                self.send_queue.append(data[start : start + paclen])
        self._pump()

    def set_local_busy(self, busy: bool) -> None:
        """Declare this end's receive buffers full (RNR) or free (RR).

        While busy, incoming I frames are discarded unacknowledged and
        polls are answered with RNR, exactly as a TNC with a full
        buffer pool behaves.
        """
        if busy == self.local_busy:
            return
        self.local_busy = busy
        if self.state is LapbState.CONNECTED:
            self._send_s(FrameType.RNR if busy else FrameType.RR)

    @property
    def connected(self) -> bool:
        """True while connected."""
        return self.state is LapbState.CONNECTED

    @property
    def in_flight(self) -> int:
        """Number of unacknowledged I frames."""
        return len(self.unacked)

    # ------------------------------------------------------------------
    # frame transmission
    # ------------------------------------------------------------------

    def _send_u(self, frame_type: FrameType, poll_final: bool, command: bool = True) -> None:
        frame = AX25Frame.unnumbered(
            frame_type,
            destination=self.remote,
            source=self.endpoint.address,
            poll_final=poll_final,
            command=command,
            path=self.path,
        )
        self.endpoint.transmit(frame)

    def _send_s(self, frame_type: FrameType, poll_final: bool = False, command: bool = False) -> None:
        frame = AX25Frame.supervisory(
            frame_type,
            destination=self.remote,
            source=self.endpoint.address,
            nr=self.vr,
            poll_final=poll_final,
            command=command,
            path=self.path,
        )
        if frame_type is FrameType.REJ:
            self.stats["rej_sent"] += 1
        self.endpoint.transmit(frame)

    def _pump(self) -> None:
        """Transmit queued I frames while the window allows."""
        if self.state is not LapbState.CONNECTED or self.peer_busy:
            return
        while self.send_queue and len(self.unacked) < self.window:
            info = self.send_queue.popleft()
            frame = AX25Frame.i_frame(
                destination=self.remote,
                source=self.endpoint.address,
                ns=self.vs,
                nr=self.vr,
                info=info,
                path=self.path,
            )
            self.unacked.append(_UnackedI(
                ns=self.vs, info=info, sent_at=self.endpoint.sim.now))
            self.vs = (self.vs + 1) % SEQUENCE_MODULO
            self.stats["i_sent"] += 1
            self.endpoint.transmit(frame)
        if self.unacked and self._t1_event is None:
            self._start_t1()

    def _retransmit_window(self) -> None:
        """Go-back-N: resend every unacknowledged I frame in order.

        Each resent frame is marked so its eventual acknowledgement
        yields no RTT sample (Karn's rule: the round trip is ambiguous).
        """
        for entry in self.unacked:
            frame = AX25Frame.i_frame(
                destination=self.remote,
                source=self.endpoint.address,
                ns=entry.ns,
                nr=self.vr,
                info=entry.info,
                path=self.path,
            )
            entry.retransmitted = True
            self.stats["i_rexmit"] += 1
            self._observe_recovery(retransmits=1)
            self.endpoint.transmit(frame)
        if self.unacked:
            self._start_t1()

    def _observe_recovery(self, retransmits: int = 0) -> None:
        """Sample T1 into the flight recorder's recovery instruments.

        Mirrors the TCP layer's gauges one layer down: the ``lapb_t1_us``
        gauge tracks the armed timeout as the policy adapts, and the
        windowed rate counts go-back-N retransmissions per 10 seconds.
        """
        recorder = self.endpoint.tracer.flight
        if recorder is None:
            return
        recorder.instruments.gauge("lapb_t1_us").sample(
            self.timer_policy.current(self.retry_count))
        if retransmits:
            recorder.instruments.rate(
                "lapb_rexmit_per_10s", 10 * SECOND).tick(
                    self.endpoint.sim.now, retransmits)

    # ------------------------------------------------------------------
    # T1 timer
    # ------------------------------------------------------------------

    def _start_t1(self) -> None:
        self._stop_t1()
        delay = self.timer_policy.current(self.retry_count)
        self._t1_event = self.endpoint.sim.schedule(
            delay, self._t1_expired, label=f"lapb-t1 {self.endpoint.address}->{self.remote}"
        )

    def _stop_t1(self) -> None:
        if self._t1_event is not None:
            self._t1_event.cancel()
            self._t1_event = None

    def _t1_expired(self) -> None:
        self._t1_event = None
        self.retry_count += 1
        if self.retry_count > self.retries:
            self._enter_disconnected(notify=True, reason="retry limit")
            return
        if self.state is LapbState.AWAITING_CONNECTION:
            self._send_u(FrameType.SABM, poll_final=True)
            self._start_t1()
        elif self.state is LapbState.AWAITING_RELEASE:
            self._send_u(FrameType.DISC, poll_final=True)
            self._start_t1()
        elif self.state is LapbState.CONNECTED:
            if self.unacked:
                self._retransmit_window()
            else:
                # poll the peer's status
                self._send_s(FrameType.RR, poll_final=True, command=True)
                self._start_t1()

    # ------------------------------------------------------------------
    # frame reception (called by the endpoint)
    # ------------------------------------------------------------------

    def handle_frame(self, frame: AX25Frame) -> None:
        """Process one received frame for this connection/endpoint."""
        handler = {
            FrameType.SABM: self._on_sabm,
            FrameType.UA: self._on_ua,
            FrameType.DISC: self._on_disc,
            FrameType.DM: self._on_dm,
            FrameType.I: self._on_i,
            FrameType.RR: self._on_rr,
            FrameType.RNR: self._on_rnr,
            FrameType.REJ: self._on_rej,
            FrameType.FRMR: self._on_frmr,
        }.get(frame.frame_type)
        if handler is not None:
            handler(frame)

    def _on_sabm(self, frame: AX25Frame) -> None:
        if not self.endpoint.accept_connections:
            self._send_u(FrameType.DM, poll_final=frame.poll_final, command=False)
            return
        # (Re)establish: reset state, acknowledge.
        self._reset_sequence()
        was_connected = self.state is LapbState.CONNECTED
        self.state = LapbState.CONNECTED
        self._stop_t1()
        self._send_u(FrameType.UA, poll_final=frame.poll_final, command=False)
        if not was_connected:
            self.endpoint.notify_connect(self, initiated=False)

    def _on_ua(self, frame: AX25Frame) -> None:
        if self.state is LapbState.AWAITING_CONNECTION:
            self.state = LapbState.CONNECTED
            self._stop_t1()
            self.retry_count = 0
            self._reset_sequence()
            self.endpoint.notify_connect(self, initiated=True)
            self._pump()
        elif self.state is LapbState.AWAITING_RELEASE:
            self._enter_disconnected(notify=True)

    def _on_disc(self, frame: AX25Frame) -> None:
        self._send_u(FrameType.UA, poll_final=frame.poll_final, command=False)
        if self.state is not LapbState.DISCONNECTED:
            self._enter_disconnected(notify=True)

    def _on_dm(self, frame: AX25Frame) -> None:
        if self.state in (LapbState.AWAITING_CONNECTION, LapbState.AWAITING_RELEASE, LapbState.CONNECTED):
            self._enter_disconnected(notify=True, reason="DM")

    def _on_frmr(self, frame: AX25Frame) -> None:
        # v2.0 recovery from FRMR is link reset.
        if self.state is LapbState.CONNECTED:
            self.state = LapbState.AWAITING_CONNECTION
            self.retry_count = 0
            self._send_u(FrameType.SABM, poll_final=True)
            self._start_t1()

    def _on_i(self, frame: AX25Frame) -> None:
        if self.state is not LapbState.CONNECTED:
            # Only a *disconnected* station answers DM.  While awaiting
            # connection (our SABM out, their UA lost) an early I frame
            # must be ignored: a DM here would tear down the half-open
            # link the peer believes is already up.
            if self.state is LapbState.DISCONNECTED:
                self._send_u(FrameType.DM, poll_final=frame.poll_final,
                             command=False)
            return
        self._apply_ack(frame.nr)
        if self.local_busy:
            # Receive buffers full: discard without advancing V(R).
            self._send_s(FrameType.RNR, poll_final=frame.poll_final)
            return
        if frame.ns == self.vr:
            self.vr = (self.vr + 1) % SEQUENCE_MODULO
            self.stats["i_received"] += 1
            self.stats["bytes_delivered"] += len(frame.info)
            self._rej_outstanding = False
            self.endpoint.notify_data(self, frame.info, frame.pid or PID_NO_L3)
            # Acknowledge.  A real implementation may piggyback; we send RR
            # unless an I frame is about to go out carrying the new N(R).
            if self.send_queue and len(self.unacked) < self.window and not self.peer_busy:
                self._pump()
            else:
                self._send_s(FrameType.RR, poll_final=frame.poll_final)
        else:
            # Out of sequence: request go-back-N once per gap.
            if not getattr(self, "_rej_outstanding", False):
                self._send_s(FrameType.REJ, poll_final=frame.poll_final)
                self._rej_outstanding = True

    def _on_rr(self, frame: AX25Frame) -> None:
        self.peer_busy = False
        self._apply_ack(frame.nr)
        if frame.command and frame.poll_final:
            self._send_s(FrameType.RNR if self.local_busy else FrameType.RR,
                         poll_final=True)
        self._pump()

    def _on_rnr(self, frame: AX25Frame) -> None:
        self.peer_busy = True
        self._apply_ack(frame.nr)
        if frame.command and frame.poll_final:
            self._send_s(FrameType.RNR if self.local_busy else FrameType.RR,
                         poll_final=True)
        # Keep T1 running so we poll the busy peer.
        if self._t1_event is None:
            self._start_t1()

    def _on_rej(self, frame: AX25Frame) -> None:
        self.stats["rej_received"] += 1
        self.peer_busy = False
        self._apply_ack(frame.nr)
        self._retransmit_window()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _nr_valid(self, nr: int) -> bool:
        """Is N(R) within the legal window [V(A), V(S)] modulo 8?"""
        span = (self.vs - self.va) % SEQUENCE_MODULO
        offset = (nr - self.va) % SEQUENCE_MODULO
        return offset <= span

    def _apply_ack(self, nr: int) -> None:
        """Release frames acknowledged by N(R) (cumulative).

        An N(R) outside [V(A), V(S)] is a protocol error: AX.25 v2.0
        answers with FRMR, and the peer resets the link.
        """
        if not self._nr_valid(nr):
            self.stats["frmr_sent"] += 1
            self._send_u(FrameType.FRMR, poll_final=False, command=False)
            return
        while self.unacked:
            entry = self.unacked[0]
            # ns is acknowledged if it lies in [va, nr) modulo 8.
            if _seq_in_range(entry.ns, self.va, nr):
                self.unacked.popleft()
                self.stats["i_acked"] += 1
                self.va = (entry.ns + 1) % SEQUENCE_MODULO
                self.retry_count = 0
                if not entry.retransmitted:
                    # Karn's rule: only unambiguous round trips train T1.
                    self.timer_policy.sample(
                        self.endpoint.sim.now - entry.sent_at)
                    self.stats["rtt_samples"] += 1
                    self._observe_recovery()
            else:
                break
        # Only the CONNECTED state may retire T1 here: while awaiting
        # connection or release, T1 guards the outstanding SABM/DISC,
        # and a crossing RR/RNR/REJ acking the last I frame must not
        # kill the only timer that can recover a lost UA.  (Found by
        # reprocheck: RR crossing DISC left AWAITING_RELEASE timerless.)
        if not self.unacked and self.state is LapbState.CONNECTED:
            self._stop_t1()
        self._pump()

    def _reset_sequence(self) -> None:
        self.vs = self.vr = self.va = 0
        self.peer_busy = False
        self.local_busy = False
        # A link reset with I frames still in flight kills them: account
        # each one (counter + span terminal) instead of clearing the
        # deque silently, so every sent frame has a recorded fate --
        #   i_sent == i_acked + in_flight + i_abandoned
        # holds in *every* reachable state (the reprocheck LAPB
        # conservation invariant).
        if self.unacked:
            self._abandon_unacked("link reset")
        self._rej_outstanding = False

    def _enter_disconnected(self, notify: bool, reason: str = "") -> None:
        previous = self.state
        self.state = LapbState.DISCONNECTED
        self._stop_t1()
        self.send_queue.clear()
        if self.unacked:
            self._abandon_unacked(reason or "disconnect")
        if notify and previous is not LapbState.DISCONNECTED:
            self.endpoint.notify_disconnect(self, reason)

    def _abandon_unacked(self, why: str) -> None:
        """Account for every I frame the link gives up on.

        N2 give-up (and any other disconnect with frames in flight) used
        to clear ``unacked`` silently; these frames died without a
        counter bump or a span terminal, so the flight recorder's
        conservation census could not see them.  Each abandoned frame
        now bumps the drop counter and emits a paired observation --
        a trace record always, plus a span terminal when the payload is
        an IP datagram the recorder is following.
        """
        tracer = self.endpoint.tracer
        source = str(self.endpoint.address)
        for entry in self.unacked:
            self.giveup_drops += 1
            self.stats["i_abandoned"] += 1
            tracer.log(
                "lapb.giveup", source,
                f"abandoning I frame ns={entry.ns} to {self.remote}",
                reason=why, bytes=len(entry.info),
            )
            if tracer.flight is not None:
                tracer.flight.drop(entry.info, "lapb.giveup", source,
                                   "link_giveup")
        self.unacked.clear()


def _seq_in_range(ns: int, va: int, nr: int) -> bool:
    """True when ``ns`` is within [va, nr) in modulo-8 arithmetic."""
    if va == nr:
        return False
    if va < nr:
        return va <= ns < nr
    return ns >= va or ns < nr


class LapbEndpoint:
    """Multiplexes LAPB connections for one station.

    Owns a map of per-remote :class:`LapbConnection` objects.  The owner
    supplies ``send_frame`` (how frames reach the air -- typically a TNC
    or driver transmit queue) and receives callbacks:

    * ``on_connect(connection, initiated)``
    * ``on_data(connection, data, pid)``
    * ``on_disconnect(connection, reason)``
    """

    def __init__(
        self,
        sim: Simulator,
        address: AX25Address,
        send_frame: Callable[[AX25Frame], None],
        t1: int = 5 * SECOND,
        window: int = DEFAULT_WINDOW,
        retries: int = DEFAULT_RETRIES,
        paclen: int = DEFAULT_PACLEN,
        accept_connections: bool = True,
        timer_policy: Optional[Callable[[], LinkTimerPolicy]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.address = address
        self.send_frame = send_frame
        self.t1 = t1
        self.window = window
        self.retries = retries
        self.paclen = paclen
        self.accept_connections = accept_connections
        #: per-connection T1 policy factory; None = FixedLinkTimer(t1)
        self.timer_policy = timer_policy
        #: the shared tracer; gives N2 give-up a span terminal
        self.tracer = tracer
        self.connections: Dict[str, LapbConnection] = {}

        self.on_connect: Optional[Callable[[LapbConnection, bool], None]] = None
        self.on_data: Optional[Callable[[LapbConnection, bytes, int], None]] = None
        self.on_disconnect: Optional[Callable[[LapbConnection, str], None]] = None
        self.frames_transmitted = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def connection(self, remote: AX25Address, path: AX25Path = AX25Path()) -> LapbConnection:
        """Get or create the connection object for ``remote``."""
        key = str(remote)
        conn = self.connections.get(key)
        if conn is None:
            conn = LapbConnection(
                self, remote, path, window=self.window, t1=self.t1,
                retries=self.retries,
                timer_policy=(self.timer_policy()
                              if self.timer_policy is not None else None),
            )
            self.connections[key] = conn
        return conn

    def connect(self, remote: AX25Address, path: AX25Path = AX25Path()) -> LapbConnection:
        """Initiate a connection to ``remote``."""
        conn = self.connection(remote, path)
        conn.path = path
        conn.connect()
        return conn

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------

    def transmit(self, frame: AX25Frame) -> None:
        """Transmit toward the hardware/medium."""
        self.frames_transmitted += 1
        self.send_frame(frame)

    def handle_frame(self, frame: AX25Frame) -> None:
        """Feed a received frame addressed to this station."""
        if not frame.destination.matches(self.address):
            return
        if frame.frame_type is FrameType.UI:
            return  # UI frames are connectionless; not ours to handle
        remote = frame.source
        conn = self.connections.get(str(remote))
        if conn is None:
            if frame.frame_type is FrameType.SABM:
                conn = self.connection(remote, frame.path.reversed())
            else:
                # Not connected and not a connect request: per spec answer DM
                # to commands with P set.
                if frame.command and frame.poll_final:
                    dm = AX25Frame.unnumbered(
                        FrameType.DM,
                        destination=remote,
                        source=self.address,
                        poll_final=True,
                        command=False,
                        path=frame.path.reversed(),
                    )
                    self.transmit(dm)
                return
        conn.handle_frame(frame)

    # ------------------------------------------------------------------
    # callbacks from connections
    # ------------------------------------------------------------------

    def notify_connect(self, conn: LapbConnection, initiated: bool) -> None:
        """Dispatch the on_connect callback."""
        if self.on_connect is not None:
            self.on_connect(conn, initiated)

    def notify_data(self, conn: LapbConnection, data: bytes, pid: int) -> None:
        """Dispatch the on_data callback."""
        if self.on_data is not None:
            self.on_data(conn, data, pid)

    def notify_disconnect(self, conn: LapbConnection, reason: str) -> None:
        """Dispatch the on_disconnect callback."""
        if self.on_disconnect is not None:
            self.on_disconnect(conn, reason)
