"""TCP with a pluggable retransmission-timeout policy.

§4.1 of the paper: "Hosts on the Ethernet side expect fast response.
If they don't get a response quickly, they time out and retry their
transmission. ... Fortunately, many implementations of TCP dynamically
adjust their timeout values.  Hence, when the system on the Ethernet
side learns the correct timeout value, the frequency of unnecessary
packet retransmissions is reduced."

To reproduce that observation the RTO policy is a strategy object:

* :class:`FixedRto` -- a naive constant timeout (the "expects fast
  response" behaviour: over a 1200 bps path it fires long before the
  first ACK can possibly return).
* :class:`AdaptiveRto` -- Jacobson mean/deviation estimation with
  Karn's clamp (no samples from retransmitted segments) and exponential
  backoff, i.e. what 4.3BSD-era TCP converged on.  Fitting, given Phil
  Karn's KA9Q code is the paper's reference [5].

The implementation is a working subset of RFC 793: three-way handshake,
sliding window with cumulative ACKs, out-of-order receive buffering,
go-back-one retransmission, FIN teardown with TIME_WAIT, RST handling,
MSS option on SYN, and slow-start/congestion-avoidance.  Omitted: urgent
data, TCP options beyond MSS, delayed ACKs (immediate ACKs keep the
simulation deterministic), and SACK (not invented yet in 1988 anyway).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.inet.checksum import internet_checksum, pseudo_header
from repro.inet.ip import IPv4Address
from repro.sim.clock import MS, SECOND, byte_airtime, bytes_per_second
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.inet.netstack import NetStack

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

_HEADER_MIN = 20
DEFAULT_MSS = 512
DEFAULT_WINDOW = 4096
#: 2*MSL for TIME_WAIT; short enough to keep simulations brisk.
TIME_WAIT_PERIOD = 30 * SECOND


class TcpError(ValueError):
    """Raised for malformed segments."""


@dataclass(frozen=True)
class TcpSegment:
    """One TCP segment."""

    source_port: int
    destination_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss_option: Optional[int] = None

    def encode(self, source: IPv4Address, destination: IPv4Address) -> bytes:
        """Serialise to the wire byte string."""
        options = b""
        if self.mss_option is not None:
            options = struct.pack("!BBH", 2, 4, self.mss_option)
        data_offset = (_HEADER_MIN + len(options)) // 4
        header = struct.pack(
            "!HHIIBBHHH",
            self.source_port,
            self.destination_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset << 4,
            self.flags,
            self.window,
            0,
            0,
        ) + options
        segment = header + self.payload
        pseudo = pseudo_header(source.packed(), destination.packed(), 6, len(segment))
        checksum = internet_checksum(pseudo + segment)
        header = header[:16] + checksum.to_bytes(2, "big") + header[18:]
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes, source: IPv4Address, destination: IPv4Address,
               verify: bool = True) -> "TcpSegment":
        """Parse the wire byte string; raises on malformed input."""
        if len(data) < _HEADER_MIN:
            raise TcpError("segment shorter than TCP header")
        (source_port, destination_port, seq, ack, offset_byte, flags,
         window, checksum, _urgent) = struct.unpack("!HHIIBBHHH", data[:_HEADER_MIN])
        data_offset = (offset_byte >> 4) * 4
        if data_offset < _HEADER_MIN or data_offset > len(data):
            raise TcpError(f"bad data offset {data_offset}")
        if verify:
            pseudo = pseudo_header(source.packed(), destination.packed(), 6, len(data))
            total = internet_checksum(pseudo + data)
            if total != 0:
                raise TcpError("TCP checksum mismatch")
        mss_option = None
        options = data[_HEADER_MIN:data_offset]
        index = 0
        while index < len(options):
            kind = options[index]
            if kind == 0:
                break
            if kind == 1:
                index += 1
                continue
            if index + 1 >= len(options):
                break
            length = options[index + 1]
            if length < 2 or index + length > len(options):
                break
            if kind == 2 and length == 4:
                mss_option = int.from_bytes(options[index + 2 : index + 4], "big")
            index += length
        return cls(source_port, destination_port, seq, ack, flags, window,
                   bytes(data[data_offset:]), mss_option)

    def describe(self) -> str:
        """One-line human-readable description."""
        names = []
        for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"),
                          (FLAG_RST, "RST"), (FLAG_PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return (
            f"{self.source_port}>{self.destination_port} {'|'.join(names) or 'none'} "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )


# ----------------------------------------------------------------------
# RTO policies
# ----------------------------------------------------------------------

class RtoPolicy:
    """Strategy interface for retransmission timeout computation."""

    def current(self) -> int:
        """The RTO to arm now, in microseconds."""
        raise NotImplementedError

    def sample(self, rtt: int) -> None:
        """Feed one round-trip measurement (never from a retransmission)."""

    def backoff(self) -> None:
        """A retransmission timer fired."""

    def acked(self) -> None:
        """Fresh data was acknowledged; clear any backoff."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return type(self).__name__


class FixedRto(RtoPolicy):
    """A constant timeout that never learns.

    This models the "expect fast response" Ethernet-side behaviour of
    §4.1: against a multi-second radio RTT a small fixed RTO
    retransmits every segment several times before the first ACK lands.
    """

    def __init__(self, rto: int = 1500 * MS) -> None:
        self.rto = rto

    def current(self) -> int:
        """The timeout value to arm now, in microseconds."""
        return self.rto

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"FixedRto({self.rto / SECOND:.2f}s)"


class AdaptiveRto(RtoPolicy):
    """Jacobson/Karn adaptive RTO with exponential backoff.

    srtt/rttvar per Jacobson (1988), RTO = srtt + 4*rttvar, clamped to
    [min_rto, max_rto]; doubling backoff while retransmitting.  The
    *caller* enforces Karn's rule by not feeding samples for segments
    that were retransmitted.
    """

    def __init__(self, initial_rto: int = 3 * SECOND, min_rto: int = 500 * MS,
                 max_rto: int = 64 * SECOND) -> None:
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.shift = 0  # backoff exponent

    def current(self) -> int:
        """The timeout value to arm now, in microseconds."""
        if self.srtt is None:
            base = self.initial_rto
        else:
            base = self.srtt + 4 * self.rttvar
        rto = max(self.min_rto, min(base, self.max_rto))
        return min(rto << self.shift, self.max_rto)

    def sample(self, rtt: int) -> None:
        """Feed one round-trip measurement."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt // 2
        else:
            delta = rtt - self.srtt
            self.srtt += delta // 8
            self.rttvar += (abs(delta) - self.rttvar) // 4

    def backoff(self) -> None:
        """React to a retransmission timeout."""
        self.shift = min(self.shift + 1, 6)

    def acked(self) -> None:
        """Fresh data was acknowledged; clear backoff state."""
        self.shift = 0

    def describe(self) -> str:
        """One-line human-readable description."""
        srtt = "?" if self.srtt is None else f"{self.srtt / SECOND:.2f}s"
        return f"AdaptiveRto(srtt={srtt})"


# ----------------------------------------------------------------------
# congestion-control policies
# ----------------------------------------------------------------------

#: Effectively-unbounded congestion window for :class:`NoCongestion`.
UNBOUNDED_WINDOW = 1 << 30


class CongestionPolicy:
    """Strategy interface for congestion window and pacing decisions.

    The connection keeps the mechanics (tracking ``_unacked``, arming
    the RTO, go-back-one retransmission); the policy owns the *amount*
    allowed in flight and *when* the next segment may be released.  All
    arithmetic is integer microseconds / bytes so runs stay
    deterministic and pass the units checker.
    """

    #: congestion window in bytes; exposed as ``TcpConnection.cwnd``.
    cwnd: int = UNBOUNDED_WINDOW
    #: slow-start threshold in bytes; ``TcpConnection.ssthresh``.
    ssthresh: int = UNBOUNDED_WINDOW

    def window(self) -> int:
        """Bytes the policy currently allows in flight."""
        return self.cwnd

    def on_ack(self, acked_bytes: int, mss: int, now: int) -> None:
        """New data was cumulatively acknowledged."""

    def on_dup_ack(self, mss: int) -> bool:
        """A duplicate ACK arrived; return True to fast-retransmit now."""
        return False

    def on_timeout(self, flight_bytes: int, mss: int) -> None:
        """The retransmission timer fired."""

    def on_quench(self, mss: int) -> None:
        """An ICMP source quench arrived."""

    def send_delay(self, now: int, size_bytes: int) -> int:
        """Microseconds to wait before releasing the next segment (0 = now)."""
        return 0

    def on_send(self, now: int, size_bytes: int) -> None:
        """A segment of ``size_bytes`` was released to the network."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return type(self).__name__


class NoCongestion(CongestionPolicy):
    """No congestion control at all: the §4.1 storm baseline.

    The window is bounded only by the peer's advertised window, timeouts
    provoke no back-off of the send rate, and duplicate ACKs are
    ignored.  Against a 1200 bps radio path this floods the gateway
    queue exactly the way the paper describes.
    """

    def __init__(self) -> None:
        self.cwnd = UNBOUNDED_WINDOW
        self.ssthresh = UNBOUNDED_WINDOW

    def describe(self) -> str:
        """One-line human-readable description."""
        return "NoCongestion"


class Reno(CongestionPolicy):
    """4.3BSD-Tahoe/Reno congestion control.

    Slow start, congestion avoidance, 3-dup-ACK fast retransmit with
    fast recovery (window inflation while duplicates arrive, deflation
    to ssthresh on the recovering ACK), and ssthresh halving on loss.
    """

    DUP_ACK_THRESHOLD = 3

    def __init__(self, mss: int = DEFAULT_MSS,
                 initial_ssthresh: int = 65535) -> None:
        self.cwnd = mss
        self.ssthresh = initial_ssthresh
        self.dup_acks = 0
        self.in_recovery = False

    def on_ack(self, acked_bytes: int, mss: int, now: int) -> None:
        """Grow the window: slow start below ssthresh, else linearly."""
        self.dup_acks = 0
        if self.in_recovery:
            # New data acked: fast recovery ends, deflate the window.
            self.in_recovery = False
            self.cwnd = self.ssthresh
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += mss
        else:
            self.cwnd += max(1, mss * mss // self.cwnd)

    def on_dup_ack(self, mss: int) -> bool:
        """Count duplicates; trigger fast retransmit on the third."""
        if self.in_recovery:
            # Window inflation: each further dup ACK means one more
            # segment left the network.
            self.cwnd += mss
            return False
        self.dup_acks += 1
        if self.dup_acks == self.DUP_ACK_THRESHOLD:
            self.ssthresh = max(2 * mss, self.cwnd // 2)
            self.cwnd = self.ssthresh + self.DUP_ACK_THRESHOLD * mss
            self.in_recovery = True
            return True
        return False

    def on_timeout(self, flight_bytes: int, mss: int) -> None:
        """Multiplicative decrease and restart slow start."""
        self.ssthresh = max(2 * mss, flight_bytes // 2)
        self.cwnd = mss
        self.dup_acks = 0
        self.in_recovery = False

    def on_quench(self, mss: int) -> None:
        """4.3BSD's source-quench reaction: shrink to one segment."""
        self.cwnd = mss

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"Reno(cwnd={self.cwnd}, ssthresh={self.ssthresh})"


class PacedRate(CongestionPolicy):
    """Delivery-rate-paced sending (a BBR-style model).

    Estimates the path's delivery rate from cumulative-ACK arrivals
    (bytes acked / elapsed microseconds), then paces segment release so
    the send rate tracks ``pacing_gain/8`` times the estimate and caps
    the window at twice the estimated bandwidth-delay product.  Timeouts
    halve the rate estimate instead of collapsing the window, which is
    what keeps a paced sender from storming a 1200 bps radio hop.
    """

    def __init__(self, mss: int = DEFAULT_MSS,
                 initial_rate: int = 8192,
                 min_rate: int = 64,
                 pacing_gain: int = 10) -> None:
        #: current pacing rate estimate, bytes per second
        self.pacing_rate = initial_rate
        self.min_rate = min_rate
        #: numerator over 8: 10/8 = probe slightly above the estimate
        self.pacing_gain = pacing_gain
        self.min_rtt: Optional[int] = None
        self.cwnd = 4 * mss
        self.ssthresh = UNBOUNDED_WINDOW
        self._next_send_at = 0
        self._epoch_start: Optional[int] = None
        self._epoch_delivered = 0

    def on_rtt_sample(self, rtt: int) -> None:
        """Track the minimum observed round-trip time."""
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt

    def on_ack(self, acked_bytes: int, mss: int, now: int) -> None:
        """Fold one delivery observation into the rate estimate."""
        if self._epoch_start is None:
            self._epoch_start = now
            self._epoch_delivered = 0
            return
        self._epoch_delivered += acked_bytes
        elapsed = now - self._epoch_start
        if elapsed <= 0:
            return
        measured = bytes_per_second(self._epoch_delivered, elapsed)
        if measured >= self.pacing_rate:
            self.pacing_rate = measured
        else:
            # Smooth downwards so one delayed ACK does not stall pacing.
            self.pacing_rate += (measured - self.pacing_rate) // 4
        self.pacing_rate = max(self.min_rate, self.pacing_rate)
        if elapsed >= (self.min_rtt or 0):
            self._epoch_start = now
            self._epoch_delivered = 0
        # Window: twice the estimated bandwidth-delay product.
        if self.min_rtt is not None:
            bdp = self.pacing_rate * self.min_rtt // SECOND
            self.cwnd = max(4 * mss, 2 * bdp)

    def on_timeout(self, flight_bytes: int, mss: int) -> None:
        """Halve the rate estimate; keep a floor of four segments."""
        self.pacing_rate = max(self.min_rate, self.pacing_rate // 2)
        self.cwnd = max(4 * mss, self.cwnd // 2)
        self._epoch_start = None
        self._epoch_delivered = 0

    def on_quench(self, mss: int) -> None:
        """Source quench: halve the rate estimate."""
        self.pacing_rate = max(self.min_rate, self.pacing_rate // 2)

    def send_delay(self, now: int, size_bytes: int) -> int:
        """Microseconds until the pacing gate opens."""
        if now >= self._next_send_at:
            return 0
        return self._next_send_at - now

    def on_send(self, now: int, size_bytes: int) -> None:
        """Advance the pacing gate by the segment's serialisation time."""
        paced = max(self.min_rate, self.pacing_rate * self.pacing_gain // 8)
        self._next_send_at = max(now, self._next_send_at) \
            + byte_airtime(size_bytes, paced)

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"PacedRate({self.pacing_rate} B/s)"


# ----------------------------------------------------------------------
# connection
# ----------------------------------------------------------------------

class TcpState(enum.Enum):
    """RFC 793 connection states."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


def _seq_lt(a: int, b: int) -> bool:
    return ((a - b) & 0xFFFFFFFF) > 0x7FFFFFFF


def _seq_le(a: int, b: int) -> bool:
    return a == b or _seq_lt(a, b)


@dataclass
class _Unacked:
    seq: int
    payload: bytes
    flags: int
    sent_at: int
    retransmitted: bool = False


class TcpConnection:
    """One TCP connection endpoint.

    Applications use the callback triple ``on_connect`` / ``on_data`` /
    ``on_close`` (usually via :class:`repro.inet.sockets.TcpSocket`).
    """

    def __init__(
        self,
        protocol: "TcpProtocol",
        local_port: int,
        remote_ip: Optional[IPv4Address],
        remote_port: Optional[int],
        rto_policy: Optional[RtoPolicy] = None,
        mss: int = DEFAULT_MSS,
        cc_policy: Optional[CongestionPolicy] = None,
    ) -> None:
        self.protocol = protocol
        self.sim = protocol.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.rto_policy = rto_policy or AdaptiveRto()
        self.cc_policy = cc_policy or Reno(mss)
        self.mss = mss
        self.peer_mss: Optional[int] = None

        self.state = TcpState.CLOSED
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_wnd = DEFAULT_WINDOW
        self.rcv_nxt = 0
        self.rcv_wnd = DEFAULT_WINDOW
        self.iss = 0
        self.irs = 0

        self._send_buffer = bytearray()
        self._fin_queued = False
        self._fin_sent = False
        self._unacked: List[_Unacked] = []
        self._out_of_order: Dict[int, bytes] = {}
        self._rto_event: Optional[Event] = None
        self._time_wait_event: Optional[Event] = None
        self._persist_event: Optional[Event] = None
        self._pacing_event: Optional[Event] = None
        self._persist_shift = 0
        self.max_retries = 12
        self._retry_count = 0
        self._close_notified = False
        self._dup_ack_count = 0

        # application callbacks
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None

        self.stats = {
            "segments_sent": 0,
            "segments_received": 0,
            "retransmissions": 0,
            "timeouts": 0,
            "duplicate_segments": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "bytes_retransmitted": 0,
            "rtt_samples": 0,
            "window_probes": 0,
            "quench_received": 0,
            "dup_acks_received": 0,
            "fast_retransmits": 0,
            "pacing_deferrals": 0,
        }

    @property
    def cwnd(self) -> int:
        """Congestion window in bytes (owned by the policy)."""
        return self.cc_policy.cwnd

    @property
    def ssthresh(self) -> int:
        """Slow-start threshold in bytes (owned by the policy)."""
        return self.cc_policy.ssthresh

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Active open: send SYN."""
        if self.remote_ip is None or self.remote_port is None:
            raise TcpError("active open needs a remote address")
        self.iss = self.protocol.next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.state = TcpState.SYN_SENT
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, self.iss, 0, FLAG_SYN,
            self.rcv_wnd, mss_option=self.mss,
        ), track=True, occupies=1)

    def send(self, data: bytes) -> None:
        """Queue application data for transmission.

        Sending is also legal while the handshake is still in flight
        (LISTEN after a SYN arrived, SYN_RCVD, SYN_SENT): the bytes are
        buffered and pushed once the connection establishes, which is
        what an application that writes right after ``accept`` expects.
        """
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.SYN_RCVD, TcpState.SYN_SENT,
                              TcpState.LISTEN):
            raise TcpError(f"cannot send in state {self.state.value}")
        if self._fin_queued:
            raise TcpError("cannot send after close")
        self._send_buffer += data
        self._push()

    def close(self) -> None:
        """Graceful close: FIN after queued data (and handshake) drain.

        Closing while the handshake is still in flight marks the FIN
        pending; it goes out once the connection establishes and any
        buffered data has been pushed -- matching an application that
        writes and closes immediately after connect/accept.
        """
        if self.state is TcpState.CLOSED:
            self._enter_closed("closed")
            return
        if self.state is TcpState.LISTEN and not self._send_buffer:
            self._enter_closed("closed")
            return
        if self._fin_queued:
            return
        self._fin_queued = True
        self._push()

    def abort(self) -> None:
        """Send RST and drop the connection."""
        if self.remote_ip is not None and self.state not in (TcpState.CLOSED, TcpState.LISTEN):
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
                FLAG_RST | FLAG_ACK, 0,
            ))
        self._enter_closed("aborted")

    @property
    def established(self) -> bool:
        """True once the connection/circuit is established."""
        return self.state is TcpState.ESTABLISHED

    @property
    def bytes_unsent(self) -> int:
        """Application bytes not yet handed to the window."""
        return len(self._send_buffer)

    @property
    def bytes_in_flight(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return (self.snd_nxt - self.snd_una) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # output engine
    # ------------------------------------------------------------------

    def _effective_mss(self) -> int:
        if self.peer_mss is None:
            return self.mss
        return min(self.mss, self.peer_mss)

    def _push(self) -> None:
        """Send as much buffered data as windows allow, then maybe FIN."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            return
        mss = self._effective_mss()
        window = min(self.snd_wnd, self.cc_policy.window())
        while self._send_buffer and self.bytes_in_flight < window:
            room = window - self.bytes_in_flight
            size = min(mss, room, len(self._send_buffer))
            if size <= 0:
                break
            delay = self.cc_policy.send_delay(self.sim.now, size)
            if delay > 0:
                self._arm_pacing(delay)
                break
            chunk = bytes(self._send_buffer[:size])
            del self._send_buffer[:size]
            flags = FLAG_ACK | (FLAG_PSH if not self._send_buffer else 0)
            segment = TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
                flags, self.rcv_wnd, chunk,
            )
            self._transmit(segment, track=True, occupies=len(chunk))
            self.cc_policy.on_send(self.sim.now, len(chunk))
            self.stats["bytes_sent"] += len(chunk)
        if self.snd_wnd == 0 and self._send_buffer and not self._unacked:
            self._maybe_arm_persist()
        if self._fin_queued and not self._fin_sent and not self._send_buffer:
            self._fin_sent = True
            segment = TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
                FLAG_FIN | FLAG_ACK, self.rcv_wnd,
            )
            self._transmit(segment, track=True, occupies=1)
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT_1
            elif self.state is TcpState.CLOSE_WAIT:
                self.state = TcpState.LAST_ACK

    def _transmit(self, segment: TcpSegment, track: bool = False,
                  occupies: int = 0) -> None:
        self.stats["segments_sent"] += 1
        if track:
            self._unacked.append(_Unacked(
                seq=self.snd_nxt if occupies and segment.seq == self.snd_nxt else segment.seq,
                payload=segment.payload,
                flags=segment.flags,
                sent_at=self.sim.now,
            ))
            self.snd_nxt = (segment.seq + occupies) & 0xFFFFFFFF
            self._arm_rto()
        self.protocol.output(self, segment)

    # ------------------------------------------------------------------
    # pacing (segment-release gate, driven by the congestion policy)
    # ------------------------------------------------------------------

    def _arm_pacing(self, delay: int) -> None:
        if self._pacing_event is not None:
            return
        self.stats["pacing_deferrals"] += 1
        self._pacing_event = self.sim.schedule(
            delay, self._pacing_fired,
            label=f"tcp-pacing {self.local_port}",
        )

    def _cancel_pacing(self) -> None:
        if self._pacing_event is not None:
            self._pacing_event.cancel()
            self._pacing_event = None

    def _pacing_fired(self) -> None:
        self._pacing_event = None
        self._push()

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------

    def _arm_rto(self, force: bool = False) -> None:
        if self._rto_event is not None:
            if not force:
                return
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule(
            self.rto_policy.current(), self._rto_fired,
            label=f"tcp-rto {self.local_port}",
        )

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fired(self) -> None:
        self._rto_event = None
        if not self._unacked:
            return
        self._retry_count += 1
        if self._retry_count > self.max_retries:
            self.abort()
            return
        self.stats["timeouts"] += 1
        self.rto_policy.backoff()
        # Congestion response is the policy's call (Reno: multiplicative
        # decrease + slow-start restart; NoCongestion: nothing).
        flight = max(self.bytes_in_flight, self._effective_mss())
        self.cc_policy.on_timeout(flight, self._effective_mss())
        self._dup_ack_count = 0
        # Go-back-one: retransmit the earliest unacknowledged segment.
        self._retransmit_oldest()
        self._arm_rto(force=True)

    def _observe_recovery(self, retransmit: bool = False) -> None:
        """Sample recovery state into the flight recorder's instruments.

        Gauges follow the retransmission timer and congestion window as
        they evolve; the rate counts retransmissions per 10-second
        window so a storm is visible as a spike, not just a total.
        """
        recorder = self.protocol.stack.tracer.flight
        if recorder is None:
            return
        recorder.instruments.gauge("tcp_rto_us").sample(
            self.rto_policy.current())
        recorder.instruments.gauge("tcp_cwnd_bytes").sample(
            self.cc_policy.window())
        if retransmit:
            recorder.instruments.rate(
                "tcp_rexmit_per_10s", 10 * SECOND).tick(self.sim.now)

    def _retransmit_oldest(self) -> None:
        """Resend the earliest unacknowledged segment (marking it so
        Karn's rule withholds its RTT sample)."""
        oldest = self._unacked[0]
        oldest.retransmitted = True
        oldest.sent_at = self.sim.now
        self.stats["retransmissions"] += 1
        self.stats["bytes_retransmitted"] += len(oldest.payload)
        self._observe_recovery(retransmit=True)
        segment = TcpSegment(
            self.local_port, self.remote_port, oldest.seq, self.rcv_nxt,
            oldest.flags, self.rcv_wnd, oldest.payload,
            mss_option=self.mss if oldest.flags & FLAG_SYN else None,
        )
        self.stats["segments_sent"] += 1
        self.protocol.output(self, segment)

    # ------------------------------------------------------------------
    # persist timer (zero-window probing)
    # ------------------------------------------------------------------

    PERSIST_BASE = 5 * SECOND
    PERSIST_MAX = 60 * SECOND

    def _maybe_arm_persist(self) -> None:
        """Arm the persist timer when the peer's window is closed.

        Without this a sender with queued data and a zero advertised
        window deadlocks if the reopening window update is lost -- the
        classic reason TCP probes a closed window.
        """
        if (self.snd_wnd == 0 and self._send_buffer
                and not self._unacked
                and self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
                and self._persist_event is None):
            delay = min(self.PERSIST_BASE << self._persist_shift,
                        self.PERSIST_MAX)
            self._persist_event = self.sim.schedule(
                delay, self._persist_fired,
                label=f"tcp-persist {self.local_port}",
            )

    def _cancel_persist(self) -> None:
        if self._persist_event is not None:
            self._persist_event.cancel()
            self._persist_event = None
        self._persist_shift = 0

    def _persist_fired(self) -> None:
        self._persist_event = None
        if self.snd_wnd > 0 or not self._send_buffer:
            self._persist_shift = 0
            self._push()
            return
        # Send one byte beyond the window as a probe.
        probe = bytes(self._send_buffer[:1])
        del self._send_buffer[:1]
        self.stats["window_probes"] += 1
        segment = TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
            FLAG_ACK | FLAG_PSH, self.rcv_wnd, probe,
        )
        self._transmit(segment, track=True, occupies=1)
        self._persist_shift = min(self._persist_shift + 1, 4)
        # the RTO timer now guards the probe; persist re-arms if the
        # window is still closed when the probe is acked

    # ------------------------------------------------------------------
    # receive-window control (application flow control)
    # ------------------------------------------------------------------

    def set_receive_window(self, window: int) -> None:
        """Change the advertised receive window.

        Shrinking to zero makes this end advertise a closed window on
        subsequent ACKs; reopening sends an immediate window update so
        the peer can resume without waiting for a probe.
        """
        previous = self.rcv_wnd
        self.rcv_wnd = window
        if previous != window and self.state is TcpState.ESTABLISHED:
            # Advertise the change right away (reopening especially, so
            # the peer need not wait for a persist probe).
            self._send_ack()

    # ------------------------------------------------------------------
    # input engine
    # ------------------------------------------------------------------

    def segment_arrives(self, segment: TcpSegment, source: IPv4Address) -> None:
        """RFC 793 SEGMENT ARRIVES processing."""
        self.stats["segments_received"] += 1

        if self.state is TcpState.LISTEN:
            self._arrives_in_listen(segment, source)
            return
        if self.state is TcpState.SYN_SENT:
            self._arrives_in_syn_sent(segment)
            return

        if segment.flags & FLAG_RST:
            self._enter_closed("reset by peer")
            return

        if segment.flags & FLAG_SYN and self.state is TcpState.SYN_RCVD:
            # Duplicate SYN from the peer: re-acknowledge.
            self._send_syn_ack(rexmit=True)
            return

        if segment.flags & FLAG_ACK:
            self._process_ack(segment)

        if segment.payload or segment.flags & FLAG_FIN:
            self._process_data(segment)

    def _arrives_in_listen(self, segment: TcpSegment, source: IPv4Address) -> None:
        if not segment.flags & FLAG_SYN:
            if not segment.flags & FLAG_RST:
                self._send_rst_for(segment, source)
            return
        # Passive open.
        self.remote_ip = source
        self.remote_port = segment.source_port
        self.irs = segment.seq
        self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        if segment.mss_option is not None:
            self.peer_mss = segment.mss_option
        self.snd_wnd = segment.window
        self.iss = self.protocol.next_iss()
        self.snd_una = self.iss
        self.snd_nxt = (self.iss + 1) & 0xFFFFFFFF
        self.state = TcpState.SYN_RCVD
        self.protocol.register_connection(self)
        self._send_syn_ack()

    def _send_syn_ack(self, rexmit: bool = False) -> None:
        segment = TcpSegment(
            self.local_port, self.remote_port, self.iss, self.rcv_nxt,
            FLAG_SYN | FLAG_ACK, self.rcv_wnd, mss_option=self.mss,
        )
        if rexmit:
            self.stats["retransmissions"] += 1
            self.stats["segments_sent"] += 1
            self.protocol.output(self, segment)
            return
        self._unacked.append(_Unacked(
            seq=self.iss, payload=b"", flags=FLAG_SYN | FLAG_ACK,
            sent_at=self.sim.now,
        ))
        self.stats["segments_sent"] += 1
        self.protocol.output(self, segment)
        self._arm_rto()

    def _arrives_in_syn_sent(self, segment: TcpSegment) -> None:
        if segment.flags & FLAG_RST:
            self._enter_closed("connection refused")
            return
        if not segment.flags & FLAG_SYN:
            return
        self.irs = segment.seq
        self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        if segment.mss_option is not None:
            self.peer_mss = segment.mss_option
        self.snd_wnd = segment.window
        if segment.flags & FLAG_ACK and segment.ack == self.snd_nxt:
            self._ack_unacked(segment.ack)
            self.state = TcpState.ESTABLISHED
            self._send_ack()
            if self.on_connect is not None:
                self.on_connect()
            self._push()
        else:
            # Simultaneous open: acknowledge their SYN, await our ACK.
            self.state = TcpState.SYN_RCVD
            self._send_ack()

    def _process_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        if _seq_lt(self.snd_una, ack) and _seq_le(ack, self.snd_nxt):
            self._dup_ack_count = 0
            self._ack_unacked(ack)
            self.snd_wnd = segment.window
            if segment.window > 0:
                self._cancel_persist()
            if self.state is TcpState.SYN_RCVD:
                self.state = TcpState.ESTABLISHED
                if self.on_connect is not None:
                    self.on_connect()
            elif self.state is TcpState.FIN_WAIT_1 and ack == self.snd_nxt:
                self.state = TcpState.FIN_WAIT_2
            elif self.state is TcpState.CLOSING and ack == self.snd_nxt:
                self._enter_time_wait()
            elif self.state is TcpState.LAST_ACK and ack == self.snd_nxt:
                self._enter_closed("closed")
                return
            self._push()
        else:
            if (ack == self.snd_una and self._unacked
                    and not segment.payload
                    and not segment.flags & (FLAG_SYN | FLAG_FIN)
                    and segment.window == self.snd_wnd):
                # RFC-style duplicate ACK: same ack, no data, no window
                # change, while data is outstanding.
                self._dup_ack_count += 1
                self.stats["dup_acks_received"] += 1
                if self.cc_policy.on_dup_ack(self._effective_mss()):
                    self._fast_retransmit()
            self.snd_wnd = segment.window
            if segment.window > 0:
                self._cancel_persist()
            self._push()

    def _fast_retransmit(self) -> None:
        """3-dup-ACK loss inference: resend the oldest segment without
        waiting for (or backing off) the retransmission timer."""
        if not self._unacked:
            return
        self.stats["fast_retransmits"] += 1
        self._retransmit_oldest()
        self._arm_rto(force=True)

    def _ack_unacked(self, ack: int) -> None:
        """Release acknowledged segments; sample RTT per Karn's rule."""
        new_data_acked = False
        sampled = False
        while self._unacked:
            entry = self._unacked[0]
            occupied = len(entry.payload) or 1  # SYN/FIN occupy one
            end = (entry.seq + occupied) & 0xFFFFFFFF
            if _seq_le(end, ack):
                self._unacked.pop(0)
                new_data_acked = True
                if not entry.retransmitted:
                    rtt = self.sim.now - entry.sent_at
                    self.rto_policy.sample(rtt)
                    if isinstance(self.cc_policy, PacedRate):
                        self.cc_policy.on_rtt_sample(rtt)
                    self.stats["rtt_samples"] += 1
                    sampled = True
            else:
                break
        if new_data_acked:
            acked_bytes = (ack - self.snd_una) & 0xFFFFFFFF
            self.snd_una = ack
            self._retry_count = 0
            if sampled:
                # Karn's rule, second half: keep the backed-off RTO until
                # an un-retransmitted segment yields a fresh sample.
                self.rto_policy.acked()
            self.cc_policy.on_ack(acked_bytes, self._effective_mss(),
                                  self.sim.now)
            self._observe_recovery()
            self._cancel_rto()
            if self._unacked:
                self._arm_rto()

    def _process_data(self, segment: TcpSegment) -> None:
        seq = segment.seq
        payload = segment.payload
        fin = bool(segment.flags & FLAG_FIN)

        if _seq_lt(seq, self.rcv_nxt):
            # Old data (complete duplicate or overlap): trim or count dup.
            overlap = (self.rcv_nxt - seq) & 0xFFFFFFFF
            if overlap >= len(payload) + (1 if fin else 0):
                self.stats["duplicate_segments"] += 1
                self._send_ack()
                return
            payload = payload[overlap:]
            seq = self.rcv_nxt

        if seq == self.rcv_nxt:
            # Enforce the advertised receive window: accept at most
            # rcv_wnd bytes; the remainder is dropped unacknowledged and
            # the sender will retransmit once the window reopens.
            if len(payload) > self.rcv_wnd:
                payload = payload[: self.rcv_wnd]
                fin = False
                self._deliver(payload)
                self._send_ack()
                return
            self._deliver(payload)
            if fin:
                self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
                self._peer_fin()
                return
            self._drain_out_of_order()
            self._send_ack()
        else:
            # Future data: buffer, send a duplicate ACK for what we want.
            if payload:
                self._out_of_order[seq] = payload
            if fin:
                self._out_of_order[(seq + len(payload)) & 0xFFFFFFFF] = b"\x00FIN"
            self._send_ack()

    def _drain_out_of_order(self) -> None:
        while self.rcv_nxt in self._out_of_order:
            payload = self._out_of_order.pop(self.rcv_nxt)
            if payload == b"\x00FIN":
                self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
                self._peer_fin()
                return
            self._deliver(payload)

    def _deliver(self, payload: bytes) -> None:
        if not payload:
            return
        self.rcv_nxt = (self.rcv_nxt + len(payload)) & 0xFFFFFFFF
        self.stats["bytes_received"] += len(payload)
        if self.on_data is not None:
            self.on_data(payload)

    def _peer_fin(self) -> None:
        self._send_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            self._notify_close("peer closed")
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
            self._notify_close("closed")

    def _send_ack(self) -> None:
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
            FLAG_ACK, self.rcv_wnd,
        ))

    def _send_rst_for(self, segment: TcpSegment, source: IPv4Address) -> None:
        rst = TcpSegment(
            self.local_port, segment.source_port,
            segment.ack if segment.flags & FLAG_ACK else 0,
            (segment.seq + len(segment.payload)) & 0xFFFFFFFF,
            FLAG_RST | FLAG_ACK, 0,
        )
        self.protocol.output_raw(rst, source)

    def source_quench(self) -> None:
        """4.3BSD's reaction to ICMP source quench: let the congestion
        policy back the send rate off."""
        self.stats["quench_received"] += 1
        self.cc_policy.on_quench(self._effective_mss())

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._cancel_rto()
        if self._time_wait_event is None:
            self._time_wait_event = self.sim.schedule(
                TIME_WAIT_PERIOD, self._enter_closed, "closed",
                label=f"tcp-timewait {self.local_port}",
            )

    def _enter_closed(self, reason: str) -> None:
        previous = self.state
        self.state = TcpState.CLOSED
        self._cancel_rto()
        self._cancel_persist()
        self._cancel_pacing()
        if self._time_wait_event is not None:
            self._time_wait_event.cancel()
            self._time_wait_event = None
        self._unacked.clear()
        self._send_buffer.clear()
        self.protocol.forget_connection(self)
        if previous not in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LISTEN):
            self._notify_close(reason)

    def _notify_close(self, reason: str) -> None:
        if self._close_notified:
            return
        self._close_notified = True
        if self.on_close is not None:
            self.on_close(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.local_port}<->{self.remote_ip}:{self.remote_port} "
            f"{self.state.value}>"
        )


class TcpProtocol:
    """Per-host TCP: demultiplexing, ISS generation, segment I/O."""

    def __init__(self, stack: "NetStack") -> None:
        self.stack = stack
        self.sim = stack.sim
        self._iss = 1
        #: fully-specified connections: (local_port, remote_ip, remote_port)
        self._connections: Dict[Tuple[int, int, int], TcpConnection] = {}
        #: listening connections by local port
        self._listeners: Dict[int, TcpConnection] = {}
        self._ephemeral = 1024
        self.default_rto_factory: Callable[[], RtoPolicy] = AdaptiveRto
        self.default_cc_factory: Callable[[], CongestionPolicy] = Reno
        self.segments_demuxed = 0
        self.segments_refused = 0

    def next_iss(self) -> int:
        """Next initial send sequence number."""
        self._iss += 64_000
        return self._iss & 0xFFFFFFFF

    def allocate_port(self) -> int:
        """Next ephemeral TCP port."""
        self._ephemeral += 1
        return self._ephemeral

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def listen(self, port: int, rto_policy: Optional[RtoPolicy] = None,
               on_accept: Optional[Callable[[TcpConnection], None]] = None,
               cc_policy: Optional[Callable[[], CongestionPolicy]] = None) -> "TcpListener":
        """Open a passive socket; each SYN spawns a fresh connection."""
        listener = TcpListener(self, port, rto_policy, on_accept, cc_policy)
        self._listeners[port] = listener.template
        return listener

    def connect(self, remote_ip: "IPv4Address | str", remote_port: int,
                local_port: Optional[int] = None,
                rto_policy: Optional[RtoPolicy] = None,
                cc_policy: Optional[CongestionPolicy] = None) -> TcpConnection:
        """Initiate a connection."""
        remote_ip = IPv4Address.coerce(remote_ip)
        if local_port is None:
            local_port = self.allocate_port()
        conn = TcpConnection(
            self, local_port, remote_ip, remote_port,
            rto_policy=rto_policy or self.default_rto_factory(),
            cc_policy=cc_policy or self.default_cc_factory(),
        )
        self.register_connection(conn)
        conn.open_active()
        return conn

    def register_connection(self, conn: TcpConnection) -> None:
        """Index a fully-specified connection for demux."""
        key = (conn.local_port, conn.remote_ip.value, conn.remote_port)
        self._connections[key] = conn

    def forget_connection(self, conn: TcpConnection) -> None:
        """Drop a connection from the demux index."""
        if conn.remote_ip is None:
            return
        key = (conn.local_port, conn.remote_ip.value, conn.remote_port)
        if self._connections.get(key) is conn:
            del self._connections[key]

    # ------------------------------------------------------------------
    # segment I/O
    # ------------------------------------------------------------------

    def input(self, payload: bytes, source: IPv4Address,
              destination: IPv4Address) -> None:
        """Demultiplex one received payload."""
        try:
            segment = TcpSegment.decode(payload, source, destination)
        except TcpError:
            return
        self.segments_demuxed += 1
        key = (segment.destination_port, source.value, segment.source_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.segment_arrives(segment, source)
            return
        template = self._listeners.get(segment.destination_port)
        if template is not None and segment.flags & FLAG_SYN and not segment.flags & FLAG_ACK:
            listener: "TcpListener" = template.listener  # type: ignore[attr-defined]
            conn = listener.spawn()
            conn.segment_arrives(segment, source)
            return
        self.segments_refused += 1
        if not segment.flags & FLAG_RST:
            rst = TcpSegment(
                segment.destination_port, segment.source_port,
                segment.ack if segment.flags & FLAG_ACK else 0,
                (segment.seq + len(segment.payload) + 1) & 0xFFFFFFFF,
                FLAG_RST | FLAG_ACK, 0,
            )
            self.output_raw(rst, source)

    def handle_source_quench(self, quoted: bytes,
                             destination: IPv4Address) -> None:
        """Process an ICMP source quench quoting one of our segments.

        ``quoted`` is the offending datagram's IP header + 8 bytes --
        enough to recover the ports; ``destination`` is the quoted
        datagram's destination (the remote end of the connection).
        """
        if len(quoted) < 24:
            return
        ihl = (quoted[0] & 0x0F) * 4
        if len(quoted) < ihl + 4:
            return
        source_port = int.from_bytes(quoted[ihl:ihl + 2], "big")
        destination_port = int.from_bytes(quoted[ihl + 2:ihl + 4], "big")
        key = (source_port, destination.value, destination_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.source_quench()

    def output(self, conn: TcpConnection, segment: TcpSegment) -> None:
        """Hand a frame/packet to the layer below."""
        self.stack.send_tcp_segment(segment, conn.remote_ip)

    def output_raw(self, segment: TcpSegment, destination: IPv4Address) -> None:
        """Emit a segment outside any connection (e.g. RST)."""
        self.stack.send_tcp_segment(segment, destination)


class TcpListener:
    """A passive socket: spawns a connection per incoming SYN."""

    def __init__(self, protocol: TcpProtocol, port: int,
                 rto_policy: Optional[RtoPolicy],
                 on_accept: Optional[Callable[[TcpConnection], None]],
                 cc_policy: Optional[Callable[[], CongestionPolicy]] = None) -> None:
        self.protocol = protocol
        self.port = port
        # Resolve the protocol defaults lazily so listeners opened before
        # a scenario swaps default_*_factory still honour the swap.
        # Stored as None-or-override plus bound-method factories rather
        # than closures: a lambda here would sit in sim state, and a
        # pickled snapshot cannot carry it (SNAP001).
        self._rto_policy_override = rto_policy
        self._cc_policy_override = cc_policy
        self.rto_policy_factory = self._make_rto_policy
        self.cc_policy_factory = self._make_cc_policy
        self.on_accept = on_accept
        self.accepted: List[TcpConnection] = []
        # The template is what sits in the listeners map; it never carries
        # traffic itself.
        self.template = TcpConnection(protocol, port, None, None)
        self.template.state = TcpState.LISTEN
        self.template.listener = self  # type: ignore[attr-defined]

    def _make_rto_policy(self) -> RtoPolicy:
        if self._rto_policy_override is not None:
            return self._rto_policy_override
        return self.protocol.default_rto_factory()

    def _make_cc_policy(self) -> CongestionPolicy:
        if self._cc_policy_override is not None:
            return self._cc_policy_override()
        return self.protocol.default_cc_factory()

    def spawn(self) -> TcpConnection:
        """Create a fresh connection for an incoming SYN."""
        conn = TcpConnection(
            self.protocol, self.port, None, None,
            rto_policy=self.rto_policy_factory(),
            cc_policy=self.cc_policy_factory(),
        )
        conn.state = TcpState.LISTEN
        self.accepted.append(conn)
        if self.on_accept is not None:
            self.on_accept(conn)
        return conn

    def close(self) -> None:
        """Close this end."""
        if self.protocol._listeners.get(self.port) is self.template:
            del self.protocol._listeners[self.port]
