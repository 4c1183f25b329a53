"""The packet radio pseudo-device driver.

This is the code the paper is about.  "In adding packet radio support
to the Ultrix kernel, a pseudo-device driver for the packet radio
controller was implemented. ... The most difficult routine to write was
one which handled incoming packets from the TNC.  When a packet is
received by the TNC, the TNC sends the packet as a stream of bytes to
the tty line.  For each character in the packet, the tty driver calls
the packet radio interrupt handler to process the character."

The driver below follows that structure byte for byte:

* it registers its interrupt handler on the DZ tty line itself, a
  :class:`~repro.serialio.line.SerialEndpoint`, and receives **one
  character per interrupt** (at frame fidelity, a whole write per call,
  counted the same);
* escaped KISS frame-end characters are decoded **on the fly**: the
  handler is the KISS deframer's ``push_byte`` itself (or, for ablation
  A1, ``reassembly="buffered"``, a handler that buffers raw bytes and
  post-processes them when the final FEND arrives);
* the interrupt count is the line's own count of received bytes, so the
  driver does no per-character work besides the unescaping;
* when the final frame end is read it checks the AX.25 destination
  callsign ("either its own, or the broadcast address") and the PID;
* IP packets go onto the stack's IP input queue via the soft interrupt;
  ARP packets go to the driver's own AX.25 ARP routines ("a separate
  routine that deals specifically with AX.25 addresses");
* non-IP packets are offered to a pluggable handler so a user program
  can run AX.25 level-2 services on top (§2.4) -- by default they land
  on the bounded :attr:`~PacketRadioInterface.non_ip_queue` a user
  program reads, as the paper proposes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.ax25.address import AddressError, AX25Address, AX25Path, is_broadcast
from repro.ax25.defs import PID_ARPA_ARP, PID_ARPA_IP
from repro.ax25.frames import AX25Frame, FrameError
from repro.inet.arp import ArpEntry, ArpService, HRD_AX25
from repro.inet.ip import IPv4Address, PROTO_ICMP
from repro.kiss import commands
from repro.kiss.framing import FEND, KissDeframer, frame as kiss_frame
from repro.netif.ifnet import InterfaceFlags, NetworkInterface
from repro.serialio.line import SerialEndpoint
from repro.sim.clock import SECOND
from repro.sim.engine import Event, Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import NULL_TRACER, Tracer

#: Default IP MTU over AX.25 (KA9Q convention: 256-byte paclen).
AX25_MTU = 256

#: Output priorities for the graceful-degradation path: control traffic
#: (ARP, ICMP) keeps flowing under queue pressure; bulk IP is shed first.
PRIO_CONTROL = 0
PRIO_BULK = 1


class PacketRadioInterface(NetworkInterface):
    """pr0: the AX.25/KISS pseudo-device driver (struct if_net instance)."""

    def __init__(
        self,
        sim: Simulator,
        serial: SerialEndpoint,
        callsign: "AX25Address | str",
        name: str = "pr0",
        mtu: int = AX25_MTU,
        default_path: AX25Path = AX25Path(),
        reassembly: str = "per_char",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(sim, name, mtu, flags=InterfaceFlags.UP | InterfaceFlags.BROADCAST)
        if reassembly not in ("per_char", "buffered"):
            raise ValueError(f"unknown reassembly mode {reassembly!r}")
        self.serial = serial
        self.callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.default_path = default_path
        self.reassembly = reassembly
        self.tracer = tracer

        #: Handler for non-IP frames (the §2.4 application-gateway hook):
        #: ``f(frame)``.  When unset, the *encoded* frame is appended to
        #: :attr:`non_ip_queue` for a user program to read.
        self.non_ip_handler: Optional[Callable[[AX25Frame], None]] = None
        self.non_ip_queue: List[AX25Frame] = []
        self.non_ip_queue_limit = 32

        self.arp = ArpService(
            sim,
            hardware_type=HRD_AX25,
            my_hw=self.callsign.encode(last=True),
            my_ip_getter=self._my_ip,
            send_arp=self._send_arp,
            send_resolved=self._send_resolved,
            name=f"{name}.arp",
            # Radio pacing: a full request/reply round trip takes seconds
            # at 1200 bps, so retry far more patiently than Ethernet ARP.
            retry_interval=15 * SECOND,
        )

        # ARP queue-overflow and resolution-timeout drops are span
        # terminals: report them to any attached flight recorder.
        self.arp.on_drop = self._arp_obs_drop

        self._deframer = KissDeframer(on_frame=self._kiss_record)
        self._raw_buffer = bytearray()   # used by the "buffered" ablation mode
        #: Cap on the raw reassembly buffer: a fully escaped max-size
        #: frame plus the type byte.  Without this, a lost FEND during
        #: line noise grows the buffer without bound.
        self.raw_buffer_limit = 2 * self._deframer.max_frame + 2
        self._raw_discarding = False
        #: Bytes the buffered mode's second pass has decoded.
        self._second_pass_ops = 0
        # The DZ line's receive interrupt handlers.  On the fly they are
        # the deframer itself, unescaping each character (or each burst,
        # at frame fidelity) as it lands.
        if reassembly == "per_char":
            serial.on_receive(self._deframer.push_byte)
            serial.on_receive_burst(self._deframer.push)
        else:
            serial.on_receive(self._rx_char_interrupt)
            serial.on_receive_burst(self._rx_burst)

        #: When set, bulk (non-ARP/ICMP) output is shed once the serial
        #: backlog toward the TNC exceeds this many bytes.  None = off.
        self.shed_threshold_bytes: Optional[int] = None
        #: Installed by :meth:`start_watchdog`.
        self.watchdog: Optional["TncWatchdog"] = None

        #: Control frames (ARP/ICMP) shed by the backlog guard.  The shed
        #: path is gated on ``priority != PRIO_CONTROL`` so this must stay
        #: zero in every reachable state; reprocheck asserts exactly that.
        self.sheds_control = 0

        # driver statistics (imitating if_data plus driver-specific ones)
        self.frames_from_tnc = 0
        self.frames_not_for_us = 0       # promiscuous TNC overhead (E3 metric)
        self.frames_bad = 0
        self.frames_ip_in = 0
        self.frames_arp_in = 0
        self.frames_non_ip = 0
        self.non_ip_drops = 0
        self.frames_to_tnc = 0
        self.raw_overflow_drops = 0      # buffered-mode reassembly cap hits

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _my_ip(self):
        """ARP's view of our address (re-read on every use: ifconfig moves it)."""
        return self.address

    def _arp_obs_drop(self, packet: bytes, reason: str) -> None:
        recorder = self.tracer.flight
        if recorder is not None:
            recorder.drop(packet, "driver.arp", str(self.callsign), reason)

    # ------------------------------------------------------------------
    # receive path: per-character interrupt handling
    # ------------------------------------------------------------------

    @property
    def rx_char_interrupts(self) -> int:
        """Receive character interrupts: the DZ line's received bytes."""
        return self.serial.bytes_received

    @property
    def processing_ops(self) -> int:
        """Unit work items (the A1 metric).

        One per character interrupt, plus one per byte of the buffered
        mode's second pass.
        """
        return self.serial.bytes_received + self._second_pass_ops

    def _rx_char_interrupt(self, byte: int) -> None:
        """The buffered ablation's (A1) per-character interrupt handler.

        It stashes raw bytes and decodes the whole packet at the final
        frame end, a second pass over every byte.
        """
        if self._raw_discarding:
            if byte == FEND:
                self._raw_discarding = False
            return
        self._raw_buffer.append(byte)
        if byte == FEND and len(self._raw_buffer) > 1:
            buffered = bytes(self._raw_buffer)
            self._raw_buffer.clear()
            self._second_pass_ops += len(buffered)
            self._deframer.push(buffered)
        elif byte == FEND:
            self._raw_buffer.clear()
        elif len(self._raw_buffer) > self.raw_buffer_limit:
            # A lost FEND must not grow the buffer without bound: dump
            # the partial frame and resynchronise at the next FEND.
            self.raw_overflow_drops += 1
            self.tracer.log("driver.drop", str(self.callsign),
                            "raw buffer overflow; resync at next FEND")
            self._raw_buffer.clear()
            self._raw_discarding = True

    def _rx_burst(self, data: bytes) -> None:
        """The buffered ablation's frame-fidelity receive: one event
        delivers a whole write, with the effect of ``len(data)`` calls
        of its per-byte handler.  (On-the-fly reassembly registers the
        deframer's ``push`` as its burst handler instead, which decodes
        a whole record in one step.)
        """
        for byte in data:
            self._rx_char_interrupt(byte)

    def _kiss_record(self, type_byte: int, payload: bytes) -> None:
        command, _port = commands.split_type_byte(type_byte)
        if command != commands.CMD_DATA:
            return  # a KISS TNC never sends command records up
        self.frames_from_tnc += 1
        self._frame_input(payload)

    def _frame_input(self, raw: bytes) -> None:
        """Header checks + protocol dispatch (the paper's §2.2 list)."""
        try:
            frame = AX25Frame.decode(raw)
        except FrameError:
            self.frames_bad += 1
            self.ierrors += 1
            # No recorder terminal: an undecodable frame has no parseable
            # IP payload to correlate a span with.  The tracer is the
            # observability channel for pre-span losses (CONS001).
            self.tracer.log("driver.drop", str(self.callsign),
                            "undecodable AX.25 frame")
            return
        # "It verifies that the recipient's amateur radio callsign (which
        # is used as a link address) is either its own, or the broadcast
        # address."  A frame still being digipeated is not ours either.
        if not frame.path.fully_repeated:
            self.frames_not_for_us += 1
            return
        if not (frame.destination.matches(self.callsign) or is_broadcast(frame.destination)):
            self.frames_not_for_us += 1
            return
        # "It also checks the protocol ID field."
        if frame.pid == PID_ARPA_IP:
            self.frames_ip_in += 1
            self.tracer.log("driver.ip_in", str(self.callsign), str(frame))
            recorder = self.tracer.flight
            if recorder is not None:
                recorder.enter(frame.info, "driver.rx", str(self.callsign))
            self.deliver_input(frame.info, "ip")
        elif frame.pid == PID_ARPA_ARP:
            self.frames_arp_in += 1
            self.ipackets += 1
            # Learn the return digipeater path along with the mapping.
            self.arp.input(frame.info, link_hint=frame.path.reversed())
        else:
            # "Packets that are received from the TNC that are not of type
            # IP can be placed on the input queue for the appropriate tty
            # line." (§2.4)
            self.frames_non_ip += 1
            if self.non_ip_handler is not None:
                self.non_ip_handler(frame)
            elif len(self.non_ip_queue) < self.non_ip_queue_limit:
                self.non_ip_queue.append(frame)
            else:
                self.non_ip_drops += 1
                self.tracer.log("driver.drop", str(self.callsign),
                                "non-IP input queue full")

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def if_output(self, packet: bytes, next_hop: IPv4Address,
                  protocol: str = "ip") -> bool:
        """Transmit one layer-3 packet toward the next hop."""
        if not self.is_up:
            self.oerrors += 1
            recorder = self.tracer.flight
            if recorder is not None:
                recorder.drop(packet, "driver.tx", str(self.callsign),
                              "iface_down")
            return False
        self.count_output(packet)
        if next_hop.is_broadcast:
            self._transmit_ui(
                AX25Address("QST"), PID_ARPA_IP, packet, self.default_path,
                priority=self._ip_priority(packet),
            )
            return True
        self.arp.resolve_and_send(next_hop, packet)
        return True

    def send_ax25_frame(self, frame: AX25Frame) -> None:
        """Send a pre-built AX.25 frame (used by the §2.4 app gateway)."""
        self._write_kiss(frame.encode())

    def _link_target(self, entry: ArpEntry) -> Optional[Tuple[AX25Address, AX25Path]]:
        """The AX.25 destination and digipeater path an ARP entry names.

        Line noise can corrupt an ARP sender_hw before it is learned; a
        garbage cache entry must drop the packet, not panic, so an
        undecodable address logs the drop and gives None.
        """
        try:
            destination, _last, _bit = AX25Address.decode(entry.hw_address)
        except AddressError:
            self.tracer.log("driver.drop", str(self.callsign),
                            "undecodable ARP hardware address")
            return None
        path = entry.link_hint if isinstance(entry.link_hint, AX25Path) else self.default_path
        return destination.base, path

    def _send_resolved(self, packet: bytes, entry: ArpEntry) -> None:
        target = self._link_target(entry)
        if target is None:
            recorder = self.tracer.flight
            if recorder is not None:
                recorder.drop(packet, "driver.tx", str(self.callsign),
                              "bad_header")
            return
        destination, path = target
        self._transmit_ui(destination, PID_ARPA_IP, packet, path,
                          priority=self._ip_priority(packet))

    def _send_arp(self, packet: bytes, broadcast: bool,
                  entry: Optional[ArpEntry]) -> None:
        if broadcast or entry is None:
            destination, path = AX25Address("QST"), self.default_path
        else:
            target = self._link_target(entry)
            if target is None:
                return
            destination, path = target
        self._transmit_ui(destination, PID_ARPA_ARP, packet, path,
                          priority=PRIO_CONTROL)

    @staticmethod
    def _ip_priority(packet: bytes) -> int:
        """ICMP is control traffic; everything else is sheddable bulk."""
        if len(packet) >= 20 and packet[9] == PROTO_ICMP:
            return PRIO_CONTROL
        return PRIO_BULK

    def _transmit_ui(self, destination: AX25Address, pid: int, payload: bytes,
                     path: AX25Path, priority: int = PRIO_BULK) -> None:
        if (self.shed_threshold_bytes is not None
                and priority != PRIO_CONTROL
                and self.serial.tx_backlog_bytes > self.shed_threshold_bytes):
            # Graceful degradation: the serial line is the §4.1 choke
            # point; shed bulk output rather than queueing unboundedly,
            # but keep ARP/ICMP flowing so the link stays diagnosable.
            self.count_shed()
            if priority == PRIO_CONTROL:
                self.sheds_control += 1  # reprolint: disable=CONS001 -- shed site below emits driver.shed + recorder terminal
            self.tracer.log("driver.shed", str(self.callsign),
                            "bulk output shed under backlog",
                            backlog=self.serial.tx_backlog_bytes)
            recorder = self.tracer.flight
            if recorder is not None and pid == PID_ARPA_IP:
                recorder.shed_packet(payload, "driver.tx", str(self.callsign),
                                     "serial_backlog")
            return
        frame = AX25Frame.ui(destination, self.callsign, pid, payload, path)
        self.tracer.log("driver.tx", str(self.callsign), str(frame))
        recorder = self.tracer.flight
        if recorder is not None and pid == PID_ARPA_IP:
            recorder.enter(payload, "driver.tx", str(self.callsign))
        self._write_kiss(frame.encode())

    def _write_kiss(self, frame_bytes: bytes) -> None:
        self.frames_to_tnc += 1
        self.serial.write(kiss_frame(commands.DATA_TYPE_BYTE, frame_bytes))

    # ------------------------------------------------------------------
    # parameter control (if_ioctl extensions)
    # ------------------------------------------------------------------

    def if_ioctl(self, request: str, value: Any = None) -> Any:
        """KISS parameter requests ride the serial line as command records."""
        kiss_commands = {
            "txdelay": commands.CMD_TXDELAY,
            "persist": commands.CMD_PERSIST,
            "slottime": commands.CMD_SLOTTIME,
            "txtail": commands.CMD_TXTAIL,
            "fullduplex": commands.CMD_FULLDUP,
        }
        command = kiss_commands.get(request)
        if command is None:
            return super().if_ioctl(request, value)
        record = kiss_frame(commands.type_byte(command), bytes((int(value) & 0xFF,)))
        self.serial.write(record)
        return None

    @property
    def output_backlog(self) -> int:
        """Bytes still serialising toward the TNC (the §4.1 queue)."""
        return self.serial.tx_backlog_bytes

    def add_arp_entry(self, ip: "IPv4Address | str",
                      callsign: "AX25Address | str",
                      path: AX25Path = AX25Path()) -> None:
        """Static AX.25 ARP entry, optionally with a digipeater path."""
        callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.arp.add_static(ip, callsign.encode(last=True), link_hint=path)

    # ------------------------------------------------------------------
    # TNC recovery
    # ------------------------------------------------------------------

    def reset_tnc(self) -> None:
        """Send a KISS return record: reboot a wedged TNC out of band.

        The record rides the ordinary serial line -- the wedged firmware's
        RX interrupt still runs, so the reset vector is reachable even
        when the main loop is hung (see :meth:`repro.tnc.kiss_tnc.KissTnc.wedge`).
        """
        record = kiss_frame(commands.type_byte(commands.CMD_RETURN), b"")
        self.serial.write(record)
        self.tracer.log("driver.reset_tnc", str(self.callsign),
                        "KISS return sent to TNC")

    def start_watchdog(self, streams: RandomStreams, **kwargs: Any) -> "TncWatchdog":
        """Attach and start a :class:`TncWatchdog` on this interface."""
        self.watchdog = TncWatchdog(self, streams, **kwargs)
        self.watchdog.start()
        return self.watchdog


class TncWatchdog:
    """Detects a silent TNC and kicks it with a KISS reset.

    Detection rule: no receive character interrupt for
    ``silence_timeout``.  A promiscuous KISS TNC on a shared packet
    channel delivers *something* up the serial line every few seconds --
    other people's frames included -- so sustained total silence means
    the firmware main loop is hung.  (A wedged TNC also stops the
    driver's own TX from eliciting traffic, so TX progress cannot be
    required for suspicion; on a genuinely idle channel a spurious reset
    merely costs the TNC a reboot.)

    Recovery is a KISS return record (:meth:`PacketRadioInterface.reset_tnc`)
    followed by capped exponential backoff with seeded jitter before the
    next attempt.  Worst-case recovery time from the moment of the wedge
    is bounded by::

        silence_timeout + 2 * check_interval + reboot_delay + check_interval

    (detection latency + check-cycle quantisation + the TNC firmware
    restart + one check to observe resumed traffic), about 38 s of
    simulated time at the defaults -- and under 60 s even if the first
    reset record is itself corrupted by line noise and a backoff cycle
    is consumed.  The jitter stream is ``watchdog/<ifname>``, so
    enabling the watchdog perturbs no other random stream.
    """

    def __init__(
        self,
        driver: PacketRadioInterface,
        streams: RandomStreams,
        check_interval: int = 5 * SECOND,
        silence_timeout: int = 20 * SECOND,
        backoff_base: int = 2 * SECOND,
        backoff_cap: int = 30 * SECOND,
    ) -> None:
        self.driver = driver
        self.sim = driver.sim
        self.check_interval = check_interval
        self.silence_timeout = silence_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = streams.stream(f"watchdog/{driver.name}")
        self._running = False
        self._event: Optional[Event] = None

        # progress tracking
        self._last_rx = driver.rx_char_interrupts
        self._last_rx_time = self.sim.now
        self._suspected_at: Optional[int] = None
        self._attempt = 0
        self._next_reset_at = 0

        # counters (surfaced in scenario metrics)
        self.resets_issued = 0
        self.recoveries = 0
        self.last_recovery_us = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_check()

    def stop(self) -> None:
        self._running = False

    def _schedule_check(self) -> None:
        self._event = self.sim.schedule(
            self.check_interval, self._check,
            label=f"watchdog {self.driver.name}")

    def _check(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        rx = self.driver.rx_char_interrupts
        if rx != self._last_rx:
            # Receive path made progress: healthy (or just recovered).
            if self._suspected_at is not None:
                self.recoveries += 1
                self.last_recovery_us = now - self._suspected_at
                self._suspected_at = None
                self.driver.tracer.log(
                    "driver.watchdog.recovered", self.driver.name,
                    "TNC responding again",
                    after_us=self.last_recovery_us)
                recorder = self.driver.tracer.flight
                if recorder is not None:
                    recorder.instruments.histogram(
                        "watchdog_recovery_us").record(self.last_recovery_us)
            self._attempt = 0
            self._next_reset_at = 0
            self._last_rx = rx
            self._last_rx_time = now
        else:
            silent_for = now - self._last_rx_time
            if silent_for >= self.silence_timeout:
                if self._suspected_at is None:
                    self._suspected_at = now
                if now >= self._next_reset_at:
                    self.resets_issued += 1
                    self.driver.tracer.log(
                        "driver.watchdog.reset", self.driver.name,
                        "TNC silent, issuing KISS reset",
                        silent_us=silent_for,
                        attempt=self._attempt + 1)
                    self.driver.reset_tnc()
                    backoff = min(self.backoff_cap,
                                  self.backoff_base << self._attempt)
                    jitter = int(self._rng.random() * self.backoff_base)
                    self._attempt += 1
                    self._next_reset_at = now + backoff + jitter
        self._schedule_check()
