"""A radio station: transceiver + p-persistent CSMA transmit queue.

This is the piece of "TNC firmware" that arbitrates channel access.
Frames handed to :meth:`RadioStation.send_frame` queue FIFO; the
station runs the p-persistence algorithm (sense, roll, key up) and
transmits each frame with the modem's TXDELAY keyup.  Received frames
are delivered to ``on_frame``.

Both the KISS TNC and the standalone digipeater are built on this.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.radio.channel import ChannelPort, RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.sim.engine import Event, Simulator


class RadioStation:
    """One transceiver on a shared channel with CSMA access control."""

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        name: str,
        modem: Optional[ModemProfile] = None,
        csma: Optional[CsmaParameters] = None,
        on_frame: Optional[Callable[[bytes], None]] = None,
        queue_limit: int = 64,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.name = name
        self.modem = modem or ModemProfile()
        self.csma = csma or CsmaParameters()
        self.on_frame = on_frame
        self.queue_limit = queue_limit
        self._queue: Deque[bytes] = deque()
        self._access_event: Optional[Event] = None
        self.port: ChannelPort = channel.attach(name, self._deliver)
        # Expose the modem's BER to the channel's corruption model.
        self.port.bit_error_rate = self.modem.bit_error_rate
        self.queue_drops = 0
        self.frames_queued = 0
        self._rng = channel.streams.stream(f"csma/{name}")
        self._label = f"csma {name}"

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def send_frame_object(self, frame) -> bool:
        """Encode and queue a structured frame (LAPB endpoints use this).

        A bound-method adapter so LAPB/NET-ROM owners can hand the
        endpoint ``station.send_frame_object`` directly instead of an
        encoding lambda (which would break snapshot isolation, SNAP001).
        """
        return self.send_frame(frame.encode())

    def send_frame(self, payload: bytes) -> bool:
        """Queue a frame for transmission; False if the queue is full."""
        if len(self._queue) >= self.queue_limit:
            self.queue_drops += 1
            return False
        self._queue.append(payload)
        self.frames_queued += 1
        self._schedule_access()
        return True

    @property
    def backlog(self) -> int:
        """Frames waiting (not counting one in flight)."""
        return len(self._queue)

    def _schedule_access(self) -> None:
        if self._access_event is not None or not self._queue:
            return
        self._access_event = self.sim.call_soon(
            self._try_channel, label=self._label
        )

    def _try_channel(self) -> None:
        # Every retry requeues this firing access event: the same time,
        # tie-break key and label as a fresh one, without building it.
        event = self._access_event
        self._access_event = None
        if not self._queue:
            return
        port = self.port
        now = self.sim.now
        if port.tx_until > now:
            # Our own transmitter is keyed; try again when it frees.
            when = port.tx_until
        elif (not self.csma.full_duplex
              and self.channel.carrier_sensed_at(port)):
            # Busy: wait one slot and sense again.
            when = now + self.csma.slot_time
        elif self._rng.random() <= self.csma.persistence:
            # Idle: p-persistence roll.
            self._transmit_next()
            if not self._queue:
                return
            # Next access attempt when this transmission completes.
            when = port.tx_until
        else:
            when = now + self.csma.slot_time
        # At least one tick ahead, so a zero slot time cannot spin.
        self._access_event = self.sim.requeue(event, max(when, now + 1))

    def _transmit_next(self) -> None:
        payload = self._queue.popleft()
        airtime = self.modem.frame_airtime(len(payload))
        self.port.transmit(payload, airtime)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _deliver(self, payload: bytes) -> None:
        if self.on_frame is not None:
            self.on_frame(payload)
