"""A digipeater: the relay station of early packet radio.

"Relay stations were set up in strategic locations so that messages
could be received and passed along to their destination.  These relays
are known as digipeaters."

A digipeater listens on the shared channel; whenever it hears a frame
whose *next unrepeated digipeater entry* is its own callsign, it sets
that entry's has-been-repeated bit and retransmits the frame on the
same frequency.  Relaying on the same frequency is why each digipeater
hop halves usable channel capacity (ablation A2).
"""

from __future__ import annotations

from typing import Optional

from repro.ax25.address import AX25Address, decode_address_field
from repro.ax25.frames import AX25Frame, FrameError
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


class Digipeater:
    """A standalone same-frequency frame repeater."""

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        callsign: "AX25Address | str",
        modem: Optional[ModemProfile] = None,
        csma: Optional[CsmaParameters] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.callsign = (
            callsign if isinstance(callsign, AX25Address) else AX25Address.parse(callsign)
        )
        self.tracer = tracer
        self.station = RadioStation(
            sim,
            channel,
            str(self.callsign),
            modem=modem,
            csma=csma,
            on_frame=self._heard,
        )
        self.frames_relayed = 0
        self.frames_ignored = 0
        self.frames_undecodable = 0

    def _heard(self, payload: bytes) -> None:
        # Cheap peek first: is the next hop us?
        try:
            _dest, _src, path, _cmd, _used = decode_address_field(payload)
        except ValueError:
            self.frames_undecodable += 1
            return
        pending = path.next_unrepeated
        if pending is None or not pending.matches(self.callsign):
            self.frames_ignored += 1
            return
        try:
            frame = AX25Frame.decode(payload)
        except FrameError:
            self.frames_undecodable += 1
            return
        relayed = frame.digipeated_by(self.callsign)
        self.frames_relayed += 1
        self.tracer.log("digi.relay", str(self.callsign), str(relayed))
        self.station.send_frame(relayed.encode())
