"""The §4.3 access-control table.

"One way to solve this problem is to maintain a table of authorized
addresses on the non-amateur side of the gateway.  Associated with each
of these addresses is a list of hosts on the amateur side of the
gateway with which that host can communicate.  Initially the table
starts off empty.  Whenever a packet is received on the amateur side
destined for a non-amateur host, an entry is made in the table,
enabling the non-amateur host to send packets in the other direction.
After a certain period of time, these entries are removed if packets
have not been received from the amateur side of the gateway."

Plus the ICMP augmentation: a revoke message (the control operator's
kill switch) and an authorise message with a chosen time-to-live, which
must carry a valid control-operator callsign and password when it
arrives from the non-amateur side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.inet import icmp as icmp_mod
from repro.inet.ip import IPv4Address, IPv4Datagram
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netif.ifnet import NetworkInterface


@dataclass
class AccessEntry:
    """Permission for one (outside host, amateur host) pair."""

    outside: IPv4Address
    amateur: IPv4Address
    expires_at: int
    created_at: int
    refreshes: int = 0


class AccessControlTable:
    """Auto-populated authorisation table for a gateway.

    Install on a gateway stack via :meth:`filter` (assigned to
    ``stack.forward_filter``) and :meth:`handle_icmp` (appended to
    ``stack.icmp_listeners``).  The table needs to know which interface
    faces the amateur subnet; everything else is "outside".
    """

    DEFAULT_TTL = 300 * SECOND

    def __init__(self, sim: Simulator, amateur_iface: "NetworkInterface",
                 entry_ttl: int = DEFAULT_TTL,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.sim = sim
        self.amateur_iface = amateur_iface
        self.entry_ttl = entry_ttl
        self.tracer = tracer
        #: (outside.value, amateur.value) -> entry
        self._entries: Dict[Tuple[int, int], AccessEntry] = {}
        #: control operators allowed to authorise from the outside:
        #: callsign -> password
        self.operators: Dict[str, str] = {}

        self.allowed_out = 0          # amateur -> outside forwards
        self.allowed_in = 0           # outside -> amateur forwards
        self.blocked_in = 0           # outside -> amateur drops
        self.entries_created = 0
        self.entries_expired = 0
        self.entries_revoked = 0
        self.auth_failures = 0

    # ------------------------------------------------------------------
    # forwarding filter
    # ------------------------------------------------------------------

    def filter(self, datagram: IPv4Datagram, in_iface: "NetworkInterface") -> bool:
        """The gateway's forward veto (plug into ``stack.forward_filter``)."""
        if in_iface is self.amateur_iface:
            # Amateur-initiated traffic always passes and (re)arms the
            # table for the reverse direction.
            self._authorize(datagram.destination, datagram.source,
                            self.entry_ttl, origin="traffic")
            self.allowed_out += 1
            return True
        entry = self._live_entry(datagram.source, datagram.destination)
        if entry is None:
            self.blocked_in += 1
            self.tracer.log("ac.block", "gateway",
                            f"{datagram.source}->{datagram.destination}")
            return False
        self.allowed_in += 1
        return True

    # ------------------------------------------------------------------
    # table maintenance
    # ------------------------------------------------------------------

    def _authorize(self, outside: IPv4Address, amateur: IPv4Address,
                   ttl: int, origin: str) -> AccessEntry:
        key = (outside.value, amateur.value)
        entry = self._entries.get(key)
        now = self.sim.now
        if entry is None:
            entry = AccessEntry(outside, amateur, expires_at=now + ttl,
                                created_at=now)
            self._entries[key] = entry
            self.entries_created += 1
            self.tracer.log("ac.add", "gateway",
                            f"{outside}<->{amateur}", origin=origin)
        else:
            entry.expires_at = max(entry.expires_at, now + ttl)
            entry.refreshes += 1
        return entry

    def _live_entry(self, outside: IPv4Address,
                    amateur: IPv4Address) -> Optional[AccessEntry]:
        key = (outside.value, amateur.value)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires_at <= self.sim.now:
            del self._entries[key]
            self.entries_expired += 1
            return None
        return entry

    def revoke(self, outside: IPv4Address, amateur: IPv4Address) -> bool:
        """Remove an authorisation entry."""
        key = (outside.value, amateur.value)
        if key in self._entries:
            del self._entries[key]
            self.entries_revoked += 1
            self.tracer.log("ac.revoke", "gateway", f"{outside}<->{amateur}")
            return True
        return False

    def expire_stale(self) -> int:
        """Sweep expired entries; returns how many were removed."""
        now = self.sim.now
        stale = [key for key, entry in self._entries.items()
                 if entry.expires_at <= now]
        for key in stale:
            del self._entries[key]
        self.entries_expired += len(stale)
        return len(stale)

    def live_entries(self) -> int:
        """Number of unexpired entries."""
        self.expire_stale()
        return len(self._entries)

    def add_operator(self, callsign: str, password: str) -> None:
        """Register a control operator for outside-originated requests."""
        self.operators[callsign.upper()] = password

    # ------------------------------------------------------------------
    # ICMP control messages
    # ------------------------------------------------------------------

    def handle_icmp(self, message: icmp_mod.IcmpMessage,
                    source: IPv4Address) -> None:
        """Process the §4.3 extension messages (plug into icmp_listeners)."""
        if message.icmp_type != icmp_mod.ICMP_ACCESS_CONTROL:
            return
        try:
            request = icmp_mod.AccessControlRequest.decode(message.body)
        except icmp_mod.IcmpError:
            return
        from_amateur = self._is_amateur_address(source)
        if not from_amateur and not self._operator_ok(request):
            self.auth_failures += 1
            self.tracer.log("ac.authfail", "gateway",
                            f"{source} code={message.code}")
            return
        if message.code == icmp_mod.AC_AUTHORIZE:
            ttl = request.ttl_seconds * SECOND if request.ttl_seconds else self.entry_ttl
            self._authorize(request.outside, request.amateur, ttl, origin="icmp")
        elif message.code == icmp_mod.AC_REVOKE:
            self.revoke(request.outside, request.amateur)

    def _operator_ok(self, request: icmp_mod.AccessControlRequest) -> bool:
        expected = self.operators.get(request.callsign.upper())
        return expected is not None and expected == request.password

    def _is_amateur_address(self, address: IPv4Address) -> bool:
        iface_addr = self.amateur_iface.address
        if iface_addr is None:
            return False
        return address.same_network(iface_addr)
