"""netstat/ifconfig/arp-style reports for a simulated host.

Formatting helpers that render a :class:`~repro.inet.netstack.NetStack`
the way the era's admin commands would: interface table with counters,
routing table, ARP caches, protocol statistics, and active TCP
connections.  Examples print these; tests assert against the live
objects instead.
"""

from __future__ import annotations

from typing import List

from repro.inet.ip import IPv4Address
from repro.inet.netstack import NetStack
from repro.inet.tcp import TcpConnection
from repro.netif.ifnet import InterfaceFlags


def format_interfaces(stack: NetStack) -> str:
    """ifconfig-ish: one line per interface with BSD counters."""
    lines = [f"{'Name':<6} {'Mtu':>5} {'Address':<15} "
             f"{'Ipkts':>7} {'Ierrs':>6} {'Opkts':>7} {'Oerrs':>6} Flags"]
    for iface in stack.interfaces:
        flags = []
        if iface.is_up:
            flags.append("UP")
        for flag_name in ("BROADCAST", "LOOPBACK", "POINTOPOINT", "NOARP"):
            if iface.flags & getattr(InterfaceFlags, flag_name):
                flags.append(flag_name)
        lines.append(
            f"{iface.name:<6} {iface.mtu:>5} {str(iface.address or '-'):<15} "
            f"{iface.ipackets:>7} {iface.ierrors:>6} "
            f"{iface.opackets:>7} {iface.oerrors:>6} {'|'.join(flags)}"
        )
    return "\n".join(lines)


def format_routes(stack: NetStack) -> str:
    """netstat -r: the routing table."""
    lines = [f"{'Destination':<16} {'Gateway':<16} {'Interface':<9} "
             f"{'Kind':<5} {'Use':>6}"]
    for route in stack.routes.routes():
        destination = str(route.destination) if route.destination.value else "default"
        gateway = str(route.gateway) if route.gateway else "direct"
        kind = "host" if route.is_host_route else "net"
        if not route.destination.value:
            kind = "dflt"
        lines.append(f"{destination:<16} {gateway:<16} "
                     f"{route.interface.name:<9} {kind:<5} {route.uses:>6}")
    return "\n".join(lines)


def format_arp_table(stack: NetStack) -> str:
    """arp -a across every interface that runs an ARP service."""
    lines: List[str] = []
    for iface in stack.interfaces:
        arp = getattr(iface, "arp", None)
        if arp is None:
            continue
        for ip_value, entry in sorted(arp.cache.items()):
            ip_text = str(IPv4Address(ip_value))
            hw = entry.hw_address.hex(":")
            flavour = "permanent" if entry.static else "dynamic"
            extra = ""
            if entry.link_hint:
                extra = f" via {entry.link_hint}"
            lines.append(f"{ip_text} at {hw} on {iface.name} [{flavour}]{extra}")
    return "\n".join(lines) if lines else "(no arp entries)"


def _describe_connection(conn: TcpConnection) -> str:
    remote = f"{conn.remote_ip}:{conn.remote_port}" if conn.remote_ip else "*"
    return (f"tcp  {conn.local_port:<6} {remote:<21} {conn.state.value:<12} "
            f"snd={conn.stats['bytes_sent']} rcv={conn.stats['bytes_received']} "
            f"rexmit={conn.stats['retransmissions']} "
            f"fast={conn.stats['fast_retransmits']} "
            f"rto={conn.rto_policy.current() // 1000}ms "
            f"cwnd={conn.cc_policy.window()}")


def format_netstat(stack: NetStack) -> str:
    """netstat: protocol counters plus active TCP connections."""
    counters = stack.counters
    lines = [
        f"--- {stack.hostname} ---",
        "ip:",
        f"    {counters['ip_received']} total packets received",
        f"    {counters['ip_delivered']} delivered locally",
        f"    {counters['ip_forwarded']} forwarded",
        f"    {counters['ip_no_route']} dropped (no route)",
        f"    {counters['ip_input_drops']} dropped (input queue full)",
        f"    {counters['ip_bad']} bad headers",
        f"    {counters['frags_sent']} fragments created",
        "interfaces:",
        f"    {counters['if_snd_drops']} output queue drops",
        f"    {counters['if_output_sheds']} packets shed under backlog",
        "icmp:",
        f"    {counters['icmp_received']} messages received",
        f"    {counters['icmp_echo_replied']} echo requests answered",
        f"    {counters['redirects_sent']} redirects sent, "
        f"{counters['redirects_followed']} followed",
        f"    {counters['quench_sent']} source quenches sent",
        "udp:",
        f"    {counters['udp_received']} datagrams received",
        f"    {counters['udp_no_port']} to unbound ports",
        "tcp connections:",
    ]
    connections = list(stack.tcp._connections.values())
    if connections:
        lines.extend(f"    {_describe_connection(conn)}" for conn in connections)
    else:
        lines.append("    (none)")
    return "\n".join(lines)
