"""Tests for the serial line (the DZ tty lines of Figure 1)."""

from __future__ import annotations

from repro.ax25.address import AX25Address
from repro.ax25.defs import PID_NO_L3
from repro.ax25.frames import AX25Frame
from repro.core.hosts import make_radio_host
from repro.core.topology import build_gateway_testbed
from repro.kiss.framing import frame as kiss_frame
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator

import pytest


def test_byte_time_8n1(sim):
    line = SerialLine(sim, baud=9600)
    assert line.byte_time == round(10 * SECOND / 9600)


def test_bytes_arrive_one_per_interrupt_with_spacing(sim):
    line = SerialLine(sim, baud=1200)
    arrivals = []
    line.b.on_receive(lambda byte: arrivals.append((sim.now, byte)))
    line.a.write(b"abc")
    sim.run_until_idle()
    assert [byte for _t, byte in arrivals] == [ord("a"), ord("b"), ord("c")]
    times = [t for t, _ in arrivals]
    spacing = {times[1] - times[0], times[2] - times[1]}
    assert spacing == {line.byte_time}


def test_writes_queue_behind_in_flight_bytes(sim):
    line = SerialLine(sim, baud=9600)
    arrivals = []
    line.b.on_receive(lambda byte: arrivals.append(sim.now))
    line.a.write(b"xx")
    line.a.write(b"y")  # same instant: must serialise after the first two
    sim.run_until_idle()
    assert arrivals == [line.byte_time, 2 * line.byte_time, 3 * line.byte_time]


def test_directions_are_independent(sim):
    line = SerialLine(sim, baud=9600)
    a_got, b_got = [], []
    line.a.on_receive(lambda byte: a_got.append(byte))
    line.b.on_receive(lambda byte: b_got.append(byte))
    line.a.write(b"to-b")
    line.b.write(b"to-a")
    sim.run_until_idle()
    assert bytes(b_got) == b"to-b"
    assert bytes(a_got) == b"to-a"
    # Full duplex: both directions finish at the same time.
    assert sim.now == 4 * line.byte_time


def test_tx_busy_and_backlog(sim):
    line = SerialLine(sim, baud=9600)
    line.a.write(bytes(10))
    assert line.a.tx_busy
    assert line.a.tx_backlog_bytes == 10
    sim.run(until=5 * line.byte_time)
    assert line.a.tx_backlog_bytes == 5
    sim.run_until_idle()
    assert not line.a.tx_busy
    assert line.a.tx_backlog_bytes == 0


def test_write_returns_completion_time(sim):
    line = SerialLine(sim, baud=9600)
    done = line.a.write(bytes(3))
    assert done == 3 * line.byte_time


def test_invalid_baud_rejected(sim):
    with pytest.raises(ValueError):
        SerialLine(sim, baud=0)


def test_counters(sim):
    line = SerialLine(sim, baud=9600)
    line.a.write(b"12345")
    sim.run_until_idle()
    assert line.a.bytes_sent == 5
    assert line.b.bytes_received == 5


def test_throughput_capacity(sim):
    line = SerialLine(sim, baud=9600)
    assert line.throughput_bytes_per_second() == 960.0


# ----------------------------------------------------------------------
# fault hooks and sustained overload (the chaos subsystem's entry points)
# ----------------------------------------------------------------------

def test_rx_fault_filter_corrupts_drops_and_uninstalls(sim):
    line = SerialLine(sim, baud=9600)
    got = []
    line.a.on_receive(got.append)

    def flip_then_drop(byte):
        if byte == 0x10:
            return byte ^ 0x01     # corrupt
        if byte == 0x20:
            return None            # drop
        return byte                # pass through

    line.a.rx_fault = flip_then_drop
    line.b.write(b"\x10\x20\x30")
    sim.run_until_idle()
    assert got == [0x11, 0x30]
    assert line.a.rx_faulted == 2      # one corruption + one drop
    # the line is honest again once the filter comes off
    line.a.rx_fault = None
    line.b.write(b"\x40")
    sim.run_until_idle()
    assert got == [0x11, 0x30, 0x40]


def test_sustained_overload_backlog_drains_completely(sim):
    line = SerialLine(sim, baud=1200)
    line.a.write(bytes(1200))          # ten seconds of line time
    assert line.a.tx_busy
    sim.run(until=5 * SECOND)
    backlog_midway = line.a.tx_backlog_bytes
    assert 0 < backlog_midway < 1200   # draining, not stuck
    sim.run_until_idle()
    assert line.a.tx_backlog_bytes == 0
    assert not line.a.tx_busy
    assert line.b.bytes_received == 1200


class PerByteSimulator(Simulator):
    """The reference schedule: a series is one ``at`` per element, every
    key drawn when the series is registered."""

    def at_series(self, first, interval, fn, items, label=""):
        return [self.at(first + index * interval, fn, item, label=label)
                for index, item in enumerate(items)][0]


def fan_out(sim, hearers):
    """The PC sends one UI frame that ``hearers`` promiscuous KISS TNCs
    hear (the gateway's and ``hearers - 1`` other hosts') and pass up
    their per-char lines.  Returns each TNC's host-bound writes as
    ``(time, queue entries before, after)`` and each host's
    deframed records as ``(time, host, record)``."""
    testbed = build_gateway_testbed(seed=1, sim=sim)
    radios = [("gateway", testbed.gateway.radio)] + [
        (f"pc{index}", make_radio_host(sim, testbed.channel, f"pc{index}",
                                       f"N0PC-{index}",
                                       f"44.24.0.{40 + index}").radio)
        for index in range(hearers - 1)]
    writes, records = [], []
    for host, radio in radios:
        endpoint = radio.serial.b

        def write(data, write=endpoint.write):
            before = len(sim._queue)
            done = write(data)
            writes.append((sim.now, before, len(sim._queue)))
            return done

        endpoint.write = write
        deframer = radio.interface._deframer

        def on_frame(kind, payload, host=host, on_frame=deframer.on_frame):
            records.append((sim.now, host, payload))
            on_frame(kind, payload)

        deframer.on_frame = on_frame
    hello = AX25Frame.ui(AX25Address("QST"), AX25Address("KB7DZ"), PID_NO_L3,
                         b"hello, all stations").encode()
    testbed.pc.radio.serial.a.write(kiss_frame(0, hello))
    sim.run(until=10 * SECOND)
    return writes, records


@pytest.mark.parametrize("hearers", [2, 6])
def test_a_frame_every_promiscuous_tnc_passes_up_is_one_queue_entry(hearers):
    """The TNCs that hear a frame write it up their lines in one instant
    with no key drawn between the writes, so the writes are the lanes of
    one cohort: one queue entry in all.  Each host still deframes the
    record at the instants the per-byte schedule gives."""
    writes, records = fan_out(Simulator(), hearers)
    reference_writes, reference_records = fan_out(PerByteSimulator(), hearers)
    assert records == reference_records
    assert sorted(host for _time, host, _record in records) == sorted(
        ["gateway"] + [f"pc{index}" for index in range(hearers - 1)])
    assert len({record for _time, _host, record in records}) == 1
    assert len(writes) == hearers
    assert len({time for time, _before, _after in writes}) == 1
    assert writes[-1][2] - writes[0][1] == 1
    length = len(kiss_frame(0, records[0][2]))
    assert all(after - before == length
               for _time, before, after in reference_writes)
