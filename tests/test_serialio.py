"""Tests for the serial line (the DZ tty lines of Figure 1)."""

from __future__ import annotations

from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND

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
