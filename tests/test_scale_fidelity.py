"""Frame fidelity must be invisible in the metrics (repro.scale).

The dial's central promise: on a fault-free serial line, ``frame``
fidelity -- one event per KISS record instead of one per byte --
produces the same metrics as the ``per_char`` path through
``comparable_metrics``, which strips only the event-queue bookkeeping
(``events_executed``) that differs by design.  These tests gate that
promise on both canonical topologies, check that the automatic
downshift puts every byte through the per-byte fault filter (under a
fault window the downshift is an approximation, so no equality is
claimed there), and run the sanitizer + order shuffle over the
frame-fidelity scheduler paths (a regression guard: no spurious
conservation findings at frame fidelity).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.results import NEUTRAL_METRICS, comparable_metrics
from repro.serialio.line import validate_line_fidelity
from repro.sim.clock import SECOND
from repro.workload.scenario import GeneratorMix, Scenario, run_scenario

MIX = (
    GeneratorMix("ping", fraction=2, rate_per_minute=4),
    GeneratorMix("udp", fraction=1, rate_per_minute=3, payload_bytes=64),
)


def test_validate_line_fidelity_rejects_unknown():
    assert validate_line_fidelity("frame") == "frame"
    with pytest.raises(ValueError, match="flow"):
        validate_line_fidelity("flow")  # flow is not a *line* fidelity


def test_fidelity_comparable_strips_only_bookkeeping():
    metrics = {"pings_sent": 3.0, "events_executed": 999.0}
    assert comparable_metrics(metrics) == {"pings_sent": 3.0}
    assert "events_executed" in NEUTRAL_METRICS


@pytest.mark.parametrize("topology", ["gateway", "figure1"])
def test_frame_fidelity_digest_equal_on_clean_lines(topology):
    base = Scenario(name="fid", topology=topology, stations=4,
                    duration_seconds=90.0, mix=MIX, seed=21)
    per_char = run_scenario(base)
    frame = run_scenario(replace(base, fidelity="frame"))
    assert comparable_metrics(frame) == comparable_metrics(per_char)
    # The whole point: materially fewer events for the same outcome.
    assert frame["events_executed"] < per_char["events_executed"] / 2


def test_frame_fidelity_downshifts_under_serial_fault():
    """A serial fault forces per-byte delivery so the filter sees bytes.

    With noise on the gateway's line the frame path must not tunnel
    records past the per-byte fault filter: the run still completes,
    the filter touches bytes, and the faulted run differs from the
    clean one (the fault is actually felt).
    """
    plan = FaultPlan((FaultSpec(kind="serial_noise", target="gateway",
                                at=10 * SECOND, duration=30 * SECOND,
                                probability=0.05),))
    base = Scenario(name="fid-fault", topology="gateway", stations=4,
                    duration_seconds=90.0, mix=MIX, seed=22,
                    fidelity="frame", fault_plan=plan)
    faulted = run_scenario(base)
    clean = run_scenario(replace(base, fault_plan=None))
    assert faulted["fault_bytes_corrupted"] > 0
    assert comparable_metrics(faulted) != comparable_metrics(clean)


def test_frame_fidelity_deterministic_per_seed():
    base = Scenario(name="fid-det", topology="gateway", stations=4,
                    duration_seconds=60.0, mix=MIX, seed=5,
                    fidelity="frame")
    assert run_scenario(base) == run_scenario(base)
    assert run_scenario(base) != run_scenario(replace(base, seed=6))


def test_sanitizer_accepts_frame_fidelity_paths():
    """Satellite regression: sanitize + order_salt at frame fidelity.

    The burst delivery path and the flow cloud must not confuse the
    span-conservation checks or depend on equal-time FIFO ordering.
    """
    base = Scenario(name="fid-san", topology="gateway", stations=4,
                    duration_seconds=60.0, mix=MIX, seed=31,
                    fidelity="frame", flow_stations=25,
                    sanitize=True, order_salt=0xBEEF)
    salted = run_scenario(base)
    assert salted["sanitizer_conservation_failures"] == 0
    assert salted["sanitizer_stale_spans"] == 0
    assert salted["sanitizer_checks"] > 0
    other = run_scenario(replace(base, order_salt=0xFACE))
    assert comparable_metrics(salted) == comparable_metrics(other)
