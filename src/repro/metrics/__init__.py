"""Measurement helpers shared by tests, examples and benchmarks."""

from repro.metrics.counters import CounterSet

__all__ = ["CounterSet"]
