"""Shared fixtures and helpers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import LintEngine
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import Tracer


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=1234)


@pytest.fixture
def tracer(sim: Simulator) -> Tracer:
    return Tracer(sim)


def deep_findings(tmp_path, files):
    """Lint a synthetic package (written under tmp_path) with --deep."""
    pkg = tmp_path / "pkg"
    for relpath, source in files.items():
        target = pkg / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        step = target.parent
        while step != tmp_path:
            (step / "__init__.py").touch()
            step = step.parent
        target.write_text(source)
    return LintEngine(deep=True).lint_paths([pkg]).new_findings


@pytest.fixture(scope="session")
def src_deep_report():
    """One deep lint of ``src/``, shared by the tests that inspect it."""
    src_root = Path(__file__).resolve().parent.parent / "src"
    return LintEngine(deep=True).lint_paths([src_root])
