"""Shared configuration for the benchmark harness.

``test_claims.py`` regenerates each artifact of the paper's evaluation
(Figures 3-8, the Theorem 1 configuration, the sensitivity sweeps and two
ablations) once per session and checks each claim of the paper against it;
``test_micro_overhead.py`` times the §V-B2 overhead micro-benchmarks.

``REPRO_BENCH_SCALE`` scales simulated durations: 1.0 (default) runs the
full-fidelity experiments; smaller values (e.g. 0.3) run faster
sanity-level sweeps with the same shapes.

``REPRO_BENCH_JOBS`` sets the worker-process count the figure sweeps fan
their columns across (default 1, i.e. serial — wall-clock numbers stay
comparable run to run).  Column results are deterministic per seed, so any
job count reproduces the same series.

A set variable that does not parse as a finite, positive number fails the
session with a usage error before anything runs: a typo must not silently
run every figure at full scale.
"""

from __future__ import annotations

import math
import os

import pytest


def _positive(name: str, default: str, parse) -> float:
    raw = os.environ.get(name, default)
    try:
        value = parse(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise pytest.UsageError(f"{name}={raw!r} is not a finite, positive number")
    return value


def _scale() -> float:
    return min(max(_positive("REPRO_BENCH_SCALE", "1.0", float), 0.05), 4.0)


def _jobs() -> int:
    return min(max(_positive("REPRO_BENCH_JOBS", "1", int), 1), 64)


def pytest_configure(config) -> None:
    _scale()
    _jobs()


@pytest.fixture(scope="session")
def scale() -> float:
    return _scale()


@pytest.fixture(scope="session")
def jobs() -> int:
    """Sweep worker processes for the figure benchmarks."""
    return _jobs()


@pytest.fixture(scope="session")
def duration(scale: float) -> float:
    """Measured duration for the steady-state sweeps (paper-scale: 30 s)."""
    return 30.0 * scale
