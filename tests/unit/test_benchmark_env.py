"""The benchmark harness's environment knobs reject what they cannot use.

``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_JOBS`` are read by
``benchmarks/conftest.py``. A value that does not parse, or is not a finite
positive number, must stop the session with a usage error naming the
variable — never fall back to full scale or one job. A good value keeps
the unset default and the clamp to [0.05, 4] (scale) and [1, 64] (jobs).
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest


def collect_claims(**env: str) -> subprocess.CompletedProcess:
    inherited = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_BENCH_")
    }
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/test_claims.py",
            "--collect-only",
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        env={
            **inherited,
            "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
            **env,
        },
        cwd=Path(__file__).resolve().parents[2],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_BENCH_SCALE", "0,1"),
        ("REPRO_BENCH_SCALE", "nan"),
        ("REPRO_BENCH_SCALE", "-1"),
        ("REPRO_BENCH_JOBS", "four"),
        ("REPRO_BENCH_JOBS", "0"),
    ],
)
def test_bad_value_fails_the_session(name, value) -> None:
    done = collect_claims(**{name: value})
    assert done.returncode != 0
    assert name in done.stdout + done.stderr


def load_conftest():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONFTEST = load_conftest()
READERS = {"REPRO_BENCH_SCALE": CONFTEST._scale, "REPRO_BENCH_JOBS": CONFTEST._jobs}


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("REPRO_BENCH_SCALE", None, 1.0),
        ("REPRO_BENCH_SCALE", "0.1", 0.1),
        ("REPRO_BENCH_SCALE", " 0.5 ", 0.5),
        ("REPRO_BENCH_SCALE", "0.05", 0.05),
        ("REPRO_BENCH_SCALE", "0.01", 0.05),
        ("REPRO_BENCH_SCALE", "1e-3", 0.05),
        ("REPRO_BENCH_SCALE", "4", 4.0),
        ("REPRO_BENCH_SCALE", "10", 4.0),
        ("REPRO_BENCH_JOBS", None, 1),
        ("REPRO_BENCH_JOBS", "4", 4),
        ("REPRO_BENCH_JOBS", " 2", 2),
        ("REPRO_BENCH_JOBS", "+3", 3),
        ("REPRO_BENCH_JOBS", "64", 64),
        ("REPRO_BENCH_JOBS", "100", 64),
    ],
)
def test_good_value_keeps_its_default_and_clamp(
    name, value, expected, monkeypatch
) -> None:
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    assert READERS[name]() == expected


BAD_SCALES = ["0,1", "nan", "inf", "-inf", "1e400", "0", "-0.0", "-1", "", "abc", "0x1"]
BAD_JOBS = ["four", "0", "-2", "1.5", "", "nan"]


@pytest.mark.parametrize(
    "name, value",
    [("REPRO_BENCH_SCALE", value) for value in BAD_SCALES]
    + [("REPRO_BENCH_JOBS", value) for value in BAD_JOBS],
)
def test_bad_value_is_a_usage_error_naming_it(name, value, monkeypatch) -> None:
    monkeypatch.setenv(name, value)
    with pytest.raises(pytest.UsageError, match=re.escape(f"{name}={value!r}")):
        READERS[name]()
