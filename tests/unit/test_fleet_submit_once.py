"""A fleet submission is serialised once, and to the same bytes as before.

The daemon hashes, journals and queues one canonical ``spec_artifact`` per
submission.  These tests pin what that artifact must equal — the journal
header line and the fingerprint built from ``spec_artifact(spec)`` and
``sweep_fingerprint(spec)``, byte for byte — and how often it is built.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.dispatch import client as client_module
from repro.dispatch import daemon as daemon_module
from repro.dispatch import journal as journal_module
from repro.dispatch.client import FleetClient, FleetSpec, run_fleet_sweep
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import JOURNAL_SCHEMA, journal_path, sweep_fingerprint
from repro.experiments import sweep as sweep_module
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed, spec_artifact
from repro.workloads.synthetic import PerfectClusterWorkload


def tiny_spec(n_points: int = 3, *, name: str = "once") -> SweepSpec:
    workload = PerfectClusterWorkload(n_objects=40, cluster_size=4)
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    return SweepSpec(
        name=name,
        root_seed=1,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(1, index)),
                workload=workload,
                params={"index": index},
            )
            for index in range(n_points)
        ],
    )


def loopback_spec(seed: int, points: int) -> SweepSpec:
    """The 220-point grid the fleet benchmarks push through the wire."""
    objects = PerfectClusterWorkload(n_objects=100, cluster_size=5)
    return SweepSpec(
        name="perf-loopback",
        root_seed=seed,
        points=[
            SweepPoint(
                label=f"p{index}",
                config=ColumnConfig(
                    seed=derive_seed(seed, index),
                    duration=0.04,
                    warmup=0.02,
                    monitor_window=0.02,
                ),
                workload=objects,
            )
            for index in range(points)
        ],
    )


@pytest.fixture()
def daemon(tmp_path):
    daemon = FleetDaemon(FleetConfig(journal_dir=str(tmp_path), poll_interval=0.05))
    daemon.config.secret = None  # never pick up the test environment's
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.shutdown()


@pytest.fixture()
def artifact_calls(monkeypatch) -> list[str]:
    """Every ``spec_artifact`` call, wherever the dispatch layer makes it."""
    calls: list[str] = []
    original = sweep_module.spec_artifact

    def counting(spec):
        calls.append(spec.name)
        return original(spec)

    for module in (sweep_module, daemon_module, journal_module, client_module):
        if getattr(module, "spec_artifact", None) is original:
            monkeypatch.setattr(module, "spec_artifact", counting)
    return calls


def expected_header(spec: SweepSpec, name: str, priority: int) -> str:
    header = {
        "kind": "sweep",
        "schema": JOURNAL_SCHEMA,
        "name": name,
        "fingerprint": sweep_fingerprint(spec),
        "total": len(spec.points),
        "priority": priority,
        "spec": spec_artifact(spec),
    }
    return json.dumps(header, separators=(",", ":")) + "\n"


class TestSameBytes:
    @pytest.mark.parametrize("path", ["in-process", "wire"])
    def test_journal_header_and_fingerprint_match_the_spec_artifact(
        self, daemon, tmp_path, path
    ) -> None:
        spec = tiny_spec()
        if path == "in-process":
            daemon.submit(spec, name="pinned", priority=3)
        else:
            host, port = daemon.address
            reply = FleetClient(host, port).submit(spec, name="pinned", priority=3)
            assert reply["created"] and reply["total"] == len(spec.points)
        with open(journal_path(str(tmp_path), "pinned"), encoding="utf-8") as handle:
            assert handle.readline() == expected_header(spec, "pinned", 3)
        entry = daemon.queue.entry("pinned")
        assert entry.fingerprint == sweep_fingerprint(spec)
        assert entry.point_payloads == spec_artifact(spec)["columns"]

    def test_loopback_fingerprint_is_unchanged(self) -> None:
        # Recorded before the submit path stopped re-serialising: journals
        # on disk resume only while this holds.
        assert sweep_fingerprint(loopback_spec(21, 220)) == (
            "sha256:c1ac4bd15194999c067f3d300a24ed6e5cf611d084211794ae2e3e0796fc935c"
        )


class TestSerialisedOnce:
    def test_wire_submit_builds_one_artifact_daemon_side(
        self, daemon, artifact_calls
    ) -> None:
        payload = spec_artifact(tiny_spec())
        artifact_calls.clear()
        host, port = daemon.address
        FleetClient(host, port).submit(payload, name="wire")
        assert len(artifact_calls) == 1

    def test_in_process_submit_builds_one_artifact(
        self, daemon, artifact_calls
    ) -> None:
        daemon.submit(tiny_spec(), name="local")
        assert len(artifact_calls) == 1

    def test_fleet_sweep_builds_one_artifact_on_each_side(
        self, daemon, artifact_calls
    ) -> None:
        # An empty grid is done the moment it is queued, so this counts the
        # submit path alone: one artifact names and carries it, one is the
        # daemon's canonical copy.
        host, port = daemon.address
        result = run_fleet_sweep(
            SweepSpec(name="empty", points=[]), FleetSpec(host=host, port=port)
        )
        assert result.results == []
        assert len(artifact_calls) == 2
