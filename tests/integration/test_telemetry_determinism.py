"""Integration tests for the telemetry spine across execution backends.

The ISSUE-9 acceptance bar: the same seeded sweep, traced, must produce a
trace JSONL byte-identical modulo the wall-clock header line whether it
runs serial (``jobs=1``), multiprocess (``jobs=2``) or through a fleet
daemon — and the traced *artifact* must normalize to exactly its untraced
twin (aggregate telemetry sections ride along; raw records never change
result bytes).

Simulated runs are expensive, so the traced/untraced reference executions
are computed once per module (plain lazy caches — the runs are pure
functions of the spec) and shared across the assertions.  Each run's JSONL
is serialised once, and traces are compared raw after the header line
(only the header is normalized): equal raw records imply equal normalized
traces, without parsing half a million records per comparison.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace

from repro.dispatch.client import FleetClient, FleetSpec
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.worker import run_worker
from repro.experiments import protocol_race
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.sweep import SweepPoint, SweepSpec, run_sweep
from repro.telemetry import (
    normalized_trace_lines,
    trace_jsonl_lines,
    validate_telemetry,
)
from repro.workloads.synthetic import PerfectClusterWorkload
from tests.helpers import canonical_sha256, json_from_child

SECRET = "telemetry-secret"
DURATION = 1.0
#: The paper's detector plus the strongest competitor: one protocol with
#: wound aborts (locking) and one with SGT checks, so the trace exercises
#: the protocol category from two different decision paths.
PROTOCOLS = ("tcache-detector", "locking")

_CACHE: dict[str, object] = {}
#: Trace JSONL per cached run, by ``id`` of the (cached, so live) sweep.
_LINES: dict[int, list[str]] = {}


def race_spec(*, trace: bool = False):
    spec = protocol_race.spec(protocols=PROTOCOLS, duration=DURATION, seed=11)
    return replace(spec, points=[replace(p, trace=trace) for p in spec.points])


def traced_run(key: str, jobs: int):
    """One traced execution per (key) for the whole module."""
    if key not in _CACHE:
        _CACHE[key] = run_sweep(race_spec(trace=True), jobs=jobs)
    return _CACHE[key]


def untraced_run():
    if "untraced" not in _CACHE:
        _CACHE["untraced"] = run_sweep(race_spec(), jobs=1)
    return _CACHE["untraced"]


def trace_of(sweep) -> list[str]:
    return normalized_trace_lines(trace_jsonl_lines([sweep]))


def lines_of(sweep) -> list[str]:
    """``trace_jsonl_lines`` of one cached run, serialised once per module."""
    if id(sweep) not in _LINES:
        _LINES[id(sweep)] = trace_jsonl_lines([sweep])
    return _LINES[id(sweep)]


def assert_same_trace(lines: list[str], reference: list[str]) -> None:
    """Byte-identical records, and headers equal once normalized: a check
    at least as strict as comparing the two whole normalized traces."""
    assert lines[1:] == reference[1:]
    assert normalized_trace_lines(lines[:1]) == normalized_trace_lines(reference[:1])


def fleet_run(tmp_path_factory):
    """One traced fleet-served execution, its daemon left journaled."""
    if "fleet" not in _CACHE:
        journal_dir = str(tmp_path_factory.mktemp("telemetry-journals"))
        daemon = FleetDaemon(
            FleetConfig(port=0, journal_dir=journal_dir, secret=SECRET)
        )
        daemon.start()
        try:
            host, port = daemon.address
            worker = threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs={"secret": SECRET, "max_idle": 2.0},
                daemon=True,
            )
            worker.start()
            result = run_sweep(
                race_spec(trace=True),
                dispatch=FleetSpec(
                    host=host,
                    port=port,
                    secret=SECRET,
                    poll_interval=0.2,
                    wait_timeout=300.0,
                ),
            )
            worker.join(timeout=30.0)
        finally:
            daemon.shutdown()
        _CACHE["fleet"] = (result, journal_dir)
    return _CACHE["fleet"]


class TestTraceDeterminism:
    def test_trace_identical_across_serial_parallel_fleet(
        self, tmp_path_factory
    ):
        serial = traced_run("serial", jobs=1)
        parallel = traced_run("parallel", jobs=2)
        fleet, _journal_dir = fleet_run(tmp_path_factory)

        reference = lines_of(serial)
        assert len(reference) > len(race_spec().points)  # header + records
        # Only the header line may differ before normalization.
        assert_same_trace(lines_of(parallel), reference)
        assert_same_trace(lines_of(fleet), reference)

    def test_rerun_is_byte_identical_including_order(self):
        assert_same_trace(
            lines_of(traced_run("rerun", jobs=1)),
            lines_of(traced_run("serial", jobs=1)),
        )


class TestTelemetrySections:
    def test_traced_results_carry_valid_sections(self):
        sweep = traced_run("serial", jobs=1)
        assert sweep.results
        for result in sweep.results:
            validate_telemetry(result.telemetry)
            counters = result.telemetry["counters"]
            # Kernel and cache instrumentation always fire.
            assert counters["sim.events_dispatched"] > 0
            assert "cache.hits" in counters or "cache.misses" in counters
        # The sweep artifact embeds one section per point (scenario points
        # nest theirs inside the scenario result payload).
        artifact = sweep.to_artifact()
        assert json.dumps(artifact).count('"repro.telemetry/1"') == len(
            sweep.results
        )

    def test_core_events_reach_the_trace(self):
        lines = lines_of(traced_run("serial", jobs=1))
        names = {json.loads(line)["name"] for line in lines[1:]}
        # Kernel dispatch, cache serves, channel deliveries and the
        # monitor's SGT verdicts are all first-class trace events.
        assert {"dispatch", "serve", "deliver", "check"} <= names

    def test_untraced_results_stay_bare(self):
        sweep = untraced_run()
        for result in sweep.results:
            assert result.telemetry is None
            assert result.trace is None
        assert "telemetry" not in json.dumps(sweep.to_artifact())


class TestArtifactByteIdentity:
    def test_traced_artifact_normalizes_to_untraced(self):
        assert normalized_artifact(
            traced_run("serial", jobs=1)
        ) == normalized_artifact(untraced_run())


def _tiny_column_digests() -> dict[str, object]:
    """One tiny seeded column, traced: what :class:`TestKernelTraceGolden`
    hashes in a child interpreter."""
    point = SweepPoint(
        label="tiny",
        config=ColumnConfig(seed=7, duration=0.6, warmup=0.2),
        workload=PerfectClusterWorkload(n_objects=60, cluster_size=5),
        trace=True,
    )
    sweep = run_sweep(SweepSpec(name="tiny", points=[point]), jobs=1)
    body = trace_of(sweep)[1:]
    return {
        "records": len(body),
        "trace": canonical_sha256(body),
        "snapshot": canonical_sha256(sweep.results[0].telemetry),
    }


class TestKernelTraceGolden:
    """Every trace byte and every ``repro.telemetry/1`` count of one column,
    pinned against the commit that still had a second, traced kernel loop
    (``Simulator._run_traced`` / ``Process._resume_traced``).

    Recorded at ac5a554 with this same function, after the one substitution
    the single path makes — the callback name ``Process._resume_traced``
    reads ``Process._resume``. A child interpreter with ``PYTHONHASHSEED=0``,
    as ``TestCommitPathOrder`` uses and for its reason.
    """

    GOLDEN = {
        "records": 9334,
        "trace": "2e619a68e40766a3927422da78c18cf27ae35443d99fa81b6187ac2e6587e3d0",
        "snapshot": "179ea5b5b2b8c79e203056a0202267b8dcc56fe14fe7b87009985ef1137d8a1a",
    }

    def test_tiny_column_matches_the_recorded_bytes(self) -> None:
        digests = json_from_child(
            "tests.integration.test_telemetry_determinism", "_tiny_column_digests"
        )
        assert digests == self.GOLDEN


class TestFleetMetricsVerb:
    def test_daemon_serves_live_metrics(self, tmp_path_factory):
        _result, journal_dir = fleet_run(tmp_path_factory)
        # fleet_run shut its daemon down; ask a fresh one restored from the
        # same journals, the way an operator polling a long-lived daemon
        # would — its lifetime counters restart, its sweep gauges resume.
        daemon = FleetDaemon(
            FleetConfig(port=0, journal_dir=journal_dir, secret=SECRET)
        )
        daemon.start()
        try:
            host, port = daemon.address
            client = FleetClient(host, port, secret=SECRET)
            reply = client.metrics()
            assert reply["type"] == "metrics_report"
            section = validate_telemetry(reply["telemetry"])
            counters = section["counters"]
            gauges = section["gauges"]
            for name in (
                "daemon.connections",
                "daemon.submissions",
                "daemon.results_accepted",
                "queue.leases_requeued",
            ):
                assert name in counters
            assert gauges["daemon.uptime_seconds"] > 0.0
            sweep_gauges = {
                name for name in gauges if name.startswith("sweep.")
            }
            assert any(name.endswith(".completed") for name in sweep_gauges)
            assert any(
                name.endswith(".throughput_points_per_sec")
                for name in sweep_gauges
            )
            # Everything journaled, nothing in flight: lag is exactly zero.
            lags = [
                gauges[name]
                for name in sweep_gauges
                if name.endswith(".journal_lag")
            ]
            assert lags and all(lag == 0 for lag in lags)
        finally:
            daemon.shutdown()
