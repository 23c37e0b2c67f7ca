"""Integration tests for the telemetry spine on real sweeps.

A traced sweep carries a valid ``repro.telemetry/1`` section per point and
its core events reach the trace; an untraced one stays bare; one tiny
column's trace bytes are pinned; and a fleet daemon serves live metrics.
That a traced sweep's trace and artifact are the same bytes serial, in a
pool and through a fleet daemon, and that a traced artifact normalizes to
its untraced twin, is ``tools/identity.py record``'s check (run in tier-1
by ``tests/integration/test_identity.py``).

The traced and untraced reference runs are pure functions of the spec, so
each is computed once per module and shared across the assertions.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace

from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.worker import run_worker
from repro.experiments import protocol_race
from repro.experiments.config import ColumnConfig
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


def race_spec(*, trace: bool = False):
    spec = protocol_race.spec(protocols=PROTOCOLS, duration=DURATION, seed=11)
    return replace(spec, points=[replace(p, trace=trace) for p in spec.points])


@functools.cache
def traced_run():
    return run_sweep(race_spec(trace=True), jobs=1)


@functools.cache
def untraced_run():
    return run_sweep(race_spec(), jobs=1)


@functools.cache
def traced_lines() -> list[str]:
    return trace_jsonl_lines([traced_run()])


def trace_of(sweep) -> list[str]:
    return normalized_trace_lines(trace_jsonl_lines([sweep]))


class TestTelemetrySections:
    def test_traced_results_carry_valid_sections(self):
        sweep = traced_run()
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
        lines = traced_lines()
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


def fleet_run(journal_dir: str) -> None:
    """Two tiny traced columns through a journaled fleet daemon, which is
    then shut down."""
    config = ColumnConfig(seed=7, duration=0.6, warmup=0.2)
    workload = PerfectClusterWorkload(n_objects=60, cluster_size=5)
    points = [
        SweepPoint(
            label=f"tiny{seed}",
            config=replace(config, seed=seed),
            workload=workload,
            trace=True,
        )
        for seed in (7, 8)
    ]
    daemon = FleetDaemon(FleetConfig(port=0, journal_dir=journal_dir, secret=SECRET))
    daemon.start()
    try:
        FleetClient(*daemon.address, secret=SECRET).submit(
            SweepSpec(name="tiny-fleet", points=points)
        )
        run_worker(*daemon.address, secret=SECRET, max_idle=0.5)
    finally:
        daemon.shutdown()


class TestFleetMetricsVerb:
    def test_daemon_serves_live_metrics(self, tmp_path):
        journal_dir = str(tmp_path)
        fleet_run(journal_dir)
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
            # Accepts and journal appends share one condition, so there is
            # no lag to report; the journal's contents are checked directly
            # (test_dispatch.py's journaled_indices).
            assert not any(name.endswith(".journal_lag") for name in gauges)
        finally:
            daemon.shutdown()
