"""Byte-identity for the protocol race across every execution backend.

The ISSUE-7 acceptance bar: the race sweep covering **every registered
protocol** must produce byte-identical per-point artifacts whether it runs
serial (``jobs=1``), multiprocess (``jobs=2``) or through a fleet daemon
with auth and journaling enabled — and the race rows and ranking built
from those results must be byte-identical too.
"""

from __future__ import annotations

import json
import threading

from repro.dispatch.client import FleetSpec
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.worker import run_worker
from dataclasses import asdict

from repro.experiments import protocol_race
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import run_column
from repro.experiments.sweep import run_sweep
from repro.protocols import protocol_names
from repro.scenario import EdgeSpec, ScenarioSpec, run_scenario
from repro.workloads.synthetic import PerfectClusterWorkload

SECRET = "integration-secret"
DURATION = 2.0
SEED = 11


def race_spec():
    return protocol_race.spec(
        protocols=protocol_names(), duration=DURATION, seed=SEED
    )


def point_artifacts(sweep) -> list[str]:
    return [json.dumps(r.to_artifact(), sort_keys=True) for r in sweep.results]


def race_payload(sweep) -> str:
    rows = protocol_race.race_rows(
        [(point.params, result) for point, result in sweep.pairs()]
    )
    ranking = protocol_race.ranking_rows(rows)
    return json.dumps([rows, ranking], sort_keys=True)


class TestRaceDeterminism:
    def test_serial_parallel_and_fleet_agree(self, tmp_path) -> None:
        spec = race_spec()
        assert len(spec.points) == 3 * len(protocol_names())

        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert point_artifacts(parallel) == point_artifacts(serial)
        assert race_payload(parallel) == race_payload(serial)

        daemon = FleetDaemon(
            FleetConfig(
                port=0,
                journal_dir=str(tmp_path),
                secret=SECRET,
                lease_timeout=60.0,
                poll_interval=0.05,
            )
        )
        daemon.start()
        server = threading.Thread(target=daemon.serve_forever, daemon=True)
        server.start()
        host, port = daemon.address
        try:
            worker = threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs={
                    "name": "race-worker",
                    "secret": SECRET,
                    "max_idle": 3.0,
                    "heartbeat_interval": 0.5,
                },
                daemon=True,
            )
            worker.start()
            fleet = run_sweep(
                spec,
                dispatch=FleetSpec(
                    host=host,
                    port=port,
                    secret=SECRET,
                    poll_interval=0.1,
                    wait_timeout=240.0,
                ),
            )
        finally:
            daemon.shutdown()
        worker.join(timeout=60.0)

        assert point_artifacts(fleet) == point_artifacts(serial)
        assert race_payload(fleet) == race_payload(serial)

    def test_report_matches_manual_pipeline(self) -> None:
        sweep = run_sweep(race_spec(), jobs=1)
        rows, ranking = protocol_race.report(sweep)
        assert json.dumps([rows, ranking], sort_keys=True) == race_payload(sweep)


class TestOneSelectorEndToEnd:
    """An edge's result says which protocol it ran, and a column can run
    any of them — both were false while ``cache_kind`` sat beside
    ``protocol``."""

    def test_edge_results_name_the_protocol_they_ran(self) -> None:
        spec = protocol_race.spec(
            protocols=("locking", "tcache-detector"), duration=0.5, seed=SEED
        )
        for point, result in run_sweep(spec, jobs=1).pairs():
            assert [edge.protocol for edge in result.spec.edges] == [
                edge.protocol for edge in point.scenario.edges
            ]
            assert {edge.protocol for edge in point.scenario.edges} == {
                point.params["protocol"]
            }

    def test_locking_column_equals_the_one_edge_scenario(self) -> None:
        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        column = run_column(
            ColumnConfig(seed=SEED, duration=1.0, warmup=0.5, protocol="locking"),
            workload,
        )
        scenario = run_scenario(
            ScenarioSpec(
                name="one-edge",
                seed=SEED,
                duration=1.0,
                warmup=0.5,
                edges=[EdgeSpec(name="edge0", workload=workload, protocol="locking")],
            )
        )
        edge = scenario.edges[0]
        assert column.counts == edge.counts
        assert column.series == edge.series
        assert asdict(column.cache_stats) == asdict(edge.cache_stats)
        assert column == edge
        assert column.counts.total > 0
        assert column.counts.inconsistent == 0  # the pessimistic bound
