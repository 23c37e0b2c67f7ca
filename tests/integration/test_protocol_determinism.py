"""The protocol race's report and its one-selector contract, end to end.

That the race is the same bytes serial, in a pool, dispatched and through a
fleet daemon is ``tools/identity.py record``'s check (run on
``protocol-race`` in tier-1 by ``tests/integration/test_identity.py``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import asdict

from repro.dispatch.codec import encode_result
from repro.experiments import protocol_race
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.runner import run_column
from repro.experiments.sweep import run_sweep
from repro.protocols import protocol_names
from repro.scenario import BackendSpec, EdgeSpec, ScenarioSpec, run_scenario
from repro.workloads.synthetic import PerfectClusterWorkload
from tests.helpers import json_from_child

DURATION = 2.0
SEED = 11


def race_spec():
    return protocol_race.spec(
        protocols=protocol_names(), duration=DURATION, seed=SEED
    )


def race_payload(sweep) -> str:
    rows = protocol_race.race_rows(
        [(point.params, result) for point, result in sweep.pairs()]
    )
    ranking = protocol_race.ranking_rows(rows)
    return json.dumps([rows, ranking], sort_keys=True)


class TestRaceDeterminism:
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


def _locking_scenario_digest() -> str:
    """SHA-256 of a two-edge ``locking`` scenario's result bytes, on one
    backend split over two shards (lock waits, wounds and 2PC across them)."""
    workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
    result = run_scenario(
        ScenarioSpec(
            name="locking",
            seed=SEED,
            duration=1.0,
            warmup=0.5,
            backends=[BackendSpec(name="db", shards=2)],
            edges=[
                EdgeSpec(name=f"edge{index}", workload=workload, protocol="locking")
                for index in range(2)
            ],
        )
    )
    assert result.edges[0].counts.total > 0
    artifact = normalized_artifact(encode_result(result))
    return hashlib.sha256(artifact.encode("utf-8")).hexdigest()


class TestLockingScenarioDigest:
    """The ``locking`` scenario's bytes follow neither the string hash nor
    the start method: child interpreters under three ``PYTHONHASHSEED``s
    and a ``spawn`` child give one digest."""

    def test_one_digest_under_three_hash_seeds_and_spawn(self) -> None:
        module = "tests.integration.test_protocol_determinism"
        digests = {
            f"PYTHONHASHSEED={seed}": json_from_child(
                module, "_locking_scenario_digest", seed
            )
            for seed in ("0", "1", "2")
        }
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            child = pool.apply_async(_locking_scenario_digest)
            digests["spawn"] = child.get(timeout=120)
        assert len(set(digests.values())) == 1, digests
