"""Integration tests for the routed backend tier.

Covers the PR's acceptance contract: a >=2-backend, >=4-edge scenario runs
deterministically under serial and parallel sweep execution (including
multi-shard backends, whose key placement must not depend on the per-process
hash salt), and its per-backend aggregates sum to the fleet totals.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.sweep import SweepPoint, SweepSpec, run_sweep
from repro.scenario import (
    BackendSpec,
    EdgeSpec,
    ScenarioSpec,
    regional_backends_scenario,
    run_scenario,
)
from repro.workloads.synthetic import PerfectClusterWorkload


def routed_fleet(*, shards: int = 2, seed: int = 29) -> ScenarioSpec:
    """2 backends (one sharded), 4 edges, heterogeneous channels."""
    return regional_backends_scenario(
        regions=2,
        edges_per_region=2,
        objects_per_region=150,
        cluster_size=5,
        shards=shards,
        duration=2.0,
        warmup=0.5,
        seed=seed,
    )


class TestRoutedTierDeterminism:
    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            name="routed-tier-grid",
            root_seed=29,
            points=[
                SweepPoint(
                    label=f"shards={shards}",
                    scenario=routed_fleet(shards=shards, seed=29 + shards),
                    params={"shards": shards},
                )
                for shards in (1, 2, 3)
            ],
        )

    def test_serial_and_parallel_sweeps_identical_with_shards(self) -> None:
        """jobs=1 vs jobs=2 over multi-shard, multi-backend scenarios.

        This is the regression test for builtin-``hash`` shard placement:
        a salted hash gives every pool worker its own key -> shard map, so
        the parallel artifact diverges from the serial baseline.
        """
        serial = run_sweep(self.sweep_spec(), jobs=1)
        parallel = run_sweep(self.sweep_spec(), jobs=2)
        left = [result.to_artifact() for result in serial.results]
        right = [result.to_artifact() for result in parallel.results]
        assert json.dumps(left, sort_keys=True) == json.dumps(
            right, sort_keys=True
        )

    def test_rerun_is_deterministic(self) -> None:
        first = run_scenario(routed_fleet())
        second = run_scenario(routed_fleet())
        assert first.to_artifact() == second.to_artifact()


class TestRoutedTierAggregation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(routed_fleet())

    def test_per_backend_counts_sum_to_fleet(self, result) -> None:
        assert result.fleet.counts.total > 0
        assert sum(a.counts.total for a in result.backends) == (
            result.fleet.counts.total
        )
        for label in ("consistent", "inconsistent", "aborted_necessary",
                      "aborted_unnecessary"):
            assert sum(
                getattr(a.counts, label) for a in result.backends
            ) == getattr(result.fleet.counts, label)

    def test_per_edge_counts_sum_to_their_backend(self, result) -> None:
        by_backend = {a.name: a for a in result.backends}
        for aggregate in result.backends:
            edge_total = sum(
                result.edge(name).counts.total for name in aggregate.edges
            )
            assert edge_total == by_backend[aggregate.name].counts.total

    def test_backend_load_split_sums_to_fleet(self, result) -> None:
        assert sum(a.db_accesses for a in result.backends) == (
            result.fleet.db_accesses
        )
        assert sum(a.update_commits for a in result.backends) == (
            result.fleet.update_commits
        )
        assert result.db_stats.committed == result.fleet.update_commits

    def test_both_backends_commit_under_their_own_version_counters(
        self, result
    ) -> None:
        for aggregate in result.backends:
            assert aggregate.update_commits > 0
        # Independent commit sequences: tier-wide commits exceed what any
        # single backend's version counter reached.
        assert result.fleet.update_commits > max(
            a.update_commits for a in result.backends
        )


class TestMixedCacheKindsAcrossBackends:
    def test_checking_and_plain_edges_coexist_on_split_backends(self) -> None:
        """A tier where each backend serves a different cache variant."""
        workload_a = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        spec = ScenarioSpec(
            name="mixed-kinds",
            edges=[
                EdgeSpec(name="checked", workload=workload_a),
                EdgeSpec(
                    name="plain",
                    workload=workload_a,
                    protocol="plain",
                ),
            ],
            backends=[BackendSpec(name="eu"), BackendSpec(name="us")],
            placement={"checked": "eu", "plain": "us"},
            duration=1.5,
            warmup=0.5,
            seed=31,
        )
        result = run_scenario(spec)
        # The plain edge never aborts; the checking edge may.
        assert result.edge("plain").counts.aborted == 0
        assert result.backend("eu").counts.total > 0
        assert result.backend("us").counts.total > 0
