"""Integration tests: capacity-bounded caches and the §VII extensions."""

from __future__ import annotations

import pytest

from repro.core.deplist import UNBOUNDED
from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import run_column
from repro.workloads.synthetic import ParetoClusterWorkload, PerfectClusterWorkload

WORKLOAD = PerfectClusterWorkload(n_objects=200, cluster_size=5)


class TestCapacityEviction:
    def test_evictions_cause_no_new_inconsistencies(self) -> None:
        """§IV: "Had we modeled [capacity evictions], evictions would reduce
        the cache hit rate, but could not cause new inconsistencies."

        With unbounded dependency lists, zero inconsistent commits must
        survive a capacity squeeze — eviction only replaces stale entries
        with fresh reads.
        """
        config = ColumnConfig(
            seed=5, duration=6.0, warmup=2.0,
            deplist_max=UNBOUNDED, cache_capacity=50,
        )
        result = run_column(config, WORKLOAD)
        assert result.counts.inconsistent == 0
        assert result.cache_stats.capacity_evictions > 0

    def test_capacity_squeeze_reduces_hit_ratio(self) -> None:
        tight = run_column(
            ColumnConfig(seed=5, duration=5.0, warmup=2.0, cache_capacity=40),
            WORKLOAD,
        )
        roomy = run_column(
            ColumnConfig(seed=5, duration=5.0, warmup=2.0, cache_capacity=None),
            WORKLOAD,
        )
        assert tight.hit_ratio < roomy.hit_ratio
        assert tight.cache_stats.capacity_evictions > 0
        assert roomy.cache_stats.capacity_evictions == 0

    def test_tight_capacity_lowers_inconsistency(self) -> None:
        """Churn doubles as crude staleness control (fewer long-lived
        entries), at the cost of backend load — the same trade as TTL."""
        tight = run_column(
            ColumnConfig(seed=6, duration=5.0, warmup=2.0, deplist_max=0,
                         cache_capacity=40),
            WORKLOAD,
        )
        roomy = run_column(
            ColumnConfig(seed=6, duration=5.0, warmup=2.0, deplist_max=0),
            WORKLOAD,
        )
        assert tight.counts.inconsistency_ratio <= roomy.counts.inconsistency_ratio
        assert tight.cache_stats.db_accesses > roomy.cache_stats.db_accesses


class TestMultiversionColumn:
    def test_multiversion_cuts_aborts_end_to_end(self) -> None:
        workload = ParetoClusterWorkload(n_objects=400, cluster_size=5, alpha=1.0)
        base = ColumnConfig(seed=9, duration=6.0, warmup=2.0, deplist_max=3)
        retry = run_column(
            ColumnConfig(seed=9, duration=6.0, warmup=2.0, deplist_max=3,
                         strategy=Strategy.RETRY),
            workload,
        )
        multi = run_column(
            ColumnConfig(seed=9, duration=6.0, warmup=2.0, deplist_max=3,
                         protocol="multiversion"),
            workload,
        )
        assert multi.counts.abort_ratio < retry.counts.abort_ratio
        assert multi.counts.committed > 0


class TestPruningPolicyColumn:
    @pytest.mark.slow
    def test_lru_beats_random_on_drift(self) -> None:
        from repro.workloads.synthetic import DriftingClusterWorkload

        workload = DriftingClusterWorkload(
            n_objects=500, cluster_size=5, shift_interval=8.0
        )
        results = {}
        for policy in ("lru", "random"):
            config = ColumnConfig(
                seed=12, duration=24.0, warmup=4.0, deplist_max=3,
                pruning_policy=policy,
            )
            results[policy] = run_column(config, workload)
        assert (
            results["lru"].detection_ratio
            > results["random"].detection_ratio + 0.1
        )
