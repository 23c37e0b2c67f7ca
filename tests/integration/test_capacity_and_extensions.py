"""Integration tests: capacity-bounded caches.

The §VI multiversion and §V-A3 pruning-policy claims are rows of
``benchmarks/test_claims.py`` (``extension-multiversion-fewer-aborts``,
``ablation-lru-beats-random``), checked on the paper-scale sweeps.
"""

from __future__ import annotations

from repro.core.deplist import UNBOUNDED
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import run_column
from repro.workloads.synthetic import PerfectClusterWorkload

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
