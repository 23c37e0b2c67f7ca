"""Integration tests: the full experimental column of Figure 2."""

from __future__ import annotations

import gc

import pytest

from repro.core.deplist import UNBOUNDED
from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import build_column, run_column
from repro.workloads.synthetic import PerfectClusterWorkload, UniformWorkload

WORKLOAD = PerfectClusterWorkload(n_objects=200, cluster_size=5)


def quick_config(**overrides) -> ColumnConfig:
    defaults = dict(seed=42, duration=6.0, warmup=2.0)
    defaults.update(overrides)
    return ColumnConfig(**defaults)


class TestEndToEnd:
    def test_column_runs_and_produces_traffic(self) -> None:
        result = run_column(quick_config(), WORKLOAD)
        assert result.counts.total > 1000
        assert result.db_stats.committed > 300
        assert result.channel_stats.sent > 1000
        assert result.cache_stats.reads > 5000

    def test_invalidation_loss_matches_configuration(self) -> None:
        result = run_column(quick_config(invalidation_loss=0.2), WORKLOAD)
        assert result.channel_stats.loss_ratio == pytest.approx(0.2, abs=0.03)

    def test_no_loss_no_latency_yields_few_inconsistencies(self) -> None:
        result = run_column(
            quick_config(invalidation_loss=0.0, invalidation_latency_mean=0.0001),
            WORKLOAD,
        )
        # Tiny staleness windows remain (commit -> invalidation delivery),
        # but inconsistency should be an order of magnitude below the lossy
        # setting's.
        lossy = run_column(quick_config(deplist_max=0), WORKLOAD)
        clean_ratio = result.counts.inconsistency_ratio
        assert clean_ratio < lossy.counts.inconsistency_ratio / 3

    def test_total_loss_freezes_a_stale_snapshot(self) -> None:
        """With every invalidation dropped the cache freezes at first-read
        versions — an *old* snapshot. Mixed first-read times still leave a
        solid inconsistency floor, but far below the lossy-and-repaired
        regime because a frozen snapshot is mostly internally consistent."""
        result = run_column(
            quick_config(invalidation_loss=1.0, deplist_max=0), WORKLOAD
        )
        assert result.counts.inconsistency_ratio > 0.05
        assert result.cache_stats.invalidations_received == 0
        # Every cached object is behind the database.
        assert result.counts.inconsistent > 0

    def test_perfect_clustering_with_k5_detects_everything(self) -> None:
        """The §V-A claim: with stable clusters matching the dependency
        list bound, detection converges to perfect."""
        result = run_column(quick_config(deplist_max=5), WORKLOAD)
        assert result.counts.inconsistent == 0
        assert result.counts.aborted_necessary > 0

    def test_unbounded_lists_commit_no_inconsistency(self) -> None:
        result = run_column(quick_config(deplist_max=UNBOUNDED), UniformWorkload(150))
        assert result.counts.inconsistent == 0

    def test_deplist_zero_disables_dependency_detection(self) -> None:
        """Without stored dependencies only *direct* violations remain
        detectable: re-reading a key the transaction already read at a
        different version. All cross-object inconsistencies slip through."""
        result = run_column(quick_config(deplist_max=0), WORKLOAD)
        with_deps = run_column(quick_config(deplist_max=5), WORKLOAD)
        assert result.detections_eq2 == 0  # Eq. 2 needs dependency entries
        assert result.counts.inconsistent > 0
        detections = result.detections_eq1 + result.detections_eq2
        assert detections < (with_deps.detections_eq1 + with_deps.detections_eq2) / 5

    def test_determinism_same_seed_same_counts(self) -> None:
        first = run_column(quick_config(), WORKLOAD)
        second = run_column(quick_config(), WORKLOAD)
        assert first.counts.as_dict() == second.counts.as_dict()
        assert first.cache_stats.reads == second.cache_stats.reads
        assert first.db_stats.committed == second.db_stats.committed

    def test_different_seeds_differ(self) -> None:
        first = run_column(quick_config(seed=1), WORKLOAD)
        second = run_column(quick_config(seed=2), WORKLOAD)
        assert first.cache_stats.reads != second.cache_stats.reads


class TestCacheKinds:
    def test_plain_cache_never_aborts(self) -> None:
        result = run_column(quick_config(protocol="plain"), WORKLOAD)
        assert result.counts.aborted == 0
        assert result.counts.inconsistent > 0

    def test_ttl_cache_reduces_staleness_at_db_cost(self) -> None:
        plain = run_column(quick_config(protocol="plain"), WORKLOAD)
        ttl = run_column(
            quick_config(protocol="ttl", ttl=0.5), WORKLOAD
        )
        assert ttl.counts.inconsistency_ratio < plain.counts.inconsistency_ratio
        assert ttl.cache_stats.db_accesses > plain.cache_stats.db_accesses
        assert ttl.hit_ratio < plain.hit_ratio

    def test_tcache_dominates_ttl(self) -> None:
        """The paper's headline comparison: T-Cache achieves a better
        inconsistency/DB-load trade-off than any TTL."""
        tcache = run_column(
            quick_config(deplist_max=5, strategy=Strategy.RETRY), WORKLOAD
        )
        ttl = run_column(quick_config(protocol="ttl", ttl=0.5), WORKLOAD)
        assert tcache.counts.inconsistency_ratio < ttl.counts.inconsistency_ratio
        assert tcache.cache_stats.db_accesses < ttl.cache_stats.db_accesses


class TestMonitorAgreement:
    def test_monitor_counts_match_client_counts(self) -> None:
        column = build_column(quick_config(), WORKLOAD)
        column.sim.run(until=column.config.total_time)
        monitor_counts = column.monitor.summary.read_only
        assert monitor_counts.committed == column.cache.stats.transactions_committed
        assert monitor_counts.aborted == column.cache.stats.transactions_aborted
        assert column.monitor.summary.update_commits == column.database.stats.committed

    def test_update_history_is_a_dag(self) -> None:
        column = build_column(quick_config(duration=4.0), WORKLOAD)
        column.sim.run(until=column.config.total_time)
        tester = column.monitor.tester
        assert tester.verify_update_dag()
        # The backend publishes commits in version order; a producer that
        # stops doing so costs the tester O(history) per query.
        assert tester.update_count > 300
        assert tester.reordered_count == 0

    def test_cache_versions_never_exceed_database(self) -> None:
        column = build_column(quick_config(duration=4.0), WORKLOAD)
        column.sim.run(until=column.config.total_time)
        database = column.database
        for key in WORKLOAD.all_keys():
            cached = column.cache.storage.version_of(key)
            if cached is not None:
                assert cached <= database.current_version_of(key)


class TestTwoCaches:
    def test_independent_caches_share_one_database(self) -> None:
        """Cache-serializability is per cache server; two caches coexist
        against one backend (§IV: each cache has its own clients)."""
        import itertools

        from repro.clients.read_client import ReadOnlyClient
        from repro.core.tcache import TCache
        from repro.monitor.monitor import ConsistencyMonitor
        from repro.sim.channel import Channel
        from repro.sim.rng import RngStreams

        column = build_column(quick_config(duration=4.0), WORKLOAD)
        streams = RngStreams(999)
        second_cache = TCache(column.sim, column.database, name="edge-2")
        channel = Channel(
            column.sim,
            second_cache.handle_invalidation,
            latency=0.02,
            loss_probability=0.2,
            rng=streams.stream("second-channel"),
        )
        column.database.register_invalidation_channel(channel)
        second_monitor = ConsistencyMonitor(column.sim)
        column.database.add_commit_listener(second_monitor.record_update)
        second_cache.add_transaction_listener(second_monitor.record_read_only)
        ReadOnlyClient(
            column.sim,
            second_cache,
            WORKLOAD,
            rate=200.0,
            rng=streams.stream("second-client"),
            txn_ids=itertools.count(10_000_000),
        )
        column.sim.run(until=column.config.total_time)
        assert second_cache.stats.transactions_committed > 100
        assert column.cache.stats.transactions_committed > 100
        # Both monitors observed a serializable update history.
        assert second_monitor.tester.verify_update_dag()


class TestCollectorHasNothingToDo:
    """A run leaves nothing only the cyclic collector can free: a process
    per transaction, each dead by the end, none of them a reference cycle."""

    @staticmethod
    def _unreachable_after_run(**rates) -> tuple[int, int]:
        config = quick_config(duration=1.5, warmup=0.5, **rates)
        gc.collect()
        gc.disable()
        try:
            column = build_column(config, WORKLOAD)
            column.sim.run(until=config.total_time)
            finished = (
                column.cache.stats.transactions_committed
                + column.database.stats.committed
            )
            # ``column`` (the result's whole object graph) is still referenced.
            return gc.collect(), finished
        finally:
            gc.enable()

    def test_read_heavy_column(self) -> None:
        unreachable, finished = self._unreachable_after_run(
            read_rate=500.0, update_rate=100.0
        )
        assert finished > 500
        assert unreachable == 0

    def test_write_heavy_column(self) -> None:
        unreachable, finished = self._unreachable_after_run(
            read_rate=100.0, update_rate=600.0
        )
        assert finished > 500
        # What remains is tracebacks of wounded transactions: the exception a
        # waiter is failed with holds the frames it passed through.
        assert unreachable <= 100
