"""Unit tests for the experiment modules' pure helpers and wiring."""

from __future__ import annotations

import pytest

from repro.core.strategies import Strategy
from repro.experiments import fig4_convergence, fig5_drift
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import realistic_workload, sampled_topology
from repro.experiments.runner import build_column
from repro.workloads.synthetic import PerfectClusterWorkload


class TestPhaseSummaries:
    def make_rows(self):
        rows = []
        for t in range(0, 50):
            if t < 25:
                rows.append({"time": float(t), "consistent_tps": 300.0,
                             "inconsistent_tps": 100.0, "aborted_tps": 10.0})
            else:
                rows.append({"time": float(t), "consistent_tps": 350.0,
                             "inconsistent_tps": 10.0, "aborted_tps": 80.0})
        return rows

    def test_means_split_at_switch(self) -> None:
        summaries = fig4_convergence.phase_summaries(self.make_rows(), switch_time=25.0)
        assert summaries["before"]["inconsistent_tps"] == pytest.approx(100.0)
        assert summaries["after"]["inconsistent_tps"] == pytest.approx(10.0)
        assert summaries["after"]["aborted_tps"] == pytest.approx(80.0)

    def test_transition_windows_excluded(self) -> None:
        rows = self.make_rows()
        # Poison the transition seconds; they must not affect the means.
        rows[24]["inconsistent_tps"] = 1e9
        rows[26]["inconsistent_tps"] = 1e9
        summaries = fig4_convergence.phase_summaries(rows, switch_time=25.0)
        assert summaries["before"]["inconsistent_tps"] < 1e6
        assert summaries["after"]["inconsistent_tps"] < 1e6

    def test_empty_selection_yields_zero(self) -> None:
        summaries = fig4_convergence.phase_summaries([], switch_time=25.0)
        assert summaries["before"]["consistent_tps"] == 0.0


class TestSpikeProfile:
    def test_post_shift_vs_settled(self) -> None:
        rows = []
        for t in range(60, 240, 5):
            phase = t % 60
            value = 3.0 if phase < 15 else 0.2
            rows.append({"time": float(t), "inconsistency_ratio_pct": value,
                         "aborted_tps": 0.0})
        profile = fig5_drift.shift_spike_profile(rows, 60.0, settle=15.0)
        assert profile["post_shift_mean_pct"] == pytest.approx(3.0)
        assert profile["settled_mean_pct"] == pytest.approx(0.2)

    def test_first_epoch_skipped(self) -> None:
        rows = [{"time": 5.0, "inconsistency_ratio_pct": 50.0, "aborted_tps": 0.0}]
        profile = fig5_drift.shift_spike_profile(rows, 60.0)
        assert profile["post_shift_mean_pct"] == 0.0


class TestRealisticCache:
    def test_topologies_are_cached_per_parameters(self) -> None:
        first = sampled_topology("amazon", sample_nodes=300)
        second = sampled_topology("amazon", sample_nodes=300)
        assert first is second

    def test_unknown_workload_rejected(self) -> None:
        with pytest.raises(ValueError):
            sampled_topology("facebook")

    def test_workload_txn_size_is_five(self) -> None:
        workload = realistic_workload("orkut", sample_nodes=300)
        assert workload.txn_size == 5


class TestRunnerWiring:
    def test_build_column_wires_everything(self) -> None:
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        config = ColumnConfig(seed=1, duration=1.0, warmup=0.0)
        column = build_column(config, workload)
        # The database knows the invalidation channel.
        assert column.channel in column.database._invalidation_channels
        # Monitor taps both streams (the cache side through the scenario
        # layer's source-tagging wrapper, so assert behaviourally).
        assert column.monitor.record_update in column.database._commit_listeners
        from repro.types import ReadOnlyTransactionRecord, TransactionOutcome

        record = ReadOnlyTransactionRecord(
            txn_id=999_999, outcome=TransactionOutcome.COMMITTED
        )
        before = column.monitor.summary.read_only.total
        for listener in column.cache._txn_listeners:
            listener(record)
        assert column.monitor.summary.read_only.total == before + 1
        # The wrapper tags the records with the (single) edge's name.
        assert set(column.monitor.source_summaries) == {"edge0"}
        # All keys are loaded.
        assert column.database.read_entry(workload.all_keys()[0]).version == 0

    @pytest.mark.parametrize(
        "protocol,expected",
        [
            pytest.param("tcache-detector", "TCache", id="CacheKind.TCACHE-TCache"),
            pytest.param("plain", "CacheServer", id="CacheKind.PLAIN-CacheServer"),
            pytest.param("ttl", "TTLCache", id="CacheKind.TTL-TTLCache"),
        ],
    )
    def test_cache_kind_selection(self, protocol, expected) -> None:
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        config = ColumnConfig(
            seed=1, duration=1.0, warmup=0.0, protocol=protocol,
            ttl=10.0 if protocol == "ttl" else None,
        )
        column = build_column(config, workload)
        assert type(column.cache).__name__ == expected

    def test_strategy_propagates(self) -> None:
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        config = ColumnConfig(seed=1, duration=1.0, warmup=0.0, strategy=Strategy.RETRY)
        column = build_column(config, workload)
        assert column.cache.strategy is Strategy.RETRY

    def test_separate_read_workload(self) -> None:
        updates = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        reads = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        config = ColumnConfig(seed=1, duration=1.0, warmup=0.0)
        column = build_column(config, updates, read_workload=reads)
        assert column.read_client._workload is reads
        assert column.update_client._workload is updates