"""Unit tests for the consistency monitor and its statistics."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.monitor.monitor import ConsistencyMonitor
from repro.monitor.stats import ClassCounts, MonitorSummary, TimeSeries
from repro.sim.core import Simulator
from repro.types import (
    CommittedTransaction,
    ReadOnlyTransactionRecord,
    TransactionOutcome,
)


def update(version: int, keys: list[str], read_versions: dict) -> CommittedTransaction:
    return CommittedTransaction(
        txn_id=version, reads=read_versions, writes={k: version for k in keys}
    )


def read_only(
    txn_id: int,
    reads: dict,
    *,
    outcome: TransactionOutcome = TransactionOutcome.COMMITTED,
    time: float = 0.0,
    non_repeatable: bool = False,
) -> ReadOnlyTransactionRecord:
    return ReadOnlyTransactionRecord(
        txn_id=txn_id,
        reads=reads,
        outcome=outcome,
        finish_time=time,
        non_repeatable=non_repeatable,
    )


@pytest.fixture
def monitor(sim: Simulator) -> ConsistencyMonitor:
    monitor = ConsistencyMonitor(sim)
    monitor.record_update(update(1, ["a", "b"], {"a": 0, "b": 0}))
    return monitor


class TestClassification:
    def test_consistent_commit(self, monitor) -> None:
        monitor.record_read_only(read_only(1, {"a": 1, "b": 1}))
        assert monitor.summary.read_only.consistent == 1
        assert monitor.inconsistency_ratio == 0.0

    def test_inconsistent_commit(self, monitor) -> None:
        monitor.record_read_only(read_only(1, {"a": 0, "b": 1}))
        assert monitor.summary.read_only.inconsistent == 1
        assert monitor.inconsistency_ratio == 1.0
        assert len(monitor.inconsistency_witnesses) == 1

    def test_necessary_abort(self, monitor) -> None:
        monitor.record_read_only(
            read_only(1, {"a": 0, "b": 1}, outcome=TransactionOutcome.ABORTED)
        )
        assert monitor.summary.read_only.aborted_necessary == 1
        assert monitor.detection_ratio == 1.0

    def test_unnecessary_abort(self, monitor) -> None:
        monitor.record_read_only(
            read_only(1, {"a": 1, "b": 1}, outcome=TransactionOutcome.ABORTED)
        )
        assert monitor.summary.read_only.aborted_unnecessary == 1
        assert monitor.abort_ratio == 1.0

    def test_non_repeatable_always_inconsistent(self, monitor) -> None:
        monitor.record_read_only(read_only(1, {"a": 1}, non_repeatable=True))
        assert monitor.summary.read_only.inconsistent == 1
        assert monitor.summary.non_repeatable == 1

    def test_detection_ratio_mixes_detected_and_missed(self, monitor) -> None:
        monitor.record_read_only(read_only(1, {"a": 0, "b": 1}))  # missed
        monitor.record_read_only(
            read_only(2, {"a": 0, "b": 1}, outcome=TransactionOutcome.ABORTED)
        )  # detected
        monitor.record_read_only(read_only(3, {"a": 1, "b": 1}))  # consistent
        assert monitor.detection_ratio == pytest.approx(0.5)
        assert monitor.inconsistency_ratio == pytest.approx(0.5)

    def test_update_commits_counted(self, monitor) -> None:
        assert monitor.summary.update_commits == 1


class TestBackendNamespaces:
    def test_first_bound_backend_shares_the_default_tester(self, sim) -> None:
        monitor = ConsistencyMonitor(sim)
        tester = monitor.bind_backend("db")
        assert tester is monitor.tester
        assert monitor.tester.namespace == "db"
        # Untagged (legacy) updates and "db"-tagged reads meet in one graph.
        monitor.record_update(update(1, ["a", "b"], {"a": 0, "b": 0}))
        monitor.record_read_only(read_only(1, {"a": 0, "b": 1}), backend="db")
        assert monitor.summary.read_only.inconsistent == 1

    def test_later_backends_get_independent_graphs(self, sim) -> None:
        monitor = ConsistencyMonitor(sim)
        monitor.bind_backend("eu")
        monitor.bind_backend("us")
        assert monitor.backend_namespaces == ["eu", "us"]
        assert monitor.tester_for("us") is not monitor.tester_for("eu")
        # Both backends commit their own txn 1 — no "recorded twice" clash,
        # the (backend, version) keying keeps the histories apart.
        monitor.record_update(update(1, ["a", "b"], {"a": 0, "b": 0}), backend="eu")
        monitor.record_update(update(1, ["a"], {"a": 0}), backend="us")
        # (a@0, b@1) is stale on eu's history...
        monitor.record_read_only(read_only(1, {"a": 0, "b": 1}), backend="eu")
        # ...while the same version pattern on us — whose txn 1 wrote only a
        # — is a different, consistent observation (b@0 is the initial load).
        monitor.record_read_only(read_only(2, {"a": 1, "b": 0}), backend="us")
        assert monitor.summary.read_only.inconsistent == 1
        assert monitor.summary.read_only.consistent == 1
        assert monitor.backend_summaries["eu"].read_only.inconsistent == 1
        assert monitor.backend_summaries["us"].read_only.consistent == 1

    def test_per_backend_views_sum_to_fleet(self, sim) -> None:
        monitor = ConsistencyMonitor(sim)
        for backend in ("eu", "us"):
            monitor.bind_backend(backend)
            monitor.record_update(
                update(1, ["a", "b"], {"a": 0, "b": 0}), backend=backend
            )
        monitor.record_read_only(read_only(1, {"a": 1, "b": 1}), backend="eu")
        monitor.record_read_only(read_only(2, {"a": 0, "b": 1}), backend="us")
        monitor.record_read_only(read_only(3, {"a": 1}), backend="us")
        total = monitor.summary.read_only.total
        assert total == 3
        assert total == sum(
            summary.read_only.total
            for summary in monitor.backend_summaries.values()
        )
        assert set(monitor.backend_series) == {"eu", "us"}

    def test_unknown_namespace_rejected_instead_of_lazily_created(
        self, sim
    ) -> None:
        """A typo'd backend tag must not classify against an empty history
        (which would report everything as consistent)."""
        from repro.errors import SimulationError

        monitor = ConsistencyMonitor(sim)
        monitor.bind_backend("eu")
        monitor.record_update(update(1, ["a"], {"a": 0}), backend="eu")
        with pytest.raises(SimulationError, match="unknown backend"):
            monitor.record_read_only(read_only(1, {"a": 0}), backend="eu-db")
        with pytest.raises(SimulationError, match="unknown backend"):
            monitor.record_update(update(2, ["a"], {"a": 1}), backend="us")

    def test_source_and_backend_tags_compose(self, sim) -> None:
        monitor = ConsistencyMonitor(sim)
        monitor.bind_backend("eu")
        monitor.record_update(update(1, ["a"], {"a": 0}), backend="eu")
        monitor.record_read_only(
            read_only(1, {"a": 1}), source="edge0", backend="eu"
        )
        assert monitor.source_summaries["edge0"].read_only.consistent == 1
        assert monitor.backend_summaries["eu"].read_only.consistent == 1


class SeedMonitor(ConsistencyMonitor):
    """``record_read_only`` as it was before the views were bound once per
    tag pair (tracing left out): the reference the bound form must match."""

    def record_read_only(self, record, source=None, backend=None) -> None:
        consistent = (not record.non_repeatable) and self.tester_for(
            backend
        ).is_consistent(record.reads)
        if record.non_repeatable:
            self.summary.non_repeatable += 1
        if record.outcome is TransactionOutcome.COMMITTED:
            label = "consistent" if consistent else "inconsistent"
            witnesses = self.inconsistency_witnesses
            if not consistent and len(witnesses) < self._witness_limit:
                witnesses.append(record)
        else:
            label = "aborted_unnecessary" if consistent else "aborted_necessary"
        self.summary.read_only.add(label)
        self.series.record(record.finish_time, label)
        if source is not None:
            self._record_tagged(
                self.source_summaries, self.source_series, source, record, label
            )
        if backend is not None:
            self._record_tagged(
                self.backend_summaries, self.backend_series, backend, record, label
            )

    def _record_tagged(self, summaries, series, tag, record, label) -> None:
        summary = summaries.get(tag)
        if summary is None:
            summary = summaries[tag] = MonitorSummary()
            series[tag] = TimeSeries(window=self.series.window)
        if record.non_repeatable:
            summary.non_repeatable += 1
        summary.read_only.add(label)
        series[tag].record(record.finish_time, label)


def views_of(monitor: ConsistencyMonitor) -> dict:
    def series(one: TimeSeries):
        return one.window, one.buckets()

    return {
        "summary": monitor.summary,
        "series": series(monitor.series),
        "source_summaries": monitor.source_summaries,
        "source_series": {k: series(v) for k, v in monitor.source_series.items()},
        "backend_summaries": monitor.backend_summaries,
        "backend_series": {k: series(v) for k, v in monitor.backend_series.items()},
        "witnesses": [record.txn_id for record in monitor.inconsistency_witnesses],
    }


class TestTaggedViewsMatchTheSeedImplementation:
    SOURCES = (None, "edge0", "edge1", "never-finishes-anything")
    BACKENDS = (None, "eu", "us")

    def _pair(self, window: float):
        monitors = []
        for cls in (ConsistencyMonitor, SeedMonitor):
            monitor = cls(Simulator(), window=window)
            for backend in ("eu", "us"):
                monitor.bind_backend(backend)
                monitor.record_update(update(1, ["a", "b"], {"a": 0, "b": 0}), backend)
            monitors.append(monitor)
        return monitors

    @pytest.mark.parametrize("window", [1.0, 0.25, 3.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_mix_of_outcomes_flags_and_times(self, seed, window) -> None:
        rng = random.Random(seed)
        bound, seed_monitor = self._pair(window)
        recorded_sources, recorded_backends = set(), set()
        for txn_id in range(1, 301):
            record = dict(
                reads={"a": rng.choice((0, 1)), "b": rng.choice((0, 1))},
                outcome=rng.choice(list(TransactionOutcome)),
                time=rng.uniform(0.0, 20.0),
                non_repeatable=rng.random() < 0.1,
            )
            source = rng.choice(self.SOURCES[:3])
            backend = rng.choice(self.BACKENDS)
            recorded_sources.add(source)
            recorded_backends.add(backend)
            for monitor in (bound, seed_monitor):
                monitor.record_read_only(
                    read_only(txn_id, **record), source=source, backend=backend
                )
            assert views_of(bound) == views_of(seed_monitor)
        # A tag has a summary and a series exactly when it classified something.
        assert set(bound.source_summaries) == recorded_sources - {None}
        assert set(bound.source_series) == recorded_sources - {None}
        assert set(bound.backend_summaries) == recorded_backends - {None}
        assert "never-finishes-anything" not in bound.source_summaries
        assert bound.summary.read_only.total == 300

    def test_window_other_than_one_buckets_by_window(self, sim) -> None:
        monitor = ConsistencyMonitor(sim, window=0.25)
        monitor.bind_backend("eu")
        for txn_id, time in enumerate((0.1, 0.26, 0.49, 0.5, 7.3), start=1):
            monitor.record_read_only(
                read_only(txn_id, {}, time=time), source="edge0", backend="eu"
            )
        expected = [(0.0, 1), (0.25, 2), (0.5, 1), (7.25, 1)]
        for series in (
            monitor.series,
            monitor.source_series["edge0"],
            monitor.backend_series["eu"],
        ):
            assert series.window == 0.25
            assert [(start, c.consistent) for start, c in series.buckets()] == expected

    def test_unknown_backend_raises_and_leaves_no_view(self, sim) -> None:
        monitor = ConsistencyMonitor(sim)
        monitor.bind_backend("eu")
        for _ in range(2):  # not cached either: it raises every time
            with pytest.raises(SimulationError, match="unknown backend namespace"):
                monitor.record_read_only(
                    read_only(1, {}), source="edge0", backend="typo"
                )
        assert monitor.summary.read_only.total == 0
        assert monitor.source_summaries == {} and monitor.backend_summaries == {}
        assert monitor.source_series == {} and monitor.backend_series == {}
        # Binding the name later makes the same tag pair valid.
        monitor.bind_backend("typo")
        monitor.record_read_only(read_only(1, {}), source="edge0", backend="typo")
        assert monitor.backend_summaries["typo"].read_only.consistent == 1


class TestSeries:
    def test_records_land_in_time_windows(self, sim) -> None:
        monitor = ConsistencyMonitor(sim, window=1.0)
        monitor.record_update(update(1, ["a", "b"], {"a": 0, "b": 0}))
        monitor.record_read_only(read_only(1, {"a": 1}, time=0.5))
        monitor.record_read_only(read_only(2, {"a": 1}, time=1.5))
        monitor.record_read_only(read_only(3, {"a": 0, "b": 1}, time=1.7))
        buckets = monitor.series.buckets()
        assert [start for start, _ in buckets] == [0.0, 1.0]
        assert buckets[1][1].committed == 2
        assert buckets[1][1].inconsistent == 1


class TestClassCounts:
    def test_derived_ratios(self) -> None:
        counts = ClassCounts(
            consistent=60, inconsistent=20, aborted_necessary=15, aborted_unnecessary=5
        )
        assert counts.committed == 80
        assert counts.aborted == 20
        assert counts.total == 100
        assert counts.inconsistency_ratio == pytest.approx(0.25)
        assert counts.abort_ratio == pytest.approx(0.20)
        assert counts.detection_ratio == pytest.approx(15 / 35)

    def test_empty_ratios_are_zero(self) -> None:
        counts = ClassCounts()
        assert counts.inconsistency_ratio == 0.0
        assert counts.abort_ratio == 0.0
        assert counts.detection_ratio == 0.0

    def test_as_dict(self) -> None:
        counts = ClassCounts(consistent=1)
        assert counts.as_dict()["consistent"] == 1


class TestTimeSeries:
    def test_rates_normalise_by_window(self) -> None:
        series = TimeSeries(window=2.0)
        for time in (0.1, 0.5, 1.9):
            series.record(time, "consistent")
        rows = series.rates()
        assert len(rows) == 1
        assert rows[0]["consistent"] == pytest.approx(1.5)  # 3 txns / 2 s

    def test_bucket_lookup_missing_is_empty(self) -> None:
        series = TimeSeries()
        assert series.bucket(42).total == 0
