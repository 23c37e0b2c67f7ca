"""Unit tests for the open-loop update and read-only clients."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.clients.read_client import ReadOnlyClient
from repro.clients.update_client import UpdateClient
from repro.core.strategies import Strategy
from repro.core.tcache import TCache
from repro.db.database import Database, DatabaseConfig, TimingConfig
from repro.sim.core import Simulator
from repro.workloads.synthetic import PerfectClusterWorkload, UniformWorkload
from tests.helpers import FakeBackend


@pytest.fixture
def db(sim: Simulator) -> Database:
    database = Database(
        sim, DatabaseConfig(deplist_max=5, timing=TimingConfig(0.0, 0.001, 0.0, 0.0))
    )
    workload = UniformWorkload(n_objects=50)
    database.load({key: 0 for key in workload.all_keys()})
    return database


class TestUpdateClient:
    def test_rate_is_respected(self, sim, db) -> None:
        workload = UniformWorkload(n_objects=50)
        client = UpdateClient(
            sim, db, workload, rate=100.0, rng=np.random.default_rng(1), poisson=False
        )
        sim.run(until=1.0)
        # Open loop at 100 txn/s for 1 s.
        assert client.stats.launched == pytest.approx(100, abs=2)
        assert client.stats.committed > 90

    def test_poisson_arrivals_average_to_rate(self, sim, db) -> None:
        workload = UniformWorkload(n_objects=50)
        client = UpdateClient(
            sim, db, workload, rate=200.0, rng=np.random.default_rng(2)
        )
        sim.run(until=2.0)
        assert client.stats.launched == pytest.approx(400, rel=0.15)

    def test_updates_actually_write(self, sim, db) -> None:
        workload = UniformWorkload(n_objects=50)
        UpdateClient(sim, db, workload, rate=50.0, rng=np.random.default_rng(3))
        sim.run(until=1.0)
        versions = [
            db.read_entry(key).version for key in workload.all_keys()
        ]
        assert max(versions) > 0

    def test_commit_accounting_is_consistent(self, sim, db) -> None:
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        client = UpdateClient(
            sim, db, workload, rate=300.0, rng=np.random.default_rng(4)
        )
        sim.run(until=1.5)  # bounded drain: client processes never exit
        stats = client.stats
        assert stats.committed + stats.aborted - stats.retries <= stats.launched
        assert stats.committed == db.stats.committed


class TestReadOnlyClient:
    def make_cache(self, sim, db) -> TCache:
        return TCache(sim, db, strategy=Strategy.ABORT)

    def test_rate_and_commits(self, sim, db) -> None:
        workload = UniformWorkload(n_objects=50)
        cache = self.make_cache(sim, db)
        client = ReadOnlyClient(
            sim,
            cache,
            workload,
            rate=100.0,
            rng=np.random.default_rng(5),
            txn_ids=itertools.count(1),
            poisson=False,
        )
        sim.run(until=1.0)
        assert client.stats.launched == pytest.approx(100, abs=2)
        assert client.stats.committed == cache.stats.transactions_committed
        assert client.stats.reads > 400

    def test_aborts_are_counted(self, sim) -> None:
        backend = FakeBackend({"a": "a0", "b": "b0"})
        cache = TCache(sim, backend, strategy=Strategy.ABORT)
        # Poison the cache: stale a, fresh b from the same update.
        cache.read(999, "a", last_op=True)
        backend.commit(["a", "b"])
        cache.storage.evict("b")

        class PairWorkload:
            def access_set(self, rng, now):
                return ["b", "a"]

            def all_keys(self):
                return ["a", "b"]

        client = ReadOnlyClient(
            sim,
            cache,
            PairWorkload(),
            rate=10.0,
            rng=np.random.default_rng(6),
            txn_ids=itertools.count(1),
            read_gap=0.0,
            poisson=False,
        )
        sim.run(until=0.35)
        assert client.stats.aborted >= 1

    def test_retry_aborted_reads(self, sim) -> None:
        backend = FakeBackend({"a": "a0", "b": "b0"})
        cache = TCache(sim, backend, strategy=Strategy.EVICT)
        cache.read(999, "a", last_op=True)
        backend.commit(["a", "b"])
        cache.storage.evict("b")

        class PairWorkload:
            def access_set(self, rng, now):
                return ["b", "a"]

            def all_keys(self):
                return ["a", "b"]

        client = ReadOnlyClient(
            sim,
            cache,
            PairWorkload(),
            rate=10.0,
            rng=np.random.default_rng(7),
            txn_ids=itertools.count(1),
            read_gap=0.0,
            poisson=False,
            retry_aborted=True,
        )
        sim.run(until=0.25)
        # EVICT removed the stale entry, so the retry commits.
        assert client.stats.retried_transactions >= 1
        assert client.stats.committed >= 1

    def test_retry_accounting_counts_logical_transactions_once(self, sim) -> None:
        """A retried transaction launches once; retries show up in attempts.

        Regression test: launches used to be re-counted per attempt, so
        ``committed + aborted`` could exceed ``launched``.
        """
        backend = FakeBackend({"a": "a0", "b": "b0"})
        cache = TCache(sim, backend, strategy=Strategy.EVICT)
        cache.read(999, "a", last_op=True)
        backend.commit(["a", "b"])
        cache.storage.evict("b")

        class PairWorkload:
            def access_set(self, rng, now):
                return ["b", "a"]

            def all_keys(self):
                return ["a", "b"]

        client = ReadOnlyClient(
            sim,
            cache,
            PairWorkload(),
            rate=10.0,
            rng=np.random.default_rng(9),
            txn_ids=itertools.count(1),
            read_gap=0.0,
            poisson=False,
            retry_aborted=True,
        )
        sim.run(until=0.55)
        stats = client.stats
        assert stats.retried_transactions >= 1
        assert stats.attempts == stats.launched + stats.retried_transactions
        assert stats.committed + stats.aborted <= stats.launched
        assert stats.attempts > stats.launched

    def test_aborted_counts_only_exhausted_transactions(self, sim) -> None:
        """With retries disabled every abort is final: the legacy equality
        ``committed + aborted == launched`` (for finished transactions) and
        ``attempts == launched`` still hold."""
        backend = FakeBackend({"a": "a0", "b": "b0"})
        cache = TCache(sim, backend, strategy=Strategy.ABORT)
        cache.read(999, "a", last_op=True)
        backend.commit(["a", "b"])
        cache.storage.evict("b")

        class PairWorkload:
            def access_set(self, rng, now):
                return ["b", "a"]

            def all_keys(self):
                return ["a", "b"]

        client = ReadOnlyClient(
            sim,
            cache,
            PairWorkload(),
            rate=10.0,
            rng=np.random.default_rng(10),
            txn_ids=itertools.count(1),
            read_gap=0.0,
            poisson=False,
        )
        sim.run(until=0.55)
        stats = client.stats
        assert stats.aborted >= 1
        assert stats.attempts == stats.launched
        assert stats.committed + stats.aborted == stats.launched

    def test_txn_ids_are_unique(self, sim, db) -> None:
        workload = UniformWorkload(n_objects=50)
        cache = self.make_cache(sim, db)
        ids = itertools.count(100)
        records = []
        cache.add_transaction_listener(records.append)
        ReadOnlyClient(
            sim, cache, workload, rate=50.0, rng=np.random.default_rng(8),
            txn_ids=ids, poisson=False,
        )
        sim.run(until=1.2)
        seen = [record.txn_id for record in records]
        assert len(seen) == len(set(seen))


class TestAccessSetIsLookedUpPerCall:
    def test_class_patch_after_construction_reaches_both_clients(
        self, sim, db, monkeypatch
    ) -> None:
        """``perf/spans.py`` swaps ``access_set`` on the class per unit, after
        the clients exist: a bound method hoisted at construction would make
        the traced run miss every call."""
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        reader = ReadOnlyClient(
            sim,
            TCache(sim, db, strategy=Strategy.ABORT),
            workload,
            rate=100.0,
            rng=np.random.default_rng(5),
            txn_ids=itertools.count(1),
            poisson=False,
        )
        updater = UpdateClient(
            sim, db, workload, rate=100.0, rng=np.random.default_rng(6), poisson=False
        )
        original = PerfectClusterWorkload.access_set
        seen = []

        def spanned(self, rng, now):
            seen.append(rng)
            return original(self, rng, now)

        monkeypatch.setattr(PerfectClusterWorkload, "access_set", spanned)
        sim.run(until=0.1)
        by_reader = sum(rng is reader._rng for rng in seen)
        by_updater = sum(rng is updater._rng for rng in seen)
        assert by_reader == reader.stats.launched > 0
        # An update client counts every retry as a launch; access sets are
        # drawn once per logical transaction.
        assert by_updater == updater.stats.launched - updater.stats.retries > 0
        assert by_reader + by_updater == len(seen)
