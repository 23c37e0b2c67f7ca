"""Unit tests for the T-Cache server: detection wiring and the three
strategies (§III-B)."""

from __future__ import annotations

import sys

import pytest

from repro.core import tcache as tcache_module
from repro.core.strategies import Strategy
from repro.core.tcache import TCache
from repro.db.invalidation import InvalidationRecord
from repro.errors import InconsistencyDetected
from repro.types import (
    ReadResult,
    TransactionOutcome,
    VersionedValue,
    entries_from_pairs,
)
from tests.helpers import FakeBackend


@pytest.fixture
def backend() -> FakeBackend:
    return FakeBackend({"a": "a0", "b": "b0", "c": "c0"})


def make_cache(sim, backend, strategy=Strategy.ABORT) -> TCache:
    return TCache(sim, backend, strategy=strategy)


def stale_pair(cache: TCache, backend: FakeBackend) -> None:
    """Make the cache hold a stale 'a' while 'b' is fresh.

    One update transaction writes both; the invalidation for 'a' is lost,
    the one for 'b' arrives.
    """
    cache.read(100, "a", last_op=True)   # caches a@0
    committed = backend.commit(["a", "b"])
    cache.handle_invalidation(
        InvalidationRecord(key="b", version=committed.txn_id, txn_id=committed.txn_id,
                           commit_time=0.0)
    )


class TestDetection:
    def test_fresh_then_stale_raises_equation2(self, sim, backend) -> None:
        cache = make_cache(sim, backend)
        stale_pair(cache, backend)
        cache.read(1, "b")  # fresh b@1, deps demand a>=1
        with pytest.raises(InconsistencyDetected) as excinfo:
            cache.read(1, "a", last_op=True)  # stale a@0
        assert excinfo.value.stale_read_is_current is True
        assert excinfo.value.key == "a"
        assert cache.detections_eq2 == 1

    def test_stale_then_fresh_raises_equation1(self, sim, backend) -> None:
        cache = make_cache(sim, backend)
        stale_pair(cache, backend)
        cache.read(1, "a")  # stale a@0 returned to the client
        with pytest.raises(InconsistencyDetected) as excinfo:
            cache.read(1, "b", last_op=True)  # fresh b@1 proves a stale
        assert excinfo.value.stale_read_is_current is False
        assert cache.detections_eq1 == 1

    def test_consistent_transaction_commits(self, sim, backend) -> None:
        cache = make_cache(sim, backend)
        backend.commit(["a", "b"])
        cache.read(1, "a")
        cache.read(1, "b")
        result = cache.read(1, "c", last_op=True)
        assert result.version == 0
        assert cache.stats.transactions_committed == 1
        assert cache.detections == 0

    def test_aborted_transaction_record_includes_violating_read(self, sim, backend) -> None:
        cache = make_cache(sim, backend)
        records = []
        cache.add_transaction_listener(records.append)
        stale_pair(cache, backend)
        cache.read(1, "b")
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "a", last_op=True)
        record = records[-1]
        assert record.outcome is TransactionOutcome.ABORTED
        assert record.reads["a"] == 0  # the stale observation is evidence
        assert record.reads["b"] == 1

    def test_transaction_context_cleared_after_abort(self, sim, backend) -> None:
        cache = make_cache(sim, backend)
        stale_pair(cache, backend)
        cache.read(1, "b")
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "a", last_op=True)
        assert cache.open_transactions == 0
        # The same txn id starts a clean transaction afterwards.
        cache.read(1, "b", last_op=True)
        assert cache.stats.transactions_committed == 2  # setup txn + this one


class TestAbortStrategy:
    def test_abort_keeps_stale_entry_cached(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.ABORT)
        stale_pair(cache, backend)
        cache.read(1, "b")
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "a", last_op=True)
        # The stale entry remains: a future transaction hits it again.
        assert cache.storage.version_of("a") == 0
        assert cache.stats.strategy_evictions == 0


class TestEvictStrategy:
    def test_evict_removes_stale_current_read(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.EVICT)
        stale_pair(cache, backend)
        cache.read(1, "b")
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "a", last_op=True)
        assert "a" not in cache.storage
        assert cache.stats.strategy_evictions == 1
        # The next transaction reads fresh and commits.
        cache.read(2, "b")
        result = cache.read(2, "a", last_op=True)
        assert result.version == 1
        assert cache.stats.transactions_committed == 2  # setup txn + this one

    def test_evict_removes_stale_earlier_read(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.EVICT)
        stale_pair(cache, backend)
        cache.read(1, "a")
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "b", last_op=True)
        assert "a" not in cache.storage
        assert "b" in cache.storage  # the fresh entry stays


class TestRetryStrategy:
    def test_equation2_served_fresh_without_abort(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.RETRY)
        stale_pair(cache, backend)
        committed_before = cache.stats.transactions_committed
        cache.read(1, "b")
        result = cache.read(1, "a", last_op=True)  # read-through repairs
        assert result.version == 1
        assert result.retried is True
        assert cache.stats.transactions_committed == committed_before + 1
        assert cache.retries_resolved == 1
        assert cache.stats.retries == 1
        # The fresh value replaced the stale entry.
        assert cache.storage.version_of("a") == 1

    def test_equation1_still_aborts_and_evicts(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.RETRY)
        stale_pair(cache, backend)
        cache.read(1, "a")  # stale value already returned: unfixable
        with pytest.raises(InconsistencyDetected):
            cache.read(1, "b", last_op=True)
        assert "a" not in cache.storage
        assert cache.stats.transactions_aborted == 1

    def test_retry_counts_as_database_access(self, sim, backend) -> None:
        cache = make_cache(sim, backend, Strategy.RETRY)
        stale_pair(cache, backend)
        reads_before = backend.reads
        cache.read(1, "b")
        cache.read(1, "a", last_op=True)
        # One backend read for the retry (b was already cached? b is a miss
        # here, so expect retry + possible miss fetches).
        assert backend.reads > reads_before
        assert cache.stats.db_accesses >= 1

    def test_retry_then_equation1_on_fresh_deps(self, sim, backend) -> None:
        """The re-fetched value's dependency list can prove an *earlier*
        read stale; RETRY must then evict and abort."""
        cache = make_cache(sim, backend, Strategy.RETRY)
        # Cache c@0 and a@0; commit T1(a,c) lost for both, then T2(a,b).
        cache.read(100, "c", last_op=True)
        cache.read(101, "a", last_op=True)
        backend.commit(["a", "c"])   # version 1, both invalidations lost
        t2 = backend.commit(["a", "b"])  # version 2
        cache.handle_invalidation(
            InvalidationRecord(key="b", version=t2.txn_id, txn_id=t2.txn_id, commit_time=0.0)
        )
        cache.read(1, "c")   # stale c@0 returned
        # Fresh b@2 inherits (c, 1) through a@1's list: its dependency list
        # proves the earlier read of c stale -> Eq1 aborts; the read-through
        # repair is impossible because the stale value already reached the
        # client.
        with pytest.raises(InconsistencyDetected) as excinfo:
            cache.read(1, "b", last_op=True)
        assert excinfo.value.stale_read_is_current is False
        assert "c" not in cache.storage  # the repeat offender was evicted


class TestDetectionLimits:
    def test_bounded_lists_can_miss(self, sim) -> None:
        """With deplist_max=0 at the backend, nothing is ever detected."""
        backend = FakeBackend({"a": "a0", "b": "b0"}, deplist_max=0)
        cache = make_cache(sim, backend)
        cache.read(100, "a", last_op=True)
        backend.commit(["a", "b"])
        cache.read(1, "b")
        result = cache.read(1, "a", last_op=True)  # stale slips through
        assert result.version == 0
        assert cache.detections == 0
        assert cache.stats.transactions_committed == 2  # setup txn + this one


def python_frames_entered(function, *args):
    """``function(*args)`` and the qualified name of every Python function
    it entered (C calls are ``c_call`` events and do not count)."""
    entered: list[str] = []

    def profiler(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
    return result, entered


class TestHitFrameBudget:
    """What one cache hit costs, counted in Python frames: the tier-1
    stand-in for allocation counters the benchmark does not have yet."""

    DEPS = entries_from_pairs([(f"d{i}", 3) for i in range(5)])

    def _cache_with_open_transaction(self, sim, backend, **options) -> TCache:
        cache = TCache(sim, backend, **options)
        cache.storage.put(VersionedValue("x", "x7", 7, self.DEPS), sim.now)
        cache.read(1, "a")  # opens transaction 1 (no TTL, no capacity, untraced)
        return cache

    def test_a_hit_enters_three_python_functions(self, sim, backend) -> None:
        cache = self._cache_with_open_transaction(sim, backend)
        result, entered = python_frames_entered(cache.read, 1, "x")
        assert entered == ["CacheServer.read", "TCache._check_read", "check_read"]
        assert result == ReadResult("x", "x7", 7)
        assert cache.stats.hits == 1 and cache.detections == 0

    def test_deplist_limit_consults_that_many_entries(
        self, sim, backend, monkeypatch
    ) -> None:
        cache = self._cache_with_open_transaction(sim, backend, deplist_limit=2)
        consulted = []
        check_read = tcache_module.check_read

        def spy(context, key, version, deps):
            consulted.append(deps)
            return check_read(context, key, version, deps)

        monkeypatch.setattr(tcache_module, "check_read", spy)
        context = cache._open_txns[1].context
        cache.read(1, "x")
        assert consulted == [self.DEPS[:2]]
        # Only what was consulted is folded into the transaction's record.
        assert context.requirements == {
            "a": (0, "a"),
            "x": (7, "x"),
            "d0": (3, "x"),
            "d1": (3, "x"),
        }
        assert context.read_versions == {"a": 0, "x": 7}
        assert context.read_count == 2

    def test_read_result_is_the_same_named_tuple(self, sim, backend) -> None:
        cache = self._cache_with_open_transaction(sim, backend)
        hit = cache.read(1, "x")
        miss = cache.read(1, "b", last_op=True)
        assert type(hit) is ReadResult
        assert hit == ReadResult(
            key="x", value="x7", version=7, cache_miss=False, retried=False
        )
        assert miss == ReadResult(key="b", value="b0", version=0, cache_miss=True)
        assert (hit.key, hit.value, hit.version, hit.cache_miss, hit.retried) == (
            "x", "x7", 7, False, False,
        )
        assert hit._asdict() == {
            "key": "x", "value": "x7", "version": 7,
            "cache_miss": False, "retried": False,
        }
        assert hit._replace(retried=True) == ReadResult("x", "x7", 7, False, True)
