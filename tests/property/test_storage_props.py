"""Property-based tests: cache storage and staleness-probe invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheServer, CacheStorage
from repro.db.invalidation import InvalidationRecord
from repro.monitor.analysis import StalenessProbe
from repro.sim.core import Simulator
from repro.types import CommittedTransaction, ReadOnlyTransactionRecord, VersionedValue
from tests.helpers import FakeBackend

KEYS = ["a", "b", "c"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 20)),
        st.tuples(st.just("invalidate"), st.sampled_from(KEYS), st.integers(0, 20)),
        st.tuples(st.just("evict"), st.sampled_from(KEYS), st.just(0)),
        st.tuples(st.just("get"), st.sampled_from(KEYS), st.just(0)),
    ),
    max_size=30,
)


def apply_ops(storage: CacheStorage, ops) -> dict[str, int]:
    """Run operations; return the highest version ever put per key."""
    highest: dict[str, int] = {}
    for op, key, version in ops:
        if op == "put":
            storage.put(VersionedValue(key=key, value=version, version=version), now=0.0)
            highest[key] = max(highest.get(key, -1), version)
        elif op == "invalidate":
            storage.invalidate(key, version)
        elif op == "evict":
            storage.evict(key)
        else:
            storage.get(key, now=0.0)
    return highest


class TestStorageInvariants:
    @given(operations)
    @settings(max_examples=300, deadline=None)
    def test_versions_never_regress_in_place(self, ops) -> None:
        """A *resident* entry's version never moves backwards: puts of older
        versions are ignored. (Across an eviction the slate is clean — in
        the real system the re-fetch comes from the database, whose versions
        only grow, so the end-to-end invariant is stronger; see the
        integration suite.)"""
        storage = CacheStorage()
        last_seen: dict[str, int] = {}
        for op, key, version in ops:
            if op == "put":
                storage.put(
                    VersionedValue(key=key, value=version, version=version), now=0.0
                )
            elif op == "invalidate":
                storage.invalidate(key, version)
            elif op == "evict":
                storage.evict(key)
            current = storage.version_of(key)
            if current is None:
                last_seen.pop(key, None)  # removal resets the constraint
            else:
                assert current >= last_seen.get(key, -1)
                last_seen[key] = current

    @given(operations)
    @settings(max_examples=200, deadline=None)
    def test_cached_version_is_a_version_that_was_put(self, ops) -> None:
        storage = CacheStorage()
        put_versions: dict[str, set[int]] = {}
        for op, key, version in ops:
            if op == "put":
                storage.put(
                    VersionedValue(key=key, value=version, version=version), now=0.0
                )
                put_versions.setdefault(key, set()).add(version)
            elif op == "invalidate":
                storage.invalidate(key, version)
            elif op == "evict":
                storage.evict(key)
        for key in KEYS:
            current = storage.version_of(key)
            if current is not None:
                assert current in put_versions.get(key, set())

    @given(operations)
    @settings(max_examples=200, deadline=None)
    def test_invalidate_semantics(self, ops) -> None:
        """After invalidate(key, v): the entry is either gone or >= v."""
        storage = CacheStorage()
        apply_ops(storage, ops)
        for key in KEYS:
            before = storage.version_of(key)
            applied = storage.invalidate(key, 10)
            after = storage.version_of(key)
            if applied:
                assert before is not None and before < 10
                assert after is None
            else:
                assert after == before
                if after is not None:
                    assert after >= 10


SERVER_KEYS = [f"k{i}" for i in range(7)]

server_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.4, 1.0, 2.5])),
        st.tuples(st.just("read"), st.sampled_from(SERVER_KEYS)),
        st.tuples(st.just("invalidate"), st.sampled_from(SERVER_KEYS)),
        st.tuples(st.just("update"), st.sampled_from(SERVER_KEYS)),
    ),
    max_size=40,
)


COMPARED_COUNTERS = (
    "reads",
    "hits",
    "misses",
    "ttl_expirations",
    "capacity_evictions",
)


def read_through_storage_get(server: CacheServer, key: str) -> bool:
    """What ``CacheServer.read`` inlines, written with ``CacheStorage.get``;
    returns whether the read missed."""
    server.stats.reads += 1
    entry = server.storage.get(key, server._sim.now)
    if entry is None:
        server._fetch(key)
        return True
    server.stats.hits += 1
    return False


class TestReadInlinesStorageGet:
    """``CacheServer.read`` carries its own copy of ``CacheStorage.get`` (TTL
    expiry, LRU touch) for speed; this ties the two copies together."""

    @given(
        server_steps,
        st.sampled_from([None, 1.0]),
        st.sampled_from([None, 2, 5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_read_and_storage_get_agree_step_by_step(
        self, steps, ttl, capacity
    ) -> None:
        sim = Simulator()
        backend = FakeBackend({key: f"{key}-0" for key in SERVER_KEYS})
        server = CacheServer(sim, backend, ttl=ttl, capacity=capacity)
        reference = CacheServer(sim, backend, ttl=ttl, capacity=capacity)
        for txn_id, (op, argument) in enumerate(steps, start=1):
            if op == "advance":
                sim.run(until=sim.now + argument)
            elif op == "read":
                result = server.read(txn_id, argument, last_op=True)
                assert result.cache_miss == read_through_storage_get(
                    reference, argument
                )
            elif op == "update":
                backend.commit([argument])
            else:
                record = InvalidationRecord(
                    key=argument,
                    version=backend.version_of(argument),
                    txn_id=txn_id,
                    commit_time=sim.now,
                )
                server.handle_invalidation(record)
                reference.handle_invalidation(record)
            for counter in COMPARED_COUNTERS:
                assert getattr(server.stats, counter) == getattr(
                    reference.stats, counter
                ), counter
            assert list(server.storage._entries) == list(reference.storage._entries)


versions_chain = st.lists(st.booleans(), min_size=1, max_size=15)


class TestStalenessProbeProperties:
    @given(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_depth_matches_brute_force(self, writes, data) -> None:
        probe = StalenessProbe()
        chains: dict[str, list[int]] = {key: [] for key in KEYS}
        for index, key in enumerate(writes, start=1):
            probe.record_update(
                CommittedTransaction(txn_id=index, reads={}, writes={key: index})
            )
            chains[key].append(index)

        key = data.draw(st.sampled_from(KEYS))
        observed = data.draw(st.sampled_from([0] + chains[key]))
        probe.record_read_only(
            ReadOnlyTransactionRecord(txn_id=1, reads={key: observed})
        )
        report = probe.report()
        current = chains[key][-1] if chains[key] else 0
        expected_depth = sum(1 for v in chains[key] if observed < v <= current)
        if expected_depth == 0:
            assert report.stale_reads == 0
        else:
            assert report.stale_reads == 1
            assert report.depth_histogram == {expected_depth: 1}

    @given(st.lists(st.sampled_from(KEYS), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_fresh_snapshot_never_counts_stale(self, writes) -> None:
        probe = StalenessProbe()
        current: dict[str, int] = {}
        for index, key in enumerate(writes, start=1):
            probe.record_update(
                CommittedTransaction(txn_id=index, reads={}, writes={key: index})
            )
            current[key] = index
        probe.record_read_only(ReadOnlyTransactionRecord(txn_id=1, reads=current))
        assert probe.report().stale_reads == 0
