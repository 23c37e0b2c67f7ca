"""§V-B2 overhead micro-benchmarks.

The paper claims the protocol's compute overhead is "O(1) in the number of
objects in the system and O(k^2) in the size of the dependency lists, which
is limited to 5 in our experiments". These benchmarks measure the two hot
paths — the commit-time dependency-list merge and the per-read consistency
check — at the paper's parameters, and verify the O(1)-in-database-size
claim by timing the same operation against histories of different sizes.
"""

from __future__ import annotations

import gc
import time

from repro.bench.suite import sgt_history, sgt_read_sets
from repro.core.deplist import DependencyList
from repro.core.detector import check_read
from repro.core.records import TransactionContext
from repro.monitor.sgt import SerializationGraphTester


def make_inherited(txn_size: int, k: int) -> list[DependencyList]:
    return [
        DependencyList.from_pairs(
            [(f"obj{i}-{j}", j + 1) for j in range(k)]
        )
        for i in range(txn_size)
    ]


def test_deplist_merge_at_paper_parameters(benchmark):
    """Commit-time merge: 5-object transaction, k = 5."""
    direct = {f"key{i}": 100 + i for i in range(5)}
    inherited = make_inherited(5, 5)

    result = benchmark(
        lambda: DependencyList.merge(direct, inherited, max_len=5, exclude="key0")
    )
    assert len(result) == 5


def test_consistency_check_at_paper_parameters(benchmark):
    """Per-read check: transaction with 4 prior reads, k = 5 lists."""
    context = TransactionContext(txn_id=1, start_time=0.0)
    for i in range(4):
        context.record_read(
            f"key{i}", 10 + i, DependencyList.from_pairs([(f"dep{i}-{j}", j) for j in range(5)])
        )
    deps = DependencyList.from_pairs([(f"key{i}", 9) for i in range(4)] + [("other", 3)])

    result = benchmark(lambda: check_read(context, "key4", 50, deps))
    assert result is None


def test_check_cost_independent_of_database_size(benchmark):
    """O(1) in database size: the check touches only the transaction's own
    record and the incoming list, never the object universe. We verify by
    timing checks while a million-object 'database' exists versus not —
    the benchmark itself runs the large-universe variant."""
    universe = {f"obj{i}": i for i in range(1_000_000)}  # present, untouched
    context = TransactionContext(txn_id=1, start_time=0.0)
    context.record_read("a", 5, DependencyList.from_pairs([("b", 3)]))
    deps = DependencyList.from_pairs([("a", 4)])

    result = benchmark(lambda: check_read(context, "b", 3, deps))
    assert result is None
    assert len(universe) == 1_000_000


def test_merge_scales_quadratically_not_with_db(benchmark):
    """O(k^2)-ish in list size: doubling k must not explode the merge cost
    by more than ~8x (tolerant envelope), and cost is unaffected by the
    number of *other* objects in the system."""

    def merge_with_k(k: int) -> float:
        direct = {f"key{i}": 100 + i for i in range(5)}
        inherited = make_inherited(5, k)
        start = time.perf_counter()
        for _ in range(200):
            DependencyList.merge(direct, inherited, max_len=k)
        return time.perf_counter() - start

    small = merge_with_k(5)
    large = merge_with_k(10)
    assert large < small * 12

    benchmark(lambda: DependencyList.merge(
        {f"key{i}": i for i in range(5)}, make_inherited(5, 5), max_len=5
    ))


def test_sgt_check_rate_flat_in_history_size(benchmark):
    """O(1) in history size for the monitor's exact oracle too: the
    adjacency-based ``SerializationGraphTester`` answers bounded-staleness
    checks (reads of current/previous versions, what a cache-fed monitor
    sees) at a rate governed by the conflict neighbourhood, not by how many
    updates were ever recorded. We time a fixed batch of checks against
    10^3-, 10^4- and 10^5-update histories and require the per-check cost at
    10^5 to stay within a tolerant envelope (4x) of the 10^4 cost — the
    pre-adjacency tester degraded super-linearly here."""

    def checks_per_sec(n_updates: int, n_checks: int = 1000) -> float:
        txns, current, previous = sgt_history(n_updates)
        read_sets = sgt_read_sets(current, previous, n_checks)
        tester = SerializationGraphTester()
        for txn in txns:
            tester.record_update(txn)
        # Best of three: a GC pause or CI-runner throttle during one ~40 ms
        # window must not read as an asymptotic blow-up.
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for reads in read_sets:
                tester.is_consistent(reads)
            best = min(best, time.perf_counter() - start)
        return n_checks / best

    mid = checks_per_sec(10_000)
    large = checks_per_sec(100_000)
    assert large > mid / 4, (
        f"checks/sec fell from {mid:,.0f} at 10^4 updates to {large:,.0f} "
        "at 10^5 — per-check cost is no longer O(1) in history size"
    )

    txns, current, previous = sgt_history(1_000)
    read_sets = sgt_read_sets(current, previous, 200)
    tester = SerializationGraphTester()
    for txn in txns:
        tester.record_update(txn)
    benchmark(lambda: [tester.is_consistent(reads) for reads in read_sets])


def test_sgt_record_allocates_one_container_per_transaction():
    """Deterministic guard for what made ``record_update`` slow: every
    GC-tracked container it leaves alive (adjacency lists, reader lists,
    tuple keys) feeds the cyclic collector, whose passes were a fifth of the
    record phase. A commit-order history may keep at most 1.5 containers
    per transaction plus 3 per distinct key (chain, pending list and the
    pair holding them); the back-patching tester kept 5.5 per transaction."""
    n_updates = 10_000
    txns, current, _ = sgt_history(n_updates)
    tester = SerializationGraphTester()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for txn in txns:
            tester.record_update(txn)
        created = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert tester.reordered_count == 0
    assert created <= 1.5 * n_updates + 3 * len(current), (
        f"{created} GC-tracked containers for {n_updates} transactions over "
        f"{len(current)} keys ({created / n_updates:.2f} per transaction)"
    )
