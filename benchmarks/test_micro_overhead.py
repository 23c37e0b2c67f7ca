"""§V-B2 overhead micro-benchmarks.

The paper claims the protocol's compute overhead is "O(1) in the number of
objects in the system and O(k^2) in the size of the dependency lists, which
is limited to 5 in our experiments". These benchmarks measure the two hot
paths — the commit-time dependency-list merge and the per-read consistency
check — at the paper's parameters, and verify the O(1)-in-database-size
claim by timing the same operation against histories of different sizes.

Two layer probes ride along, each on a bare simulator with a seeded
workload so two runs do the same work: the 2PC commit path those merges run
inside, and the kernel's sleep path every process waits on. Each asserts its
determinism witnesses; ``--benchmark-json`` records their timings.
"""

from __future__ import annotations

import gc
import math
import random
import time

import pytest

from repro.core.deplist import DependencyList
from repro.core.detector import check_read
from repro.core.records import TransactionContext
from repro.db.database import Database, DatabaseConfig
from repro.monitor.sgt import SerializationGraphTester
from repro.sim.core import Simulator
from repro.types import CommittedTransaction
from repro.workloads.base import key_for


def sgt_history(
    n_updates: int, n_keys: int = 2000, seed: int = 1234
) -> tuple[list[CommittedTransaction], dict[str, int], dict[str, int]]:
    """A seeded 2PL-style history: reads see the current version.

    Returns ``(transactions, current version per key, previous version per
    key)`` — the previous-version map feeds bounded-staleness read sets.
    """
    rng = random.Random(seed)
    current: dict[str, int] = {}
    previous: dict[str, int] = {}
    txns: list[CommittedTransaction] = []
    for version in range(1, n_updates + 1):
        picks = rng.sample(range(n_keys), 3)
        keys = [f"k{index}" for index in picks]
        reads = {key: current.get(key, 0) for key in keys}
        writes = {key: version for key in keys[:2]}
        txns.append(
            CommittedTransaction(txn_id=version, reads=reads, writes=writes)
        )
        for key in writes:
            previous[key] = current.get(key, 0)
            current[key] = version
    return txns, current, previous


def sgt_read_sets(
    current: dict[str, int],
    previous: dict[str, int],
    n_checks: int,
    k: int = 5,
    seed: int = 99,
) -> list[dict[str, int]]:
    """Read sets with *bounded staleness*: current or previous versions.

    Mirrors what a cache-fed monitor classifies — entries are near-current,
    never the initial load — so the BFS neighbourhood is governed by the
    conflict structure, not by how long the history is. That is the §V-B2
    shape under test: per-check cost O(1) in history size.
    """
    rng = random.Random(seed)
    keys = list(current)
    read_sets = []
    for _ in range(n_checks):
        chosen = rng.sample(keys, min(k, len(keys)))
        read_sets.append(
            {
                key: current[key]
                if rng.random() < 0.7
                else previous.get(key, 0)
                for key in chosen
            }
        )
    return read_sets


class TestHistoryBuilders:
    def test_history_reads_see_current_versions(self) -> None:
        txns, current, previous = sgt_history(200)
        assert len(txns) == 200
        state: dict[str, int] = {}
        for txn in txns:
            for key, version in txn.reads.items():
                assert version == state.get(key, 0)
            for key, version in txn.writes.items():
                state[key] = version
        assert state == current
        for key, version in previous.items():
            assert version < current[key]

    def test_read_sets_are_bounded_staleness(self) -> None:
        _, current, previous = sgt_history(500)
        read_sets = sgt_read_sets(current, previous, 50)
        assert len(read_sets) == 50
        for reads in read_sets:
            for key, version in reads.items():
                assert version in (current[key], previous.get(key, 0))


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
    assert created <= 1.5 * n_updates + 3 * len(current), (
        f"{created} GC-tracked containers for {n_updates} transactions over "
        f"{len(current)} keys ({created / n_updates:.2f} per transaction)"
    )


def commit_path(shards: int, transactions: int) -> dict[str, int]:
    """Three-key update transactions straight through the 2PC commit path.

    A launcher submits read-all-write-all transactions over three objects of
    one five-object cluster (so the k = 5 lists fill up) 600 times a
    simulated second, the ``column_write`` rate, to a database with default
    phase timing and nothing attached: no cache, channel, client or monitor.
    """
    keys = [key_for(index) for index in range(2000)]
    sim = Simulator()
    database = Database(sim, DatabaseConfig(shards=shards, deplist_max=5))
    database.load({key: 0 for key in keys})
    rng = random.Random(15)

    def launcher():
        for index in range(transactions):
            cluster = 5 * rng.randrange(len(keys) // 5)
            group = [keys[cluster + offset] for offset in rng.sample(range(5), 3)]
            database.execute_update(
                read_keys=group, writes={key: index for key in group}
            )
            yield 1.0 / 600.0

    sim.process(launcher())
    sim.run()
    return {
        "commits": database.stats.committed,
        "aborts": database.stats.aborted,
        "events": sim.events_executed,
    }


def test_commit_path_on_one_and_two_shards(benchmark, scale):
    """The same transactions on one participant, then spread over two
    shards, where most prepare and commit at two participants. Every
    transaction commits or aborts, and the second prepare round adds
    events."""
    transactions = max(200, int(20_000 * scale))
    runs = benchmark.pedantic(
        lambda: {
            "one_participant": commit_path(1, transactions),
            "two_shards": commit_path(2, transactions),
        },
        rounds=1,
    )
    benchmark.extra_info.update(runs)
    for run in runs.values():
        assert run["commits"] + run["aborts"] == transactions
    assert runs["two_shards"]["events"] > runs["one_participant"]["events"]


def kernel_sleep(delays: list[float], rounds: int) -> dict[str, int]:
    """One process per delay, each doing nothing but ``yield delay``."""

    def sleeper(delay: float):
        for _ in range(rounds):
            yield delay

    sim = Simulator()
    for delay in delays:
        sim.process(sleeper(delay))
    sim.run()
    return {"wakeups": rounds * len(delays), "events": sim.events_executed}


def test_kernel_sleep_tie_free_and_tie_heavy(benchmark, scale):
    """Both ends of ``Process._wake``: on the tie-free schedule (an
    irrational multiple of a millisecond each) no two wake-ups share an
    instant and each resumes in the dispatch that popped it; on the
    tie-heavy one (one delay for all) every wake-up finds a peer due at the
    same instant and queues in the immediate FIFO. Either way a wake-up is
    two events, plus one start per sleeper."""
    rounds = max(50, int(12_500 * scale))
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    runs = benchmark.pedantic(
        lambda: {
            "tie_free": kernel_sleep([0.001 * math.sqrt(p) for p in primes], rounds),
            "tie_heavy": kernel_sleep([0.001] * len(primes), rounds),
        },
        rounds=1,
    )
    benchmark.extra_info.update(runs)
    for run in runs.values():
        assert run["events"] == len(primes) + 2 * run["wakeups"]


class TestProbeWitnesses:
    """The probes' witnesses at a fixed small size, on shapes the timed
    runs do not cover, and rerun: two runs of a probe do the same work."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_commit_path_resolves_every_transaction(self, shards) -> None:
        run = commit_path(shards, 200)
        assert run["commits"] > 0
        assert run["commits"] + run["aborts"] == 200
        assert commit_path(shards, 200) == run

    @pytest.mark.parametrize(
        "delays",
        [
            [0.001],
            [0.001 * math.sqrt(p) for p in (2, 3, 5, 7)],
            [0.001] * 4,
            [0.001, 0.001, 0.001 * math.sqrt(2), 0.001 * math.sqrt(3)],
            [0.0] * 4,
        ],
        ids=["one-sleeper", "tie-free", "tie-heavy", "mixed", "zero-delay"],
    )
    def test_kernel_sleep_wake_is_two_events(self, delays) -> None:
        run = kernel_sleep(delays, 50)
        assert run["events"] == len(delays) + 2 * run["wakeups"]
        assert kernel_sleep(delays, 50) == run
