"""Property-based validation of the serialization-graph tester against an
independent brute-force oracle built on networkx.

The oracle constructs the *full* conflict graph — every WW/WR/RW edge between
update transactions plus the read-only transaction's WR/RW edges — with no
version-window pruning, no chain indexes, and decides consistency by strongly
connected components. Agreement across randomized histories validates the
incremental tester the monitor uses.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.sgt import SerializationGraphTester
from repro.types import CommittedTransaction

KEYS = ["a", "b", "c", "d", "e"]


# ---------------------------------------------------------------------------
# History generation: sequential execution of update transactions with
# read-version = current version at execution time (what strict 2PL with a
# commit-order version counter produces).
# ---------------------------------------------------------------------------


@st.composite
def histories(draw):
    n_txns = draw(st.integers(min_value=0, max_value=8))
    current: dict[str, int] = {key: 0 for key in KEYS}
    txns: list[CommittedTransaction] = []
    for version in range(1, n_txns + 1):
        read_keys = draw(
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True)
        )
        # Write a (possibly strict) subset of the read set — partial writes
        # exercise anti-dependency (RW) edges.
        write_count = draw(st.integers(min_value=1, max_value=len(read_keys)))
        write_keys = read_keys[:write_count]
        txns.append(
            CommittedTransaction(
                txn_id=version,
                reads={key: current[key] for key in read_keys},
                writes={key: version for key in write_keys},
            )
        )
        for key in write_keys:
            current[key] = version
    return txns


@st.composite
def read_sets(draw, history):
    """A read-only transaction's observation: any committed version per key."""
    chosen_keys = draw(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True)
    )
    observation = {}
    for key in chosen_keys:
        versions = [0] + [t.txn_id for t in history if key in t.writes]
        observation[key] = draw(st.sampled_from(versions))
    return observation


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

READER = "T-readonly"


def oracle_is_consistent(history: list[CommittedTransaction], reads: dict) -> bool:
    graph = nx.DiGraph()
    graph.add_node(READER)
    for txn in history:
        graph.add_node(txn.txn_id)

    def writer_of(key, version):
        if version == 0:
            return None
        return version

    def writers_after(key, version):
        return [t.txn_id for t in history if key in t.writes and t.txn_id > version]

    # Update-transaction conflict edges, brute force over all pairs.
    for txn in history:
        for key, version in txn.writes.items():
            # WW: to every later writer.
            for later in writers_after(key, version):
                graph.add_edge(txn.txn_id, later)
            # WR: to every update transaction that read this version.
            for other in history:
                if other.txn_id != txn.txn_id and other.reads.get(key) == version:
                    graph.add_edge(txn.txn_id, other.txn_id)
        for key, version in txn.reads.items():
            # RW: to every writer that overwrote the version read.
            for later in writers_after(key, version):
                if later != txn.txn_id:
                    graph.add_edge(txn.txn_id, later)

    # The read-only transaction's edges.
    for key, version in reads.items():
        writer = writer_of(key, version)
        if writer is not None:
            graph.add_edge(writer, READER)  # WR
        for later in writers_after(key, version):
            graph.add_edge(READER, later)  # RW

    for component in nx.strongly_connected_components(graph):
        if READER in component:
            return len(component) == 1
    raise AssertionError("reader vanished from its own graph")  # pragma: no cover


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@st.composite
def history_and_reads(draw):
    history = draw(histories())
    reads = draw(read_sets(history))
    return history, reads


class DerivedSuccessorReference:
    """The pre-adjacency tester: successors re-derived per query via bisect.

    This is the implementation ``SerializationGraphTester`` replaced when it
    went incremental (next-writer back-patching in ``record_update``); it is
    kept here verbatim as the reference the property below pins the refactor
    against — same verdicts, same edge sets, for arbitrary histories in
    arbitrary recording order.
    """

    def __init__(self) -> None:
        self._txns: dict[int, CommittedTransaction] = {}
        self._chains: dict[str, list[int]] = {}
        self._readers: dict[tuple[str, int], list[int]] = {}

    def record_update(self, txn: CommittedTransaction) -> None:
        from bisect import insort

        self._txns[txn.txn_id] = txn
        for key, version in txn.writes.items():
            insort(self._chains.setdefault(key, []), version)
        for key, version in txn.reads.items():
            self._readers.setdefault((key, version), []).append(txn.txn_id)

    def next_writer(self, key: str, version: int) -> int | None:
        from bisect import bisect_right

        chain = self._chains.get(key)
        if not chain:
            return None
        index = bisect_right(chain, version)
        return None if index == len(chain) else chain[index]

    def successors(self, txn_id: int):
        txn = self._txns.get(txn_id)
        if txn is None:
            return
        for key, version in txn.writes.items():
            overwriter = self.next_writer(key, version)
            if overwriter is not None:
                yield overwriter  # WW
            for reader in self._readers.get((key, version), ()):
                if reader != txn_id:
                    yield reader  # WR
        for key, version in txn.reads.items():
            overwriter = self.next_writer(key, version)
            if overwriter is not None and overwriter != txn_id:
                yield overwriter  # RW

    def is_consistent(self, reads: dict) -> bool:
        if len(reads) <= 1:
            return True
        writers = {version for version in reads.values() if version != 0}
        starts = set()
        for key, version in reads.items():
            overwriter = self.next_writer(key, version)
            if overwriter is not None:
                starts.add(overwriter)
        if not writers or not starts:
            return True
        bound = max(writers)
        frontier = [txn for txn in starts if txn <= bound]
        visited = set(frontier)
        while frontier:
            node = frontier.pop()
            if node in writers:
                return False
            for successor in self.successors(node):
                if successor <= bound and successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        return True


class TestIncrementalAdjacencyAgainstDerivedReference:
    """The incremental (back-patched) adjacency equals the derived one."""

    @given(history_and_reads(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_verdicts_and_edges_match_in_any_recording_order(
        self, case, rnd
    ) -> None:
        history, reads = case
        order = list(history)
        rnd.shuffle(order)  # out-of-order arrival exercises the re-derivation

        tester = SerializationGraphTester()
        reference = DerivedSuccessorReference()
        recorded: set[int] = set()

        def assert_same_as_reference() -> None:
            for txn_id in recorded:
                assert sorted(tester._successors(txn_id)) == sorted(
                    reference.successors(txn_id)
                ), f"adjacency of txn {txn_id} diverged"
            # Mid-history, only the reads whose writer has arrived can be asked.
            known = {k: v for k, v in reads.items() if v == 0 or v in recorded}
            assert tester.is_consistent(known) == reference.is_consistent(known)

        for txn in order:
            tester.record_update(txn)
            reference.record_update(txn)
            recorded.add(txn.txn_id)
            # Query, record an older version, query again: the adjacency goes
            # stale, is re-derived, and goes stale again.
            if rnd.random() < 0.5:
                assert_same_as_reference()
        assert_same_as_reference()

    @given(history_and_reads())
    @settings(max_examples=150, deadline=None)
    def test_explain_matches_pairwise_reachability(self, case) -> None:
        """The memoised single-BFS explain returns the same first witness
        the pairwise nested-loop original would."""
        history, reads = case
        tester = SerializationGraphTester()
        for txn in history:
            tester.record_update(txn)

        expected = None
        for stale_key, stale_version in reads.items():
            start = tester.next_writer(stale_key, stale_version)
            if start is None:
                continue
            for fresh_key, fresh_version in reads.items():
                writer = tester.writer_of(fresh_key, fresh_version)
                if writer is None:
                    continue
                if tester._reaches(start, writer):
                    expected = (stale_key, fresh_key)
                    break
            if expected:
                break
        assert tester.explain_inconsistency(reads) == expected


class TestAgainstOracle:
    @given(history_and_reads())
    @settings(max_examples=300, deadline=None)
    def test_tester_agrees_with_brute_force_oracle(self, case) -> None:
        history, reads = case
        tester = SerializationGraphTester()
        for txn in history:
            tester.record_update(txn)
        assert tester.is_consistent(reads) == oracle_is_consistent(history, reads)

    @given(histories())
    @settings(max_examples=150, deadline=None)
    def test_sequential_update_histories_form_a_dag(self, history) -> None:
        tester = SerializationGraphTester()
        for txn in history:
            tester.record_update(txn)
        assert tester.verify_update_dag()

    @given(history_and_reads())
    @settings(max_examples=150, deadline=None)
    def test_latest_snapshot_is_always_consistent(self, case) -> None:
        history, _ = case
        tester = SerializationGraphTester()
        current = {key: 0 for key in KEYS}
        for txn in history:
            tester.record_update(txn)
            for key in txn.writes:
                current[key] = txn.txn_id
        assert tester.is_consistent(current)

    @given(history_and_reads())
    @settings(max_examples=150, deadline=None)
    def test_explain_agrees_with_verdict(self, case) -> None:
        history, reads = case
        tester = SerializationGraphTester()
        for txn in history:
            tester.record_update(txn)
        witness = tester.explain_inconsistency(reads)
        if tester.is_consistent(reads):
            assert witness is None
        else:
            assert witness is not None
            stale_key, fresh_key = witness
            assert stale_key in reads and fresh_key in reads

    @given(history_and_reads())
    @settings(max_examples=100, deadline=None)
    def test_consistency_is_stable_under_future_commits(self, case) -> None:
        """A verdict never flips as more update transactions commit — the
        property that lets the monitor classify eagerly."""
        history, reads = case
        tester = SerializationGraphTester()
        for txn in history:
            tester.record_update(txn)
        before = tester.is_consistent(reads)
        # Append one more write-all transaction over every key.
        current = {key: 0 for key in KEYS}
        for txn in history:
            for key in txn.writes:
                current[key] = txn.txn_id
        extra = CommittedTransaction(
            txn_id=len(history) + 1,
            reads=current,
            writes={key: len(history) + 1 for key in KEYS},
        )
        tester.record_update(extra)
        assert tester.is_consistent(reads) == before
