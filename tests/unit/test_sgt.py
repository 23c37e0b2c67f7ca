"""Unit tests for the serialization-graph tester on hand-built histories."""

from __future__ import annotations

import sys

import pytest

from repro.errors import SimulationError
from repro.monitor.sgt import SerializationGraphTester
from repro.types import CommittedTransaction


def txn(version: int, reads: dict, writes: dict) -> CommittedTransaction:
    return CommittedTransaction(txn_id=version, reads=reads, writes=writes)


def write_all(version: int, keys: list[str], read_versions: dict) -> CommittedTransaction:
    return txn(version, read_versions, {k: version for k in keys})


def held(tester: SerializationGraphTester) -> tuple:
    """A copy of everything the tester holds."""
    return (
        {key: (list(chain), list(pend)) for key, (chain, pend) in tester._keys.items()},
        {node: list(edges) for node, edges in tester._adjacency.items()},
        tester._newest,
        tester.update_count,
    )


class TestHistoryConstruction:
    def test_duplicate_transaction_rejected(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        with pytest.raises(SimulationError):
            tester.record_update(write_all(1, ["a"], {"a": 0}))

    def test_write_version_must_match_txn_version(self) -> None:
        tester = SerializationGraphTester()
        with pytest.raises(SimulationError):
            tester.record_update(txn(2, {}, {"a": 3}))

    def test_rejected_transaction_leaves_no_trace(self) -> None:
        """A write version that disagrees with the transaction id is found
        before anything is recorded, so the corrected transaction records."""
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        with pytest.raises(SimulationError, match="write version 3"):
            tester.record_update(txn(2, {"a": 1}, {"a": 2, "b": 3}))
        assert tester.update_count == 1
        assert tester.next_writer("a", 1) is None
        assert tester.next_writer("b", 0) is None
        assert list(tester._successors(1)) == []
        assert list(tester._successors(2)) == []

        tester.record_update(txn(2, {"a": 1}, {"a": 2, "b": 2}))
        assert tester.update_count == 2
        assert tester.next_writer("a", 1) == 2
        assert list(tester._successors(1)) == [2]  # WW and WR: one edge

    def test_arrival_out_of_commit_order_is_refused(self) -> None:
        """The backend publishes commits in version order; an older arrival
        is refused and leaves the tester as it was."""
        tester = SerializationGraphTester(namespace="db-0")
        tester.record_update(txn(1, {"a": 0}, {"a": 1}))
        tester.record_update(txn(3, {"a": 1, "b": 0}, {"b": 3}))
        before = held(tester)
        with pytest.raises(SimulationError, match="2 arrived after 3 in namespace"):
            tester.record_update(txn(2, {"a": 1}, {"a": 2}))
        assert held(tester) == before

        tester.record_update(txn(4, {"a": 1}, {"a": 4}))
        assert list(tester._successors(1)) == [3, 4]  # WR; WR and WW
        assert list(tester._successors(3)) == [4]  # RW on a
        assert tester.verify_update_dag()

    def test_read_of_an_unrecorded_version_is_refused(self) -> None:
        """The refused read comes after a pending join, an unseen key and a
        write of its own: none of them is recorded."""
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"a": 0, "b": 0}, {"a": 1}))
        before = held(tester)
        for unrecorded in ({"b": 2}, {"d": 5}):
            with pytest.raises(SimulationError, match="whose writer is not recorded"):
                tester.record_update(
                    txn(3, {"a": 1, "c": 0, **unrecorded}, {"a": 3, "c": 3})
                )
            assert held(tester) == before

        tester.record_update(txn(3, {"a": 1, "c": 0, "b": 0}, {"a": 3, "c": 3}))
        assert tester.next_writer("a", 1) == 3
        assert tester.next_writer("c", 0) == 3
        assert tester.writer_of("c", 3) == 3

    def test_one_edge_per_conflicting_pair(self) -> None:
        """A successor conflicting on several keys, or in several ways, is
        in the predecessor's list once."""
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        tester.record_update(write_all(2, ["a", "b"], {"a": 1, "b": 1}))
        tester.record_update(txn(3, {"c": 0, "d": 0}, {"e": 3}))
        tester.record_update(txn(4, {}, {"c": 4, "d": 4}))
        tester.record_update(txn(5, {"a": 1, "b": 1}, {"f": 5}))
        assert list(tester._successors(1)) == [2, 5]  # WW and WR on a and b
        assert list(tester._successors(3)) == [4]  # RW on c and d
        assert list(tester._successors(5)) == [2]  # stale reads of a and b

    def test_recorded_transaction_is_not_kept(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        committed = txn(2, {"a": 1, "b": 0}, {"a": 2})
        parts = (committed, committed.reads, committed.writes)
        before = [sys.getrefcount(part) for part in parts]
        tester.record_update(committed)
        assert [sys.getrefcount(part) for part in parts] == before

    def test_writer_lookup(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        assert tester.writer_of("a", 1) == 1
        assert tester.writer_of("a", 0) is None
        with pytest.raises(SimulationError):
            tester.writer_of("a", 99)

    def test_next_writer_chain(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        tester.record_update(write_all(2, ["a"], {"a": 1}))
        assert tester.next_writer("a", 0) == 1
        assert tester.next_writer("a", 1) == 2
        assert tester.next_writer("a", 2) is None
        assert tester.next_writer("never-written", 0) is None


class TestConsistency:
    def test_empty_and_single_reads_are_consistent(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        assert tester.is_consistent({})
        assert tester.is_consistent({"a": 0})
        assert tester.is_consistent({"a": 1})

    def test_snapshot_of_initial_versions_is_consistent(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        assert tester.is_consistent({"a": 0, "b": 0})

    def test_snapshot_of_latest_versions_is_consistent(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        assert tester.is_consistent({"a": 1, "b": 1})

    def test_torn_read_across_one_transaction_is_inconsistent(self) -> None:
        """Reading one object before and one after the same update."""
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        assert not tester.is_consistent({"a": 0, "b": 1})
        assert not tester.is_consistent({"a": 1, "b": 0})

    def test_independent_updates_allow_mixed_versions(self) -> None:
        """Updates with no conflict can be ordered either way around the
        reader — mixed versions serialize fine."""
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a"], {"a": 0}))
        tester.record_update(write_all(2, ["b"], {"b": 0}))
        assert tester.is_consistent({"a": 0, "b": 2})
        assert tester.is_consistent({"a": 1, "b": 0})
        assert tester.is_consistent({"a": 1, "b": 2})

    def test_dependent_chain_orders_reads(self) -> None:
        """T1 writes a; T2 reads a and writes b: reading b's new version
        with a's old one is inconsistent (T2 observed T1)."""
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"a": 0}, {"a": 1}))
        tester.record_update(txn(2, {"a": 1, "b": 0}, {"b": 2}))
        assert not tester.is_consistent({"a": 0, "b": 2})
        # The other mix is fine: T between T1 and T2.
        assert tester.is_consistent({"a": 1, "b": 0})

    def test_transitive_chain(self) -> None:
        """Chain a -> b -> c across three transactions."""
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"a": 0}, {"a": 1}))
        tester.record_update(txn(2, {"a": 1, "b": 0}, {"b": 2}))
        tester.record_update(txn(3, {"b": 2, "c": 0}, {"c": 3}))
        assert not tester.is_consistent({"a": 0, "c": 3})
        assert tester.is_consistent({"a": 1, "c": 0})
        assert tester.is_consistent({"a": 1, "c": 3})

    def test_anti_dependency_cycle_detected(self) -> None:
        """The RW-edge case dependency lists cannot see (Theorem 1 boundary):
        U2 reads m (does not write it), U3 overwrites m, U1 reads U3's m and
        writes o1. Reading stale o2 with fresh o1 is non-serializable."""
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"o2": 0, "m": 0}, {"o2": 1}))   # U2
        tester.record_update(txn(2, {"m": 0}, {"m": 2}))             # U3
        tester.record_update(txn(3, {"m": 2, "o1": 0}, {"o1": 3}))   # U1
        assert not tester.is_consistent({"o2": 0, "o1": 3})
        assert tester.is_consistent({"o2": 1, "o1": 3})

    def test_write_write_chain_on_same_key(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        tester.record_update(write_all(2, ["a"], {"a": 1}))
        tester.record_update(write_all(3, ["b", "c"], {"b": 1, "c": 0}))
        # b@1 was overwritten by 3, which also wrote c@3; reading b@1 with
        # c@3 is torn across transaction 3.
        assert not tester.is_consistent({"b": 1, "c": 3})
        # Reading a@1 and c@3 serializes (2 and 3 conflict with 1, not each
        # other... a@1 -> next writer 2; path 2 -> 3? 2 wrote a, read a;
        # 3 touches b, c: no shared key, no path).
        assert tester.is_consistent({"a": 1, "c": 3})

    def test_explain_returns_witness_pair(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        witness = tester.explain_inconsistency({"a": 0, "b": 1})
        assert witness == ("a", "b")
        assert tester.explain_inconsistency({"a": 1, "b": 1}) is None

    def test_update_dag_verification(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"a": 0}, {"a": 1}))
        tester.record_update(txn(2, {"a": 1, "b": 0}, {"b": 2}))
        tester.record_update(txn(3, {"b": 2}, {"b": 3}))
        assert tester.verify_update_dag()

    def test_stale_read_by_an_update_breaks_the_dag(self) -> None:
        """An update transaction that observed an overwritten version takes
        an RW edge back to the overwriter — recorded in commit order."""
        tester = SerializationGraphTester()
        tester.record_update(txn(1, {"a": 0}, {"a": 1}))
        tester.record_update(txn(2, {"a": 1}, {"a": 2}))
        tester.record_update(txn(3, {"a": 1, "b": 0}, {"b": 3}))
        assert list(tester._successors(3)) == [2]
        assert not tester.verify_update_dag()

    def test_counters(self) -> None:
        tester = SerializationGraphTester()
        tester.record_update(write_all(1, ["a", "b"], {"a": 0, "b": 0}))
        tester.is_consistent({"a": 0, "b": 1})
        tester.is_consistent({"a": 1, "b": 1})
        assert tester.checks == 2
        assert tester.update_count == 1
