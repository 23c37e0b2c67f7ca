"""Integration tests: two-phase commit across multiple participants."""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database, DatabaseConfig, TimingConfig
from repro.db.wal import RecordType
from repro.monitor.sgt import SerializationGraphTester
from repro.sim.core import Simulator
from tests.conftest import commit_update
from tests.helpers import canonical_sha256, json_from_child


@pytest.fixture
def sharded_db(sim: Simulator) -> Database:
    db = Database(
        sim,
        DatabaseConfig(
            shards=4, deplist_max=5, timing=TimingConfig(0.0, 0.002, 0.001, 0.001)
        ),
    )
    db.load({f"k{i}": 0 for i in range(40)})
    return db


def spanning_keys(db: Database, count: int = 4) -> list[str]:
    """Keys guaranteed to touch more than one participant."""
    by_shard: dict[str, list[str]] = {}
    for i in range(40):
        key = f"k{i}"
        by_shard.setdefault(db.shard_for(key).name, []).append(key)
    shards = sorted(by_shard)
    keys = []
    for index in range(count):
        shard = shards[index % len(shards)]
        if by_shard[shard]:
            keys.append(by_shard[shard].pop(0))
    return keys


class TestCrossShardCommit:
    def test_transaction_spans_participants(self, sim, sharded_db) -> None:
        keys = spanning_keys(sharded_db)
        shards = {sharded_db.shard_for(k).name for k in keys}
        assert len(shards) > 1
        committed = commit_update(sim, sharded_db, keys)
        for key in keys:
            assert sharded_db.read_entry(key).version == committed.txn_id

    def test_every_involved_participant_logs_prepare_and_commit(
        self, sim, sharded_db
    ) -> None:
        keys = spanning_keys(sharded_db)
        commit_update(sim, sharded_db, keys)
        involved = {sharded_db.shard_for(k) for k in keys}
        for participant in involved:
            types = [r.record_type for r in participant.wal]
            assert RecordType.PREPARE in types
            assert RecordType.COMMIT in types

    def test_dependency_lists_span_shards(self, sim, sharded_db) -> None:
        keys = spanning_keys(sharded_db)
        committed = commit_update(sim, sharded_db, keys)
        entry = sharded_db.read_entry(keys[0])
        for other in keys[1:]:
            assert entry.dep_on(other) == committed.txn_id

    def test_concurrent_cross_shard_transactions_serialize(self, sim, sharded_db) -> None:
        keys = [f"k{i}" for i in range(40)]
        tester = SerializationGraphTester()
        sharded_db.add_commit_listener(tester.record_update)
        processes = []
        for start in range(0, 40, 5):
            group = keys[start : start + 5]
            processes.append(
                sharded_db.execute_update(read_keys=group, writes={k: start for k in group})
            )
        # Overlapping groups force conflicts.
        for start in range(0, 35, 5):
            group = keys[start + 2 : start + 8]
            processes.append(
                sharded_db.execute_update(read_keys=group, writes={k: -start for k in group})
            )
        sim.run()
        committed = [p for p in processes if p.ok]
        assert len(committed) >= 8  # most commit; wounds may abort a few
        assert tester.verify_update_dag()


class TestCrossShardAbort:
    def test_one_crashed_participant_aborts_everywhere(self, sim, sharded_db) -> None:
        keys = spanning_keys(sharded_db)
        victim = sharded_db.shard_for(keys[0])
        survivor = sharded_db.shard_for(keys[1])
        assert victim is not survivor
        process = sharded_db.execute_update(
            read_keys=keys, writes={k: "doomed" for k in keys}
        )
        victim.crash()
        sim.run()
        assert process.triggered and not process.ok
        # The surviving participant must not have installed anything.
        assert sharded_db.shard_for(keys[1]).store.get(keys[1]).version == 0
        types = [r.record_type for r in survivor.wal if r.txn_id == 1]
        assert RecordType.COMMIT not in types

    def test_recovery_resolves_in_doubt_against_coordinator(self, sim, sharded_db) -> None:
        keys = spanning_keys(sharded_db)
        commit_update(sim, sharded_db, keys, value="pre-crash")
        victim = sharded_db.shard_for(keys[0])
        victim.crash()
        resolutions = victim.recover(sharded_db.coordinator.decisions)
        # The committed transaction is decided; nothing is in doubt.
        assert resolutions == {}
        assert victim.store.get(keys[0]).value == "pre-crash"


def _commit_path_trace() -> dict:
    """A seeded, contended 50-transaction run over three participants.

    Returns what the participants saw, in the order they saw it: the
    registration / prepare calls across participants, and each participant's
    log as ``(lsn, record_type, txn_id)``.
    """
    sim = Simulator()
    db = Database(
        sim,
        DatabaseConfig(
            shards=3, deplist_max=5, timing=TimingConfig(0.0, 0.002, 0.001, 0.001)
        ),
    )
    keys = [f"k{i}" for i in range(12)]
    db.load({key: 0 for key in keys})
    calls: list[list] = []
    for participant in db.participants:
        for method in ("register_txn", "prepare"):
            original = getattr(participant, method)

            def recording(txn_id, *args, _original=original, _tag=(method, participant.name)):
                calls.append([*_tag, txn_id])
                return _original(txn_id, *args)

            setattr(participant, method, recording)
    rng = random.Random(15)
    processes = []

    def launch(index: int) -> None:
        group = rng.sample(keys, 3)
        written = group[: rng.randint(1, 3)]
        processes.append(
            db.execute_update(read_keys=group, writes={key: index for key in written})
        )

    for index in range(50):
        sim.schedule(index * 0.0007, launch, index)
    sim.run()
    assert all(process.triggered for process in processes)
    return {
        "calls": calls,
        "wal": {
            participant.name: [
                [record.lsn, record.record_type.value, record.txn_id]
                for record in participant.wal
            ]
            for participant in db.participants
        },
        "committed": db.stats.committed,
        "aborted": db.stats.aborted,
        "wounds": sum(participant.locks.wounds for participant in db.participants),
    }


class TestCommitPathOrder:
    """The 2PC driver's observable order, pinned against the commit before
    the per-transaction plan (PR 15): resolving shards, lock order and lock
    modes once must not change who is registered, prepared or logged when.

    The run happens in a child interpreter with ``PYTHONHASHSEED=0`` (as the
    benchmark's children do): ``LockManager.release_all`` walks a ``set`` of
    string keys, so the order waiters are promoted in — and with it which of
    two contenders is wounded — follows the interpreter's string hash.
    """

    #: Recorded at e30ec08 (PR 14) with this same function.
    GOLDEN_SHA256 = "60cab6d4b0523dd8797257395934dd285954bf101d973a52718df6cf7d8de8e5"
    GOLDEN_SUMMARY = {
        "calls": 198,
        "records": {"db-shard0": 91, "db-shard1": 102, "db-shard2": 117},
        "committed": 38,
        "aborted": 12,
        "wounds": 14,
    }

    def test_seeded_run_matches_the_recorded_order(self) -> None:
        trace = json_from_child(
            "tests.integration.test_multi_shard", "_commit_path_trace"
        )
        assert sum(1 for records in trace["wal"].values() if records) >= 2
        summary = {
            "calls": len(trace["calls"]),
            "records": {name: len(records) for name, records in trace["wal"].items()},
            "committed": trace["committed"],
            "aborted": trace["aborted"],
            "wounds": trace["wounds"],
        }
        assert summary == self.GOLDEN_SUMMARY
        assert canonical_sha256(trace) == self.GOLDEN_SHA256
