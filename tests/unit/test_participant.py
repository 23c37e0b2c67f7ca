"""Unit tests for the 2PC storage participant."""

from __future__ import annotations

import pytest

from repro.core.deplist import DependencyList
from repro.db.locks import LockMode
from repro.db.participant import Participant
from repro.db.wal import RecordType
from repro.errors import InvalidTransactionState, ParticipantFailure
from repro.sim.core import Simulator


@pytest.fixture
def participant(sim: Simulator) -> Participant:
    p = Participant(sim, "shard0")
    p.store.load({"a": "a0", "b": "b0"})
    return p


def start_txn(participant: Participant, txn_id: int = 1) -> None:
    participant.register_txn(txn_id, age=txn_id, on_wound=lambda _: None)


NO_DEPS: dict = {}


class TestExecution:
    def test_read_requires_lock(self, participant: Participant) -> None:
        start_txn(participant)
        with pytest.raises(InvalidTransactionState):
            participant.read(1, "a")

    def test_read_under_lock(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.SHARED)
        assert participant.read(1, "a").value == "a0"

    def test_read_latest_is_lock_free(self, participant: Participant) -> None:
        assert participant.read_latest("a").value == "a0"

    def test_write_requires_exclusive_lock(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.SHARED)
        with pytest.raises(InvalidTransactionState, match="without X lock"):
            participant.buffer_write(1, "a", "new")

    def test_write_without_lock_rejected(self, participant: Participant) -> None:
        start_txn(participant)
        with pytest.raises(InvalidTransactionState, match="without a lock"):
            participant.buffer_write(1, "a", "new")

    def test_lock_held_by_another_transaction_does_not_count(
        self, participant: Participant
    ) -> None:
        start_txn(participant, 1)
        start_txn(participant, 2)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        with pytest.raises(InvalidTransactionState, match="read of 'a' without a lock"):
            participant.read(2, "a")
        with pytest.raises(InvalidTransactionState, match="write of 'a' without a lock"):
            participant.buffer_write(2, "a", "new")

    def test_queued_upgrade_may_read_but_not_write(
        self, participant: Participant
    ) -> None:
        start_txn(participant, 1)
        start_txn(participant, 2)
        participant.lock(1, "a", LockMode.SHARED)
        participant.lock(2, "a", LockMode.SHARED)
        upgrade = participant.lock(2, "a", LockMode.EXCLUSIVE)
        assert not upgrade.triggered
        assert participant.read(2, "a").value == "a0"
        with pytest.raises(InvalidTransactionState, match="without X lock"):
            participant.buffer_write(2, "a", "new")
        participant.abort(1)
        assert upgrade.triggered
        participant.buffer_write(2, "a", "new")

    def test_buffered_write_invisible_until_commit(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.buffer_write(1, "a", "new")
        assert participant.read_latest("a").value == "a0"


class TestTwoPhase:
    def _execute(self, participant: Participant, txn_id: int = 1) -> None:
        start_txn(participant, txn_id)
        participant.lock(txn_id, "a", LockMode.EXCLUSIVE)
        participant.buffer_write(txn_id, "a", f"new-{txn_id}")

    def test_prepare_votes_yes_and_logs(self, participant: Participant) -> None:
        self._execute(participant)
        assert participant.prepare(1) is True
        assert participant.votes_yes == 1
        prepared = [r for r in participant.wal if r.record_type is RecordType.PREPARE]
        assert len(prepared) == 1
        assert prepared[0].payload == {"a": "new-1"}

    def test_commit_installs_and_releases(self, participant: Participant) -> None:
        self._execute(participant)
        participant.prepare(1)
        installed = participant.commit(1, version=10, deps_per_key={"a": DependencyList()})
        assert [e.key for e in installed] == ["a"]
        assert participant.read_latest("a").value == "new-1"
        assert participant.read_latest("a").version == 10
        assert participant.locks.holders("a") == {}

    def test_commit_before_prepare_rejected(self, participant: Participant) -> None:
        self._execute(participant)
        with pytest.raises(InvalidTransactionState):
            participant.commit(1, version=10, deps_per_key=NO_DEPS)

    def test_prepare_without_registration_rejected(self, participant: Participant) -> None:
        with pytest.raises(InvalidTransactionState):
            participant.prepare(99)

    def test_abort_discards_buffered_writes(self, participant: Participant) -> None:
        self._execute(participant)
        participant.abort(1)
        assert participant.read_latest("a").value == "a0"
        assert participant.locks.holders("a") == {}
        aborts = [r for r in participant.wal if r.record_type is RecordType.ABORT]
        assert len(aborts) == 1

    def test_abort_after_prepare_allowed(self, participant: Participant) -> None:
        self._execute(participant)
        participant.prepare(1)
        participant.abort(1)
        assert participant.read_latest("a").value == "a0"


class TestCrashRecovery:
    def test_crashed_participant_votes_no(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.buffer_write(1, "a", "new")
        participant.crash()
        assert participant.prepare(1) is False
        assert participant.votes_no == 1

    def test_crashed_participant_rejects_reads(self, participant: Participant) -> None:
        participant.crash()
        with pytest.raises(ParticipantFailure):
            participant.read_latest("a")

    def test_crash_is_reported_before_the_lock_check(
        self, participant: Participant
    ) -> None:
        """The locks died with the crash; the error must still name the
        crash, not a missing lock."""
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.crash()
        assert participant.locks.mode_held(1, "a") is None
        assert participant.locks.held_keys(1) == set()
        assert participant.locks.holders("a") == {}
        with pytest.raises(ParticipantFailure):
            participant.read(1, "a")
        with pytest.raises(ParticipantFailure):
            participant.buffer_write(1, "a", "new")

    def test_recover_aborts_undecided_by_presumed_abort(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.buffer_write(1, "a", "new")
        participant.prepare(1)
        participant.crash()
        resolutions = participant.recover(decisions={})
        assert resolutions == {1: "aborted (presumed abort)"}
        assert participant.read_latest("a").value == "a0"

    def test_recover_completes_committed_in_doubt(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.buffer_write(1, "a", "decided")
        participant.prepare(1)
        participant.crash()
        participant.recover(decisions={1: True})
        installed = participant.complete_recovered_commit(
            1, version=42, deps_per_key={"a": DependencyList()}
        )
        assert [e.value for e in installed] == ["decided"]
        assert participant.read_latest("a").version == 42

    def test_recover_while_alive_rejected(self, participant: Participant) -> None:
        with pytest.raises(ParticipantFailure):
            participant.recover(decisions={})

    def test_crash_loses_volatile_locks(self, participant: Participant) -> None:
        start_txn(participant)
        participant.lock(1, "a", LockMode.EXCLUSIVE)
        participant.crash()
        participant.recover(decisions={})
        # A fresh transaction can lock immediately: the old lock is gone.
        participant.register_txn(2, age=2, on_wound=lambda _: None)
        grant = participant.lock(2, "a", LockMode.EXCLUSIVE)
        assert grant.triggered
