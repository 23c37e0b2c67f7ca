"""A storage participant (shard) in the two-phase-commit protocol.

Each participant owns a :class:`~repro.db.store.VersionedStore`, a
:class:`~repro.db.locks.LockManager` and a :class:`~repro.db.wal.WriteAheadLog`.
The coordinator drives it through the classic lifecycle: lock acquisition and
write buffering during transaction execution, then PREPARE (force a log
record carrying the buffered writes, vote), then COMMIT (install versions,
release locks) or ABORT (discard, release).

Failure injection: :meth:`crash` wipes volatile state (locks, buffered
writes) while preserving the "durable" store and log; :meth:`recover` replays
the log and resolves prepared-but-undecided transactions against the
coordinator's decision record, implementing presumed abort.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.deplist import DependencyList
from repro.db.locks import LockManager, LockMode
from repro.db.store import VersionedStore
from repro.db.wal import RecordType, WriteAheadLog
from repro.errors import InvalidTransactionState, ParticipantFailure
from repro.sim.core import Event, Simulator
from repro.types import Key, TxnId, Version, VersionedValue

__all__ = ["Participant"]


class Participant:
    """One shard of the transactional key-value store."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self.store = VersionedStore()
        self.locks = LockManager(sim)
        self.wal = WriteAheadLog(name=f"{name}-wal")
        self._buffered: dict[TxnId, dict[Key, object]] = {}
        self._prepared: set[TxnId] = set()
        self._crashed = False
        #: Votes returned, for statistics and tests.
        self.votes_yes = 0
        self.votes_no = 0

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------

    def register_txn(
        self, txn_id: TxnId, age: int, on_wound: Callable[[TxnId], None]
    ) -> None:
        self._require_alive()
        self.locks.register(txn_id, age, on_wound)
        self.wal.append(RecordType.BEGIN, txn_id)
        self._buffered[txn_id] = {}

    def lock(self, txn_id: TxnId, key: Key, mode: LockMode) -> Event:
        self._require_alive()
        return self.locks.acquire(txn_id, key, mode)

    def read(self, txn_id: TxnId, key: Key) -> VersionedValue:
        """Read under an already-held lock (asserted, not re-acquired)."""
        self._require_alive()
        if self.locks.mode_held(txn_id, key) is None:
            raise InvalidTransactionState(txn_id, f"read of {key!r} without a lock")
        return self.store.get(key)

    def read_latest(self, key: Key) -> VersionedValue:
        """Lock-free read of the current committed version.

        This is the single-entry read path caches use (§III-B: "performing
        single-entry reads (no locks, no transactions)").
        """
        self._require_alive()
        return self.store.get(key)

    def buffer_write(self, txn_id: TxnId, key: Key, value: object) -> None:
        self._require_alive()
        mode = self.locks.mode_held(txn_id, key)
        if mode is None:
            raise InvalidTransactionState(txn_id, f"write of {key!r} without a lock")
        if mode is not LockMode.EXCLUSIVE:
            raise InvalidTransactionState(txn_id, f"write of {key!r} without X lock")
        self._buffered.setdefault(txn_id, {})[key] = value

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def prepare(self, txn_id: TxnId) -> bool:
        """Phase one: force the buffered writes to the log and vote.

        A crashed participant votes NO (the coordinator treats silence and a
        NO vote identically: global abort).
        """
        if self._crashed:
            self.votes_no += 1
            return False
        buffered = self._buffered.get(txn_id)
        if buffered is None:
            raise InvalidTransactionState(txn_id, "prepare without registration")
        self.wal.append(RecordType.PREPARE, txn_id, dict(buffered))
        self._prepared.add(txn_id)
        self.locks.mark_prepared(txn_id)
        self.votes_yes += 1
        return True

    def commit(
        self,
        txn_id: TxnId,
        version: Version,
        deps_per_key: Mapping[Key, DependencyList],
    ) -> list[VersionedValue]:
        """Phase two, commit decision: install writes and release locks."""
        self._require_alive()
        if txn_id not in self._prepared:
            raise InvalidTransactionState(txn_id, "commit before prepare")
        buffered = self._buffered.pop(txn_id, {})
        self.wal.append(RecordType.COMMIT, txn_id)
        installed = [
            self.store.install(key, value, version, deps_per_key[key])
            for key, value in buffered.items()
        ]
        self._prepared.discard(txn_id)
        self.locks.release_all(txn_id)
        return installed

    def abort(self, txn_id: TxnId) -> None:
        """Discard buffered writes and release locks (any pre-commit state)."""
        if self._crashed:
            # Volatile state is already gone; log the decision if possible.
            return
        if txn_id in self._buffered or txn_id in self._prepared:
            self.wal.append(RecordType.ABORT, txn_id)
        self._buffered.pop(txn_id, None)
        self._prepared.discard(txn_id)
        self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Lose volatile state; keep the store and the log (the "disk")."""
        self._crashed = True
        self._buffered.clear()
        self._prepared.clear()
        self.locks = LockManager(self._sim)

    def recover(self, decisions: Mapping[TxnId, bool]) -> dict[TxnId, str]:
        """Replay the log; resolve in-doubt transactions via ``decisions``.

        ``decisions`` maps txn id -> True (committed) as recorded by the
        coordinator; missing entries mean abort (presumed abort). Returns the
        resolution per in-doubt transaction for test assertions. Committed
        in-doubt writes are *not* re-installed here — the coordinator retains
        authority over versions and dependency lists and re-drives commit via
        :meth:`complete_recovered_commit`.
        """
        if not self._crashed:
            raise ParticipantFailure(self.name, "recover called while alive")
        self._crashed = False
        resolutions: dict[TxnId, str] = {}
        for txn_id, record in self.wal.prepared_undecided().items():
            if decisions.get(txn_id):
                self._buffered[txn_id] = dict(record.payload)
                self._prepared.add(txn_id)
                resolutions[txn_id] = "in-doubt: awaiting coordinator commit"
            else:
                self.wal.append(RecordType.ABORT, txn_id)
                resolutions[txn_id] = "aborted (presumed abort)"
        return resolutions

    def complete_recovered_commit(
        self,
        txn_id: TxnId,
        version: Version,
        deps_per_key: Mapping[Key, DependencyList],
    ) -> list[VersionedValue]:
        """Finish an in-doubt transaction the recovery marked committed.

        Locks died with the crash; installation is safe because the
        coordinator had already serialised this transaction before the
        failure.
        """
        if txn_id not in self._prepared:
            raise InvalidTransactionState(txn_id, "no recovered prepare state")
        buffered = self._buffered.pop(txn_id, {})
        self.wal.append(RecordType.COMMIT, txn_id)
        self._prepared.discard(txn_id)
        return [
            self.store.install(key, value, version, deps_per_key[key])
            for key, value in buffered.items()
        ]

    def _require_alive(self) -> None:
        if self._crashed:
            raise ParticipantFailure(self.name, "participant is crashed")
