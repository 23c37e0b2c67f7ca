"""Pessimistic lock-based coherence: the zero-inconsistency bound.

The paper's detector trades a small inconsistency rate for cache-local
latency (§V). This protocol is the opposite corner of that trade-off,
implemented over the existing wound-wait :class:`~repro.db.locks.LockManager`:

* every edge sharing a backend shares one :class:`LockingService`, whose
  lock manager spans all of that backend's readers;
* a read-only transaction holds a SHARED lock on every key it has read
  until it commits, and every first-read-per-timestep is validated against
  the backend (a real round trip, counted in ``stats.retries`` — this is
  the latency cost the race experiment measures);
* committed updates acquire a transient EXCLUSIVE lock per written key with
  an older (always-winning) wound-wait age, so every in-flight reader
  holding that key SHARED is wounded and aborts at its next read.

A committed read-only transaction therefore observed, for every key, the
newest committed version at read time, and no key it read was overwritten
before it committed — its whole read set is the database state at commit
time, i.e. it is serializable. The property suite asserts the consequence:
zero recorded inconsistencies, always (``zero_inconsistency=True`` in the
registry).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cache.base import CacheServer
from repro.db.locks import LockManager, LockMode
from repro.errors import TransactionAborted
from repro.types import (
    CommittedTransaction,
    Key,
    ReadOnlyTransactionRecord,
    TransactionOutcome,
    TxnId,
    VersionedValue,
)

__all__ = ["LockingService", "LockCoherentCache"]


class LockingService:
    """Per-backend lock authority shared by every edge on that backend.

    Writer commits are observed through the database's commit listener and
    replayed as transient EXCLUSIVE acquisitions. Writer pseudo-transactions
    use negative ids and strictly decreasing negative ages, so wound-wait
    always resolves in the writer's favour — readers never block writers,
    matching the paper's asymmetric setting (read-only edge transactions vs
    authoritative backend updates).
    """

    def __init__(self, sim, database) -> None:
        self._sim = sim
        self.locks = LockManager(sim)
        self._writer_ids = itertools.count(-1, -1)
        #: Commits replayed into the lock table, for tests/reports.
        self.write_locks_replayed = 0
        database.add_commit_listener(self._on_commit)

    def close(self) -> None:
        """Drop the wound callbacks of reads still in flight; call once the
        run is over.

        Each is a bound method of the cache that holds this service, so a
        read left open would tie the two into a reference cycle.
        """
        self.locks.close()

    def _on_commit(self, txn: CommittedTransaction) -> None:
        if not txn.writes:
            return
        writer = next(self._writer_ids)
        # Age == id: negative and strictly decreasing, so every writer is
        # "older" than every reader (readers use their positive txn ids).
        self.locks.register(writer, writer, lambda _txn: None)
        for key in txn.writes:
            self.locks.acquire(writer, key, LockMode.EXCLUSIVE)
            self.write_locks_replayed += 1
        self.locks.release_all(writer)


@dataclass(slots=True)
class _LockContext:
    """Per-transaction lock state at one edge."""

    wounded: bool = False
    locked: set[Key] = field(default_factory=set)


class LockCoherentCache(CacheServer):
    """Edge cache that serves only backend-current, lock-protected reads."""

    def __init__(self, sim, backend, *, service: LockingService, capacity=None, name="lock-cache"):
        super().__init__(sim, backend, capacity=capacity, name=name)
        self._service = service
        self._contexts: dict[TxnId, _LockContext] = {}
        #: Validation round trips that found the cached entry stale.
        self.validation_refreshes = 0
        #: Reads aborted because a writer wounded the holder.
        self.wound_aborts = 0
        self._validated_at: dict[Key, float] = {}

    # ------------------------------------------------------------------
    # Consistency hook
    # ------------------------------------------------------------------

    def _check_read(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        entry: VersionedValue,
    ) -> tuple[VersionedValue, bool]:
        context = self._contexts.get(txn_id)
        if context is None:
            context = self._contexts[txn_id] = _LockContext()
            self._service.locks.register(txn_id, txn_id, self._on_wound)
        if context.wounded:
            self._abort_with(txn_id, "wounded by a conflicting writer")
        key = entry.key
        if key not in context.locked:
            grant = self._service.locks.acquire(txn_id, key, LockMode.SHARED)
            if not grant.triggered:
                # Only transient writer X locks can conflict; no-wait rather
                # than block the simulated read path.
                self._abort_with(txn_id, "lock conflict with in-flight writer")
            context.locked.add(key)
        retried = False
        now = self._sim.now
        if self._validated_at.get(key) != now:
            fresh = self._backend.read_entry(key)
            self.stats.retries += 1
            self._validated_at[key] = now
            if fresh.version != entry.version:
                self.validation_refreshes += 1
                self.storage.put(fresh, now)
                entry = fresh
                retried = True
        return entry, retried

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_wound(self, txn_id: TxnId) -> None:
        context = self._contexts.get(txn_id)
        if context is not None:
            context.wounded = True

    def _abort_with(self, txn_id: TxnId, reason: str) -> None:
        self.wound_aborts += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "protocol",
                "wound_abort",
                {"cache": self.name, "txn": txn_id, "reason": reason},
            )
        self._finish(txn_id, TransactionOutcome.ABORTED)
        raise TransactionAborted(txn_id, reason)

    def _fetch(self, key: Key) -> VersionedValue:
        entry = super()._fetch(key)
        # A miss just came from the backend: current as of now by definition.
        self._validated_at[key] = self._sim.now
        return entry

    def _finish(self, txn_id: TxnId, outcome: TransactionOutcome) -> None:
        if self._contexts.pop(txn_id, None) is not None:
            self._service.locks.release_all(txn_id)
        super()._finish(txn_id, outcome)
