"""Strict two-phase locking with wound-wait deadlock avoidance.

Each :class:`~repro.db.participant.Participant` owns one lock manager for the
keys it stores. Transactions acquire shared (S) or exclusive (X) locks during
their execution phase and hold them until commit or abort (strict 2PL), which
is what makes the database serializable — the property both the paper's
Theorem 1 proof and our consistency monitor build on.

Deadlock avoidance is wound-wait (Rosenkrantz et al.): a requester *older*
than a conflicting holder wounds (aborts) the younger holder; a *younger*
requester waits. Age is the transaction's start sequence number. Wounds are
issued only when a request has to wait, and only at its holders: a request
queued behind a younger *waiter* wounds nobody, so an older transaction can
come to wait for a younger one. The scheme is therefore deadlock-free when
every transaction requests its keys in one global order, as the coordinator
does (sorted keys, one mode per key), and not for arbitrary orders; the
``locking`` protocol's readers never wait at all, because they abort
instead. Transactions that have
entered the prepared state of two-phase commit are immune to wounding — a
prepared participant may no longer unilaterally abort — which is safe because
prepared transactions never wait for locks and therefore cannot take part in a
deadlock cycle.

Every grant goes through one routine, ``_settle``: it grants the head of a
key's FIFO queue for as long as no other holder blocks it. A request joins
the tail of the queue (an upgrade its head) and the key is settled; a release
fails the releasing transaction's own waits, drops its holds and settles each
key it asked for, in the order it asked. The queue holds only live requests.

Two ways to ask what is held. :meth:`LockManager.mode_held` probes one key's
holder map and is what the participant calls before every read and buffered
write; :meth:`LockManager.held_keys` and :meth:`LockManager.holders` return
copies and are for tests and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.errors import DeadlockDetected, SimulationError
from repro.sim.core import Event, Simulator
from repro.types import Key, TxnId

__all__ = ["LockMode", "LockManager", "LockRequest"]


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass(slots=True)
class LockRequest:
    """A queued lock request waiting for conflicting holders to release."""

    txn_id: TxnId
    mode: LockMode
    event: Event


@dataclass(slots=True)
class _KeyLock:
    """Lock state for a single key."""

    holders: dict[TxnId, LockMode] = field(default_factory=dict)
    queue: list[LockRequest] = field(default_factory=list)

    def blockers(self, txn_id: TxnId, mode: LockMode) -> list[TxnId]:
        """The other holders whose mode conflicts with ``mode``."""
        return [
            holder
            for holder, held in self.holders.items()
            if holder != txn_id and not mode.compatible_with(held)
        ]


class LockManager:
    """Per-participant S/X lock table.

    The manager itself knows nothing about transactions beyond an id, an age
    (start sequence) and a wound callback; the participant supplies those.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._locks: dict[Key, _KeyLock] = {}
        #: Keys each transaction asked for, in the order it asked
        #: (dict-as-ordered-set, so release order is acquisition order).
        self._keys_by_txn: dict[TxnId, dict[Key, None]] = {}
        self._ages: dict[TxnId, int] = {}
        self._wound_callbacks: dict[TxnId, Callable[[TxnId], None]] = {}
        self._prepared: set[TxnId] = set()
        #: Total wounds issued, for experiment statistics.
        self.wounds = 0

    # ------------------------------------------------------------------
    # Transaction registration
    # ------------------------------------------------------------------

    def register(self, txn_id: TxnId, age: int, on_wound: Callable[[TxnId], None]) -> None:
        """Introduce a transaction before its first lock request."""
        if txn_id in self._ages:
            raise SimulationError(f"transaction {txn_id} registered twice")
        self._ages[txn_id] = age
        self._wound_callbacks[txn_id] = on_wound
        self._keys_by_txn[txn_id] = {}

    def close(self) -> None:
        """Drop the wound callbacks of transactions still registered.

        Called once the simulation is over: a callback closes over its
        transaction's participants, and so over this table, so a
        transaction left in flight would otherwise keep the table in a
        reference cycle.
        """
        self._wound_callbacks.clear()

    def mark_prepared(self, txn_id: TxnId) -> None:
        """Make ``txn_id`` immune to wounding (entered 2PC prepared state)."""
        self._prepared.add(txn_id)

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    def acquire(self, txn_id: TxnId, key: Key, mode: LockMode) -> Event:
        """Request a lock; the returned event succeeds when granted.

        The event fails with :class:`DeadlockDetected` if the requester is
        wounded while waiting. An upgrade (S held, X requested) goes to the
        head of the queue, so it is granted as soon as its requester is the
        sole holder.
        """
        if txn_id not in self._ages:
            raise SimulationError(f"transaction {txn_id} not registered with lock manager")
        state = self._locks.get(key)
        if state is None:
            state = self._locks[key] = _KeyLock()
        held = state.holders.get(txn_id)
        if held is LockMode.EXCLUSIVE or held is mode:
            return self._sim.event().succeed(mode)  # already sufficient
        request = LockRequest(txn_id, mode, self._sim.event())
        if held is None:
            state.queue.append(request)
        else:
            state.queue.insert(0, request)
        self._keys_by_txn[txn_id][key] = None
        self._settle(state)
        if not request.event.triggered:
            self._wound_younger(txn_id, state.blockers(txn_id, mode))
        return request.event

    def release_all(self, txn_id: TxnId) -> None:
        """Fail ``txn_id``'s waits, release its locks, and grant what that
        frees, key by key in the order ``txn_id`` asked for them."""
        keys = self._keys_by_txn.pop(txn_id, {})
        for key in keys:
            state = self._locks[key]
            for request in [r for r in state.queue if r.txn_id == txn_id]:
                state.queue.remove(request)
                error = DeadlockDetected(txn_id, "lock wait cancelled by abort")
                request.event.fail(error)
            state.holders.pop(txn_id, None)
        for key in keys:
            self._settle(self._locks[key])
        self._ages.pop(txn_id, None)
        self._wound_callbacks.pop(txn_id, None)
        self._prepared.discard(txn_id)

    def mode_held(self, txn_id: TxnId, key: Key) -> LockMode | None:
        """The mode ``txn_id`` holds ``key`` in, ``None`` when it holds none.

        One probe of the key's holder map, no copy: what a participant asks
        before every read and buffered write. A queued request (an upgrade
        still waiting included) does not count — only a granted lock does.
        """
        state = self._locks.get(key)
        return state.holders.get(txn_id) if state is not None else None

    # ------------------------------------------------------------------
    # Introspection (tests and statistics) — these copy
    # ------------------------------------------------------------------

    def holders(self, key: Key) -> dict[TxnId, LockMode]:
        state = self._locks.get(key)
        return dict(state.holders) if state else {}

    def queue_length(self, key: Key) -> int:
        state = self._locks.get(key)
        return len(state.queue) if state else 0

    def held_keys(self, txn_id: TxnId) -> set[Key]:
        return {
            key
            for key in self._keys_by_txn.get(txn_id, ())
            if txn_id in self._locks[key].holders
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _settle(self, state: _KeyLock) -> None:
        """Grant the head of the queue for as long as nothing blocks it."""
        queue = state.queue
        while queue and not state.blockers(queue[0].txn_id, queue[0].mode):
            request = queue.pop(0)
            state.holders[request.txn_id] = request.mode
            request.event.succeed(request.mode)

    def _wound_younger(self, requester: TxnId, holders: list[TxnId]) -> None:
        requester_age = self._ages[requester]
        for holder in holders:
            holder_age = self._ages.get(holder)
            if holder_age is None or holder in self._prepared:
                continue
            if requester_age < holder_age:
                self.wounds += 1
                callback = self._wound_callbacks.get(holder)
                if callback is not None:
                    # Deliver asynchronously so the victim aborts through its
                    # own control flow, not re-entrantly inside acquire().
                    self._sim.schedule(0.0, callback, holder)
