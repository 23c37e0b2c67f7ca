"""Strict two-phase locking with wound-wait deadlock avoidance.

Each :class:`~repro.db.participant.Participant` owns one lock manager for the
keys it stores. Transactions acquire shared (S) or exclusive (X) locks during
their execution phase and hold them until commit or abort (strict 2PL), which
is what makes the database serializable — the property both the paper's
Theorem 1 proof and our consistency monitor build on.

Deadlock avoidance is wound-wait (Rosenkrantz et al.): a requester *older*
than a conflicting holder wounds (aborts) the younger holder; a *younger*
requester waits. Age is the transaction's start sequence number, so the
scheme is deadlock-free and the oldest transaction always makes progress.
Transactions that have entered the prepared state of two-phase commit are
immune to wounding — a prepared participant may no longer unilaterally abort
— which is safe because prepared transactions never wait for locks and
therefore cannot take part in a deadlock cycle.

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
    age: int
    mode: LockMode
    event: Event
    cancelled: bool = False


@dataclass(slots=True)
class _KeyLock:
    """Lock state for a single key."""

    holders: dict[TxnId, LockMode] = field(default_factory=dict)
    queue: list[LockRequest] = field(default_factory=list)


class LockManager:
    """Per-participant S/X lock table.

    The manager itself knows nothing about transactions beyond an id, an age
    (start sequence) and a wound callback; the participant supplies those.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._locks: dict[Key, _KeyLock] = {}
        self._held_by_txn: dict[TxnId, set[Key]] = {}
        #: Keys on whose queue each transaction ever waited, in join order.
        #: Lets release_all cancel waits without scanning every lock table
        #: entry in the store (dict-as-ordered-set for determinism).
        self._queued_by_txn: dict[TxnId, dict[Key, None]] = {}
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
        self._held_by_txn[txn_id] = set()

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
        wounded while waiting. Lock upgrades (S already held, X requested)
        are honoured in place when the requester is the sole holder and get
        queue priority otherwise.
        """
        if txn_id not in self._ages:
            raise SimulationError(f"transaction {txn_id} not registered with lock manager")
        event = self._sim.event()
        state = self._locks.get(key)
        if state is None:
            state = self._locks[key] = _KeyLock()

        held = state.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or held is mode:
                event.succeed(mode)  # already sufficient
                return event
            # Upgrade S -> X.
            others = [t for t in state.holders if t != txn_id]
            if not others:
                state.holders[txn_id] = LockMode.EXCLUSIVE
                event.succeed(mode)
                return event
            self._wound_younger(txn_id, others)
            state.queue.insert(0, LockRequest(txn_id, self._ages[txn_id], mode, event))
            self._queued_by_txn.setdefault(txn_id, {})[key] = None
            return event

        conflicting = [
            holder
            for holder, held_mode in state.holders.items()
            if not mode.compatible_with(held_mode)
        ]
        if not conflicting and not self._blocked_by_queue(state, txn_id, mode):
            self._grant(state, txn_id, key, mode)
            event.succeed(mode)
            return event

        if conflicting:
            self._wound_younger(txn_id, conflicting)
        state.queue.append(LockRequest(txn_id, self._ages[txn_id], mode, event))
        self._queued_by_txn.setdefault(txn_id, {})[key] = None
        return event

    def release_all(self, txn_id: TxnId) -> None:
        """Release every lock held by ``txn_id`` and cancel its waits."""
        keys = self._held_by_txn.pop(txn_id, set())
        for key in keys:
            state = self._locks.get(key)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            self._promote_waiters(state, key)
        for queued_key in self._queued_by_txn.pop(txn_id, ()):
            state = self._locks.get(queued_key)
            if state is None:
                continue
            for request in state.queue:
                if request.txn_id == txn_id and not request.cancelled:
                    request.cancelled = True
                    if not request.event.triggered:
                        request.event.fail(
                            DeadlockDetected(txn_id, "lock wait cancelled by abort")
                        )
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
        return sum(1 for r in state.queue if not r.cancelled) if state else 0

    def held_keys(self, txn_id: TxnId) -> set[Key]:
        return set(self._held_by_txn.get(txn_id, set()))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grant(self, state: _KeyLock, txn_id: TxnId, key: Key, mode: LockMode) -> None:
        state.holders[txn_id] = mode
        self._held_by_txn.setdefault(txn_id, set()).add(key)

    def _blocked_by_queue(self, state: _KeyLock, txn_id: TxnId, mode: LockMode) -> bool:
        """FIFO fairness: a new request must not overtake waiting ones.

        Shared requests may still be granted alongside compatible holders if
        every queued request is also shared (no writer starvation risk).
        """
        for request in state.queue:
            if request.cancelled:
                continue
            if mode is LockMode.EXCLUSIVE or request.mode is LockMode.EXCLUSIVE:
                return True
        return False

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

    def _promote_waiters(self, state: _KeyLock, key: Key) -> None:
        """Grant queued requests that are now compatible, in FIFO order."""
        while state.queue:
            request = state.queue[0]
            if request.cancelled:
                state.queue.pop(0)
                continue
            held = state.holders.get(request.txn_id)
            if held is LockMode.SHARED and request.mode is LockMode.EXCLUSIVE:
                # Pending upgrade: grant once sole holder.
                others = [t for t in state.holders if t != request.txn_id]
                if others:
                    return
                state.holders[request.txn_id] = LockMode.EXCLUSIVE
                state.queue.pop(0)
                if not request.event.triggered:
                    request.event.succeed(request.mode)
                continue
            conflicting = [
                holder
                for holder, held_mode in state.holders.items()
                if holder != request.txn_id
                and not request.mode.compatible_with(held_mode)
            ]
            if conflicting:
                return
            state.queue.pop(0)
            self._grant(state, request.txn_id, key, request.mode)
            if not request.event.triggered:
                request.event.succeed(request.mode)
