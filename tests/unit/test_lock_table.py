"""Every small schedule of the wound-wait lock table keeps strict 2PL.

``db/locks.py`` is what makes the backend serializable, and so what
Theorem 1 and the consistency monitor rest on.  This module drives a real
:class:`LockManager` (on a real :class:`Simulator`, so wound callbacks are
delivered as in a run) through every sequence of up to :data:`DEPTH`
events with ``tools/explore.py``, at one small scope: three transactions
of distinct ages and two keys.  The events are

* ``S`` and ``X`` requests by a transaction that is not waiting, wounded or
  prepared (an ``X`` by a holder of ``S`` is an upgrade);
* ``prepare`` — ``mark_prepared``, after which the transaction requests
  nothing more and may not be wounded;
* ``release`` — ``release_all`` by a transaction that is not waiting: its
  commit, or an abort of its own;
* ``abort`` — ``release_all`` by a wounded transaction, waiting or not.
  A wound is delivered as soon as it is issued, but its abort may come
  any number of events later.

After every event the grants are checked against :class:`Lock`, a small
strict-2PL compatibility table with wound-wait's age rule and prepared
immunity added.  It checks properties and does not re-implement the queue:
grant order is compared as state (which transaction holds which key in
which mode), not as a sequence.  The invariants are listed on
:meth:`Run.apply`, :meth:`Run.check` and :meth:`Run.check_grants`; all of
them but deadlock freedom are also explored to :data:`GRANTS_DEPTH`.
"""

from __future__ import annotations

import pytest

from repro.db.locks import LockManager, LockMode
from repro.sim.core import Simulator
from tools.explore import Exploration, Violation, explore, replay

#: Transaction ids, which are their ages too: 1 is the oldest.
TXNS = (1, 2, 3)
KEYS = ("x", "y")
#: Longest event sequence explored.
DEPTH = 5
#: Distinct states reached within :data:`DEPTH` events.
STATES = 6_936
#: Distinct states reached one event deeper, where the first path that
#: breaks an invariant ends (:data:`KNOWN_FAULTS`).
DEEPER_STATES = 7_974
#: Explored with every invariant but deadlock freedom, and the distinct
#: states reached.
GRANTS_DEPTH = 8
GRANTS_STATES = 11_280
S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class Lock:
    """The strict-2PL table of one key: shared holders, or one exclusive.

    A transaction may hold both only in passing: an exclusive grant to
    the sole sharer is an upgrade.
    """

    def __init__(self) -> None:
        self.shared_holders: set[int] = set()
        self.exclusive_holder: int | None = None

    def can_grant_shared(self, txn: int) -> bool:
        return self.exclusive_holder in (None, txn)

    def can_grant_exclusive(self, txn: int) -> bool:
        if self.exclusive_holder is not None:
            return self.exclusive_holder == txn
        return self.shared_holders <= {txn}  # free, or the sole-holder upgrade

    def grant(self, txn: int, mode: LockMode) -> None:
        if mode is S:
            self.shared_holders.add(txn)
        else:
            self.shared_holders.discard(txn)
            self.exclusive_holder = txn

    def release(self, txn: int) -> None:
        self.shared_holders.discard(txn)
        if self.exclusive_holder == txn:
            self.exclusive_holder = None

    def mode(self, txn: int) -> LockMode | None:
        if self.exclusive_holder == txn:
            return X
        return S if txn in self.shared_holders else None

    def blockers(self, txn: int, mode: LockMode) -> set[int]:
        """The other holders whose mode conflicts with ``mode``."""
        if self.exclusive_holder not in (None, txn):
            return {self.exclusive_holder}
        return self.shared_holders - {txn} if mode is X else set()


def may_wound(requester: int, victim: int, prepared: set[int]) -> bool:
    """Wound-wait: only an older requester wounds, never a prepared victim."""
    return requester < victim and victim not in prepared


class Run:
    """One lock manager plus what its transactions have been told."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.locks = LockManager(self.sim)
        #: The reference table, fed only with grants the events returned.
        self.table = {key: Lock() for key in KEYS}
        #: Each waiting transaction's request: (key, mode, event).
        self.waiting: dict[int, tuple] = {}
        self.wounded: set[int] = set()
        self.prepared: set[int] = set()
        self.released: set[int] = set()
        #: Wounds delivered by the last event: (requester, key, mode, victim).
        self._wounds: list[tuple] = []
        self._request: tuple | None = None
        for txn in TXNS:
            self.locks.register(txn, age=txn, on_wound=self._on_wound)

    def _on_wound(self, victim: int) -> None:
        self._wounds.append((*self._request, victim))

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def events(self) -> list[tuple]:
        events: list[tuple] = []
        for txn in TXNS:
            if txn in self.released:
                continue
            if txn in self.wounded:
                events.append(("abort", txn))
                continue
            if txn in self.waiting:
                continue
            if txn not in self.prepared:
                for key in KEYS:
                    held = self.table[key].mode(txn)
                    if held is None:
                        events.append(("S", txn, key))
                    if held is not X:
                        events.append(("X", txn, key))
                events.append(("prepare", txn))
            events.append(("release", txn))
        return events

    def apply(self, event: tuple) -> None:
        """Apply ``event``, deliver its wounds, and check, against the table:

        * no grant is made that the table forbids;
        * every wound targets a younger, unprepared holder whose mode
          conflicts with the request;
        * only a releasing transaction's waits fail, and all of them do.
        """
        kind, txn, *rest = event
        self._wounds.clear()
        blockers: set[int] = set()
        if kind in ("S", "X"):
            (key,) = rest
            mode = S if kind == "S" else X
            blockers = self.table[key].blockers(txn, mode)
            self._request = (txn, key, mode)
            self.waiting[txn] = (key, mode, self.locks.acquire(txn, key, mode))
        elif kind == "prepare":
            self.locks.mark_prepared(txn)
            self.prepared.add(txn)
        elif kind in ("release", "abort"):
            self.locks.release_all(txn)
            for lock in self.table.values():
                lock.release(txn)
            self.released.add(txn)
            self.wounded.discard(txn)
        else:  # pragma: no cover - a typo in the event table
            raise ValueError(kind)
        self.sim.run()

        for requester, key, mode, victim in self._wounds:
            if not may_wound(requester, victim, self.prepared):
                state = "prepared" if victim in self.prepared else "older"
                raise Violation(f"T{requester} wounded {state} T{victim}")
            if victim not in blockers:
                raise Violation(
                    f"T{requester} wounded T{victim}, which does not block "
                    f"{mode.value} on {key}"
                )
            self.wounded.add(victim)
        for waiter, (key, mode, request) in list(self.waiting.items()):
            if not request.triggered:
                continue
            del self.waiting[waiter]
            if waiter in self.released:
                if request.ok:
                    raise Violation(f"T{waiter} granted {key} after it released")
                continue
            if not request.ok:
                raise Violation(f"T{waiter}'s {mode.value} on {key} failed")
            lock = self.table[key]
            granted = lock.can_grant_shared if mode is S else lock.can_grant_exclusive
            if not granted(waiter):
                others = {*lock.shared_holders, lock.exclusive_holder} - {None, waiter}
                raise Violation(
                    f"T{waiter} granted {mode.value} on {key} beside {sorted(others)}"
                )
            lock.grant(waiter, mode)
        still_open = self.released.intersection(self.waiting)
        if still_open:
            raise Violation(f"{still_open} released with a wait still open")

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check(self) -> None:
        """:meth:`check_grants`, and after every event the waits-for graph
        among unwounded transactions has no cycle, so wound-wait never
        deadlocks."""
        self.check_grants()
        waits_for = {
            txn: self.table[key].blockers(txn, mode) - self.wounded
            for txn, (key, mode, _) in self.waiting.items()
            if txn not in self.wounded
        }
        for start in waits_for:
            reached, frontier = set(), [start]
            while frontier:
                for blocker in waits_for.get(frontier.pop(), ()):
                    if blocker == start:
                        raise Violation(f"deadlock: waits-for {waits_for}")
                    if blocker not in reached:
                        reached.add(blocker)
                        frontier.append(blocker)

    def check_grants(self) -> None:
        """After every event:

        * ``mode_held`` agrees with the grants the events returned;
        * no grant is lost: on a key with waiters, the table refuses at
          least one of them (the queue's head, whichever it is).
        """
        for key, lock in self.table.items():
            for txn in TXNS:
                held = self.locks.mode_held(txn, key)
                if held is not lock.mode(txn):
                    raise Violation(
                        f"mode_held(T{txn}, {key}) is {held}, granted {lock.mode(txn)}"
                    )
            waiters = [
                (txn, mode) for txn, (at, mode, _) in self.waiting.items() if at == key
            ]
            if waiters and not any(lock.blockers(txn, mode) for txn, mode in waiters):
                raise Violation(f"{key} grantable to every waiter {waiters}")

    def key(self) -> tuple:
        """Everything that decides what happens next: the table's holders
        and live queues, and each transaction's standing."""
        state = []
        for key in KEYS:
            holders = self.locks.holders(key)
            queue = self.locks._locks[key].queue if key in self.locks._locks else ()
            state.append(
                (
                    tuple(sorted((txn, mode.value) for txn, mode in holders.items())),
                    tuple((r.txn_id, r.mode.value) for r in queue),
                )
            )
        standing = tuple(
            (
                txn in self.released,
                txn in self.wounded,
                txn in self.prepared,
                self.waiting[txn][:2] if txn in self.waiting else None,
            )
            for txn in TXNS
        )
        return tuple(state), standing


def explore_locks(depth: int = DEPTH, check=Run.check) -> Exploration:
    return explore(Run, Run.events, Run.apply, check, Run.key, depth)


def fails(path: tuple) -> str:
    """The violation ``path`` ends in, replayed from a fresh root."""
    with pytest.raises(Violation) as violation:
        replay(Run, Run.apply, path).check()
    return str(violation.value)


def test_every_schedule_keeps_strict_2pl() -> None:
    states, path, message = explore_locks()
    assert path is None, f"{message} after {path}"
    # Pinned: a lock table that reaches a different state space has
    # changed its rules, not just its structure.
    assert states == STATES


def test_grants_hold_three_events_deeper() -> None:
    """Every invariant but deadlock freedom, which :data:`KNOWN_FAULTS`
    breaks at depth 6, holds to :data:`GRANTS_DEPTH`."""
    states, path, message = explore_locks(GRANTS_DEPTH, Run.check_grants)
    assert path is None, f"{message} after {path}"
    assert states == GRANTS_STATES


# ----------------------------------------------------------------------
# Faults of db/locks.py found by this check
# ----------------------------------------------------------------------

#: Not yet mended.  Each is the shortest schedule that shows its fault,
#: replayed here, so it must keep failing until ``db/locks.py`` mends it.
#: Then move it to :data:`MENDED`, and raise :data:`DEPTH` once none is
#: left.
KNOWN_FAULTS = {
    # T2's S on x queues behind T3's X without wounding it (no holder of x
    # conflicts), so once T1 leaves, older T2 waits for younger T3, and T3
    # then waits for T2 on y.  The coordinator locks in sorted key order,
    # one mode per key, which rules this cycle out
    # (``test_multi_shard.py::TestCommitPathOrder``); the table alone does
    # not.
    "older-waits-behind-younger": (
        (("S", 1, "x"), ("S", 2, "y"), ("X", 3, "x"), ("S", 2, "x"),
         ("release", 1), ("X", 3, "y")),
        "deadlock",
    ),
}

#: Mended since they were found: each schedule must replay clean, every
#: event allowed and every invariant kept after it.
MENDED = {
    # T1 holds S on x; T2's X on x waits, and T3's S queues behind it.  T2
    # is wounded on y and aborts: its request leaves x's queue, so T3's S
    # is granted beside T1's at once, not when T1 leaves.
    "waiter-behind-cancelled-request": (
        ("S", 1, "x"), ("S", 2, "y"), ("X", 2, "x"), ("X", 1, "y"),
        ("S", 3, "x"), ("abort", 2),
    ),
    # Wounded T3 waits to upgrade x.  Its abort fails that wait before it
    # settles x's queue, so a finished transaction is never granted X.
    "release-grants-itself": (
        ("S", 2, "x"), ("S", 3, "x"), ("X", 3, "x"), ("X", 2, "x"),
        ("X", 1, "x"), ("abort", 2), ("abort", 3),
    ),
}


@pytest.mark.parametrize("path, message", KNOWN_FAULTS.values(), ids=KNOWN_FAULTS)
def test_a_known_fault_still_shows(path: tuple, message: str) -> None:
    assert message in fails(path)


@pytest.mark.parametrize("path", MENDED.values(), ids=MENDED)
def test_a_mended_fault_replays_clean(path: tuple) -> None:
    run = Run()
    for event in path:
        assert event in run.events(), event
        run.apply(event)
        run.check()


def test_one_event_deeper_finds_a_known_fault() -> None:
    """:data:`DEPTH` is the deepest clean bound, not one that hides more."""
    states, path, _ = explore_locks(DEPTH + 1)
    assert path == KNOWN_FAULTS["older-waits-behind-younger"][0]
    assert states == DEEPER_STATES


# ----------------------------------------------------------------------
# Planted faults: the check must find each, with a replayable schedule
# ----------------------------------------------------------------------


def _upgrade_beside_a_sharer(monkeypatch) -> None:
    """An upgrade is granted in place though another transaction shares."""
    acquire = LockManager.acquire

    def planted(self, txn_id, key, mode):
        state = self._locks.get(key)
        if mode is X and state is not None and state.holders.get(txn_id) is S:
            state.holders[txn_id] = X
            return self._sim.event().succeed(mode)
        return acquire(self, txn_id, key, mode)

    monkeypatch.setattr(LockManager, "acquire", planted)


def _younger_wounds_older(monkeypatch) -> None:
    """No age rule: a requester wounds every unprepared conflicting holder."""

    def planted(self, requester, holders):
        for holder in holders:
            if holder in self._ages and holder not in self._prepared:
                self._sim.schedule(0.0, self._wound_callbacks[holder], holder)

    monkeypatch.setattr(LockManager, "_wound_younger", planted)


def _release_skips_a_waiter(monkeypatch) -> None:
    """A release that frees a key with two or more waiters drops the head
    one instead of granting it.  (A key an ``acquire`` settles free has
    only the new request queued.)"""
    settle = LockManager._settle

    def planted(self, state):
        if len(state.queue) > 1 and not state.holders:
            state.queue.pop(0)
        settle(self, state)

    monkeypatch.setattr(LockManager, "_settle", planted)


@pytest.mark.parametrize(
    "plant, message, events",
    [
        (_upgrade_beside_a_sharer, "granted X on x beside [2]", 3),
        (_younger_wounds_older, "wounded older", 2),
        (_release_skips_a_waiter, "grantable to every waiter", 4),
    ],
    ids=["upgrade-beside-a-sharer", "younger-wounds-older", "release-skips-a-waiter"],
)
def test_a_planted_fault_is_found(monkeypatch, plant, message, events) -> None:
    plant(monkeypatch)
    _, path, found = explore_locks()
    assert path is not None, "the planted fault went unnoticed"
    assert message in found
    assert len(path) == events, path
    assert fails(path) == found
