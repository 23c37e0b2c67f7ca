"""Unit tests for the wound-wait lock manager."""

from __future__ import annotations

import pytest

from repro.db.locks import LockManager, LockMode
from repro.errors import DeadlockDetected, SimulationError
from repro.sim.core import Simulator


@pytest.fixture
def locks(sim: Simulator) -> LockManager:
    return LockManager(sim)


def register(locks: LockManager, txn_id: int, wounds: list[int] | None = None) -> None:
    sink = wounds if wounds is not None else []
    locks.register(txn_id, age=txn_id, on_wound=sink.append)


class TestGrants:
    def test_shared_locks_coexist(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        a = locks.acquire(1, "k", LockMode.SHARED)
        b = locks.acquire(2, "k", LockMode.SHARED)
        assert a.triggered and b.triggered
        assert set(locks.holders("k")) == {1, 2}

    def test_exclusive_excludes_shared(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        waiting = locks.acquire(2, "k", LockMode.SHARED)
        assert not waiting.triggered
        assert locks.queue_length("k") == 1

    def test_shared_blocks_exclusive(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.SHARED)
        waiting = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        assert not waiting.triggered

    def test_reacquire_same_mode_is_idempotent(self, sim, locks) -> None:
        register(locks, 1)
        locks.acquire(1, "k", LockMode.SHARED)
        again = locks.acquire(1, "k", LockMode.SHARED)
        assert again.triggered

    def test_exclusive_holder_may_request_shared(self, sim, locks) -> None:
        register(locks, 1)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        weaker = locks.acquire(1, "k", LockMode.SHARED)
        assert weaker.triggered

    def test_unregistered_transaction_rejected(self, sim, locks) -> None:
        with pytest.raises(SimulationError):
            locks.acquire(99, "k", LockMode.SHARED)

    def test_double_registration_rejected(self, sim, locks) -> None:
        register(locks, 1)
        with pytest.raises(SimulationError):
            register(locks, 1)


class TestReleaseAndPromotion:
    def test_release_grants_next_waiter(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        waiting = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        locks.release_all(1)
        assert waiting.triggered
        assert set(locks.holders("k")) == {2}

    def test_release_grants_multiple_compatible_waiters(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        register(locks, 3)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        w2 = locks.acquire(2, "k", LockMode.SHARED)
        w3 = locks.acquire(3, "k", LockMode.SHARED)
        locks.release_all(1)
        assert w2.triggered and w3.triggered
        assert set(locks.holders("k")) == {2, 3}

    def test_fifo_no_overtaking_of_exclusive_waiter(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        register(locks, 3)
        locks.acquire(1, "k", LockMode.SHARED)
        blocked_writer = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        late_reader = locks.acquire(3, "k", LockMode.SHARED)
        assert not blocked_writer.triggered
        # The late shared request must queue behind the exclusive waiter.
        assert not late_reader.triggered
        locks.release_all(1)
        assert blocked_writer.triggered
        assert not late_reader.triggered
        locks.release_all(2)
        assert late_reader.triggered

    def test_release_all_clears_held_keys(self, sim, locks) -> None:
        register(locks, 1)
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        assert locks.held_keys(1) == {"a", "b"}
        locks.release_all(1)
        assert locks.held_keys(1) == set()
        assert locks.holders("a") == {}


class TestUpgrade:
    def test_sole_holder_upgrades_in_place(self, sim, locks) -> None:
        register(locks, 1)
        locks.acquire(1, "k", LockMode.SHARED)
        upgrade = locks.acquire(1, "k", LockMode.EXCLUSIVE)
        assert upgrade.triggered
        assert locks.holders("k")[1] is LockMode.EXCLUSIVE

    def test_upgrade_waits_for_other_readers(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(2, "k", LockMode.SHARED)
        # Txn 2 (younger) requests upgrade; txn 1 (older) still reads.
        upgrade = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        assert not upgrade.triggered
        locks.release_all(1)
        assert upgrade.triggered
        assert locks.holders("k")[2] is LockMode.EXCLUSIVE

    def test_older_upgrader_wounds_younger_reader(self, sim, locks) -> None:
        wounds: list[int] = []
        locks.register(1, age=1, on_wound=wounds.append)
        locks.register(2, age=2, on_wound=wounds.append)
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(2, "k", LockMode.SHARED)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        sim.run()
        assert wounds == [2]


class TestWoundWait:
    def test_older_requester_wounds_younger_holder(self, sim, locks) -> None:
        wounds: list[int] = []
        locks.register(1, age=1, on_wound=wounds.append)
        locks.register(2, age=2, on_wound=wounds.append)
        locks.acquire(2, "k", LockMode.EXCLUSIVE)
        waiting = locks.acquire(1, "k", LockMode.EXCLUSIVE)
        sim.run()
        assert wounds == [2]
        assert locks.wounds == 1
        assert not waiting.triggered  # granted once the victim releases
        locks.release_all(2)
        assert waiting.triggered

    def test_younger_requester_waits(self, sim, locks) -> None:
        wounds: list[int] = []
        locks.register(1, age=1, on_wound=wounds.append)
        locks.register(2, age=2, on_wound=wounds.append)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        waiting = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        sim.run()
        assert wounds == []
        assert not waiting.triggered

    def test_prepared_holder_is_immune(self, sim, locks) -> None:
        wounds: list[int] = []
        locks.register(1, age=1, on_wound=wounds.append)
        locks.register(2, age=2, on_wound=wounds.append)
        locks.acquire(2, "k", LockMode.EXCLUSIVE)
        locks.mark_prepared(2)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        sim.run()
        assert wounds == []

    def test_abort_cancels_queued_waits_with_deadlock_error(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        waiting = locks.acquire(2, "k", LockMode.EXCLUSIVE)
        locks.release_all(2)  # victim aborts while queued
        assert waiting.triggered and not waiting.ok
        assert isinstance(waiting.value, DeadlockDetected)
        # The holder is unaffected and later release leaves a clean table.
        locks.release_all(1)
        assert locks.holders("k") == {}


def assert_probe_agrees(locks: LockManager, txn_ids, keys) -> None:
    """``mode_held`` answers what the copying introspection API answers."""
    for txn_id in txn_ids:
        held = locks.held_keys(txn_id)
        for key in keys:
            mode = locks.mode_held(txn_id, key)
            assert mode is locks.holders(key).get(txn_id)
            assert (mode is not None) == (key in held)


class TestModeHeld:
    """The participant's no-copy lock check against ``held_keys``/``holders``."""

    def test_unknown_key_and_unknown_transaction(self, sim, locks) -> None:
        register(locks, 1)
        assert locks.mode_held(1, "never-locked") is None
        assert locks.mode_held(99, "never-locked") is None
        locks.acquire(1, "k", LockMode.SHARED)
        assert locks.mode_held(99, "k") is None

    def test_after_grant(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(2, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        assert locks.mode_held(1, "a") is LockMode.SHARED
        assert locks.mode_held(1, "b") is LockMode.EXCLUSIVE
        assert locks.mode_held(2, "b") is None
        assert_probe_agrees(locks, (1, 2), ("a", "b"))

    def test_queued_request_is_not_held(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        locks.acquire(2, "k", LockMode.EXCLUSIVE)
        assert locks.mode_held(2, "k") is None
        assert_probe_agrees(locks, (1, 2), ("k",))
        locks.release_all(1)
        assert locks.mode_held(1, "k") is None
        assert locks.mode_held(2, "k") is LockMode.EXCLUSIVE
        assert_probe_agrees(locks, (1, 2), ("k",))

    def test_sole_holder_upgrade(self, sim, locks) -> None:
        register(locks, 1)
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        assert locks.mode_held(1, "k") is LockMode.EXCLUSIVE
        assert_probe_agrees(locks, (1,), ("k",))

    def test_queued_upgrade_stays_shared_until_granted(self, sim, locks) -> None:
        register(locks, 1)
        register(locks, 2)
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(2, "k", LockMode.SHARED)
        locks.acquire(2, "k", LockMode.EXCLUSIVE)  # younger: waits
        assert locks.mode_held(2, "k") is LockMode.SHARED
        assert_probe_agrees(locks, (1, 2), ("k",))
        locks.release_all(1)
        assert locks.mode_held(2, "k") is LockMode.EXCLUSIVE
        assert_probe_agrees(locks, (1, 2), ("k",))

    def test_after_wound_and_release(self, sim, locks) -> None:
        wounded: list[int] = []

        def abort_victim(victim: int) -> None:
            wounded.append(victim)
            locks.release_all(victim)

        locks.register(1, age=1, on_wound=abort_victim)
        locks.register(2, age=2, on_wound=abort_victim)
        locks.acquire(2, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.SHARED)
        waiting = locks.acquire(1, "a", LockMode.EXCLUSIVE)
        assert locks.mode_held(2, "a") is LockMode.EXCLUSIVE  # wound is async
        sim.run()
        assert wounded == [2] and waiting.triggered
        assert locks.mode_held(2, "a") is None
        assert locks.mode_held(2, "b") is None
        assert locks.mode_held(1, "a") is LockMode.EXCLUSIVE
        assert_probe_agrees(locks, (1, 2), ("a", "b"))

