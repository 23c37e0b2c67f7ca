"""Unit tests for one sweep's record: its leases, results and lifecycle.

A :class:`WorkQueue` is only ever built by :meth:`FleetQueue.submit` and
reads no clock: each call here passes the ``now`` its ledger would.
"""

from __future__ import annotations

import pytest

from repro.dispatch.fleet import FleetQueue
from repro.errors import ConfigurationError, DispatchError, ProtocolError


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(total=6, lease_timeout=10.0, resumed=None):
    ledger = FleetQueue(lease_timeout=lease_timeout)
    points = [{"point": index} for index in range(total)]
    queue, _ = ledger.submit("s", points, "fp", resumed_results=resumed)
    return queue, FakeClock()


class TestValidation:
    def test_bad_parameters_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            FleetQueue(lease_timeout=0.0)
        ledger = FleetQueue(lease_timeout=1.0)
        ledger.submit("s", [{}, {}, {}], "fp")
        with pytest.raises(ConfigurationError):
            ledger.acquire("w", 0)
        with pytest.raises(DispatchError, match="outside sweep"):
            make_queue(total=2, resumed={5: {"r": 5}})

    def test_out_of_range_result_rejected(self) -> None:
        ledger = FleetQueue(lease_timeout=1.0)
        queue, _ = ledger.submit("s", [{}, {}, {}], "fp")
        for index in (3, -1):
            with pytest.raises(ProtocolError, match="bad index"):
                ledger.accept("w", "s", [[index, {"r": index}]])
        assert queue.results == {}


class TestHappyPath:
    def test_chunking_covers_every_index_once(self) -> None:
        queue, clock = make_queue(total=5)
        seen: list[int] = []
        while (lease := queue.acquire("w", 2, clock.now)) is not None:
            seen.extend(lease.indices)
        assert seen == [0, 1, 2, 3, 4]
        assert queue.pending == 0 and queue.leased == 5

    def test_empty_queue_is_done_immediately(self) -> None:
        queue, clock = make_queue(total=0)
        assert queue.state == "done"
        assert queue.acquire("w", 4, clock.now) is None

    def test_done_only_when_every_result_in(self) -> None:
        queue, clock = make_queue(total=2)
        lease = queue.acquire("w", 2, clock.now)
        queue.complete(lease.indices[0], "r0", "w", clock.now)
        assert queue.state == "running"
        queue.complete(lease.indices[1], "r1", "w", clock.now)
        assert queue.state == "done"
        assert queue.results == {0: "r0", 1: "r1"}

    def test_duplicate_result_ignored_first_writer_wins(self) -> None:
        queue, clock = make_queue(total=1)
        queue.acquire("a", 1, clock.now)
        assert queue.complete(0, "first", "a", clock.now) is True
        assert queue.complete(0, "second", "b", clock.now) is False
        assert queue.results == {0: "first"}
        assert queue.duplicates == 1

    def test_resumed_results_are_never_handed_out(self) -> None:
        queue, clock = make_queue(total=4, resumed={0: {"r": 0}, 2: {"r": 2}})
        assert queue.acquire("w", 4, clock.now).indices == (1, 3)


class TestFailureRecovery:
    def test_release_requeues_only_unfinished_indices(self) -> None:
        queue, clock = make_queue(total=4)
        queue.acquire("dead", 4, clock.now)
        queue.complete(0, "r0", "dead", clock.now)  # streamed before the crash
        assert queue.release("dead") == 1
        reassigned = queue.acquire("alive", 4, clock.now)
        assert reassigned.indices == (1, 2, 3)  # finished work not re-run
        assert queue.requeued == 1

    def test_requeued_work_goes_to_the_front(self) -> None:
        queue, clock = make_queue(total=6)
        lost = queue.acquire("dead", 2, clock.now)
        queue.release("dead")
        # The orphaned indices come back ahead of the never-leased tail.
        assert queue.acquire("alive", 3, clock.now).indices == (*lost.indices, 2)

    def test_lease_expiry_reassigns_on_next_acquire(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("stalled", 2, clock.now)
        clock.advance(5.1)
        lease = queue.acquire("alive", 2, clock.now)
        assert lease is not None and lease.indices == (0, 1)
        assert queue.requeued == 1

    def test_explicit_expiry_sweep(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("stalled", 2, clock.now)
        assert queue.expire_stale_leases(clock.now) == 0
        clock.advance(5.1)
        assert queue.expire_stale_leases(clock.now) == 1

    def test_heartbeat_keeps_lease_alive(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("busy", 2, clock.now)
        clock.advance(4.0)
        assert queue.heartbeat("busy", clock.now) == 1
        clock.advance(4.0)  # 8s total, but re-armed at 4s
        # Nothing expired, nothing pending.
        assert queue.acquire("other", 2, clock.now) is None
        clock.advance(5.1)
        assert queue.acquire("other", 2, clock.now).indices == (0, 1)

    def test_results_extend_lease_like_heartbeats(self) -> None:
        queue, clock = make_queue(total=3, lease_timeout=5.0)
        queue.acquire("busy", 3, clock.now)
        clock.advance(4.0)
        queue.complete(0, "r0", "busy", clock.now)
        clock.advance(4.0)
        assert queue.acquire("other", 3, clock.now) is None

    def test_late_result_after_reassignment_is_duplicate(self) -> None:
        queue, clock = make_queue(total=1, lease_timeout=5.0)
        queue.acquire("slow", 1, clock.now)
        clock.advance(6.0)
        lease = queue.acquire("fast", 1, clock.now)
        queue.complete(0, "fast-result", "fast", clock.now)
        assert queue.complete(0, "slow-result", "slow", clock.now) is False
        assert queue.results == {0: "fast-result"}
        assert lease.indices == (0,)

    def test_fully_completed_chunk_not_requeued_on_release(self) -> None:
        queue, clock = make_queue(total=2)
        queue.acquire("w", 2, clock.now)
        queue.complete(0, "r0", "w", clock.now)
        queue.complete(1, "r1", "w", clock.now)
        assert queue.leased == 0  # reaped the moment its last result landed
        assert queue.release("w") == 0
        assert queue.acquire("other", 2, clock.now) is None
        assert queue.state == "done"

    def test_cancel_then_revive_keeps_results(self) -> None:
        queue, clock = make_queue(total=4)
        queue.acquire("w", 2, clock.now)
        queue.complete(0, "r0", "w", clock.now)
        queue.cancel()
        assert queue.state == "cancelled"
        assert queue.pending == 0 and queue.leased == 0
        assert queue.acquire("w", 4, clock.now) is None
        assert not queue.complete(1, "late", "w", clock.now)
        queue.revive()
        assert queue.state == "running" and queue.results == {0: "r0"}
        assert queue.acquire("w", 4, clock.now).indices == (1, 2, 3)
