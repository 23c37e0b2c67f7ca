"""Unit tests for one sweep's lease-based work queue."""

from __future__ import annotations

import pytest

from repro.dispatch.queue import WorkQueue
from repro.errors import ConfigurationError, DispatchError


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(total=6, lease_timeout=10.0, **kwargs):
    clock = FakeClock()
    queue = WorkQueue(total, lease_timeout=lease_timeout, clock=clock, **kwargs)
    return queue, clock


class TestValidation:
    def test_bad_parameters_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            WorkQueue(-1, lease_timeout=1.0)
        with pytest.raises(ConfigurationError):
            WorkQueue(3, lease_timeout=0.0)
        with pytest.raises(ConfigurationError):
            WorkQueue(3, lease_timeout=1.0).acquire("w", 0)
        with pytest.raises(DispatchError, match="outside sweep"):
            WorkQueue(2, lease_timeout=1.0, resumed={5: "r5"})

    def test_out_of_range_result_rejected(self) -> None:
        queue, _ = make_queue(total=3)
        with pytest.raises(DispatchError, match="outside"):
            queue.complete(3, "r", "w")
        with pytest.raises(DispatchError, match="outside"):
            queue.complete(-1, "r", "w")
        assert queue.results == {}


class TestHappyPath:
    def test_chunking_covers_every_index_once(self) -> None:
        queue, _ = make_queue(total=5)
        seen: list[int] = []
        while (lease := queue.acquire("w", 2)) is not None:
            seen.extend(lease.indices)
        assert seen == [0, 1, 2, 3, 4]
        assert queue.pending == 0 and queue.leased == 5

    def test_empty_queue_is_done_immediately(self) -> None:
        queue, _ = make_queue(total=0)
        assert queue.done
        assert queue.acquire("w", 4) is None

    def test_done_only_when_every_result_in(self) -> None:
        queue, _ = make_queue(total=2)
        lease = queue.acquire("w", 2)
        queue.complete(lease.indices[0], "r0", "w")
        assert not queue.done
        queue.complete(lease.indices[1], "r1", "w")
        assert queue.done
        assert queue.results == {0: "r0", 1: "r1"}

    def test_duplicate_result_ignored_first_writer_wins(self) -> None:
        queue, _ = make_queue(total=1)
        queue.acquire("a", 1)
        assert queue.complete(0, "first", "a") is True
        assert queue.complete(0, "second", "b") is False
        assert queue.results == {0: "first"}
        assert queue.duplicates == 1

    def test_resumed_results_are_never_handed_out(self) -> None:
        queue, _ = make_queue(total=4, resumed={0: "r0", 2: "r2"})
        assert queue.acquire("w", 4).indices == (1, 3)


class TestFailureRecovery:
    def test_release_requeues_only_unfinished_indices(self) -> None:
        queue, _ = make_queue(total=4)
        queue.acquire("dead", 4)
        queue.complete(0, "r0", "dead")  # streamed before the crash
        assert queue.release("dead") == 1
        reassigned = queue.acquire("alive", 4)
        assert reassigned.indices == (1, 2, 3)  # finished work not re-run
        assert queue.requeued == 1

    def test_requeued_work_goes_to_the_front(self) -> None:
        queue, _ = make_queue(total=6)
        lost = queue.acquire("dead", 2)
        queue.release("dead")
        # The orphaned indices come back ahead of the never-leased tail.
        assert queue.acquire("alive", 3).indices == (*lost.indices, 2)

    def test_lease_expiry_reassigns_on_next_acquire(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("stalled", 2)
        clock.advance(5.1)
        lease = queue.acquire("alive", 2)
        assert lease is not None and lease.indices == (0, 1)
        assert queue.requeued == 1

    def test_explicit_expiry_sweep(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("stalled", 2)
        assert queue.expire_stale_leases() == 0
        clock.advance(5.1)
        assert queue.expire_stale_leases() == 1

    def test_heartbeat_keeps_lease_alive(self) -> None:
        queue, clock = make_queue(total=2, lease_timeout=5.0)
        queue.acquire("busy", 2)
        clock.advance(4.0)
        assert queue.heartbeat("busy") == 1
        clock.advance(4.0)  # 8s total, but re-armed at 4s
        assert queue.acquire("other", 2) is None  # nothing expired, nothing pending
        clock.advance(5.1)
        assert queue.acquire("other", 2).indices == (0, 1)

    def test_results_extend_lease_like_heartbeats(self) -> None:
        queue, clock = make_queue(total=3, lease_timeout=5.0)
        queue.acquire("busy", 3)
        clock.advance(4.0)
        queue.complete(0, "r0", "busy")
        clock.advance(4.0)
        assert queue.acquire("other", 3) is None

    def test_late_result_after_reassignment_is_duplicate(self) -> None:
        queue, clock = make_queue(total=1, lease_timeout=5.0)
        queue.acquire("slow", 1)
        clock.advance(6.0)
        lease = queue.acquire("fast", 1)
        queue.complete(0, "fast-result", "fast")
        assert queue.complete(0, "slow-result", "slow") is False
        assert queue.results == {0: "fast-result"}
        assert lease.indices == (0,)

    def test_fully_completed_chunk_not_requeued_on_release(self) -> None:
        queue, _ = make_queue(total=2)
        queue.acquire("w", 2)
        queue.complete(0, "r0", "w")
        queue.complete(1, "r1", "w")
        assert queue.leased == 0  # reaped the moment its last result landed
        assert queue.release("w") == 0
        assert queue.acquire("other", 2) is None
        assert queue.done

    def test_drop_then_requeue_missing_keeps_results(self) -> None:
        queue, _ = make_queue(total=4)
        queue.acquire("w", 2)
        queue.complete(0, "r0", "w")
        queue.drop_outstanding()
        assert queue.pending == 0 and queue.leased == 0
        assert queue.acquire("w", 4) is None
        queue.requeue_missing()
        assert queue.acquire("w", 4).indices == (1, 2, 3)
