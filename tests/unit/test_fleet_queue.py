"""Unit tests for the fleet daemon's multi-sweep queue and health tracker."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dispatch.fleet import FleetQueue
from repro.dispatch.journal import sweep_fingerprint
from repro.errors import ConfigurationError, DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import (
    SweepPoint,
    SweepSpec,
    derive_seed,
    spec_artifact,
)
from repro.workloads.synthetic import PerfectClusterWorkload


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_spec(n_points: int = 4, *, name: str = "fleet-spec", root_seed: int = 1):
    workload = PerfectClusterWorkload(n_objects=40, cluster_size=4)
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    return SweepSpec(
        name=name,
        root_seed=root_seed,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(root_seed, index)),
                workload=workload,
                params={"index": index},
            )
            for index in range(n_points)
        ],
    )


def make_queue(lease_timeout: float = 10.0):
    clock = FakeClock()
    return FleetQueue(lease_timeout=lease_timeout, clock=clock), clock


def submit(queue: FleetQueue, name: str, spec=None, **kwargs):
    spec = spec if spec is not None else tiny_spec(name=name)
    return queue.submit(
        name,
        spec_artifact(spec)["columns"],
        sweep_fingerprint(spec),
        **kwargs,
    )


def wire(index: int) -> dict:
    return {"kind": "column", "payload": {"index": index}}


class TestValidation:
    def test_bad_lease_timeout_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            FleetQueue(lease_timeout=0.0)

    def test_empty_name_rejected(self) -> None:
        queue, _ = make_queue()
        with pytest.raises(ConfigurationError):
            submit(queue, "")

    def test_bad_max_points_rejected(self) -> None:
        queue, _ = make_queue()
        submit(queue, "a")
        with pytest.raises(ConfigurationError):
            queue.acquire("w", 0)

    def test_result_for_unknown_sweep_raises(self) -> None:
        queue, _ = make_queue()
        with pytest.raises(DispatchError, match="unknown sweep"):
            queue.complete("ghost", 0, wire(0), "w")

    def test_result_outside_grid_raises(self) -> None:
        queue, _ = make_queue()
        submit(queue, "a", tiny_spec(2, name="a"))
        with pytest.raises(DispatchError, match="outside"):
            queue.complete("a", 2, wire(2), "w")

    def test_resumed_indices_outside_grid_raise(self) -> None:
        queue, _ = make_queue()
        with pytest.raises(DispatchError, match="outside sweep"):
            submit(
                queue,
                "a",
                tiny_spec(2, name="a"),
                resumed_results={5: wire(5)},
            )


class TestPriorities:
    def test_highest_priority_drains_first(self) -> None:
        queue, _ = make_queue()
        submit(queue, "bulk", priority=0)
        submit(queue, "urgent", priority=5)
        lease = queue.acquire("w", 2)
        assert lease.sweep == "urgent"

    def test_fifo_among_equal_priorities(self) -> None:
        queue, _ = make_queue()
        submit(queue, "first", priority=1)
        submit(queue, "second", priority=1)
        assert queue.acquire("w", 2).sweep == "first"

    def test_urgent_submission_overtakes_mid_drain(self) -> None:
        queue, _ = make_queue()
        submit(queue, "bulk", tiny_spec(4, name="bulk"), priority=0)
        first = queue.acquire("w", 1)
        assert first.sweep == "bulk"
        submit(queue, "urgent", tiny_spec(2, name="urgent"), priority=9)
        assert queue.acquire("w", 4).sweep == "urgent"

    def test_chunk_size_is_per_acquire(self) -> None:
        queue, _ = make_queue()
        submit(queue, "a")
        assert len(queue.acquire("w", 1).indices) == 1
        assert len(queue.acquire("w", 3).indices) == 3


class TestCompletionAndResume:
    def test_every_index_served_once_and_done(self) -> None:
        queue, _ = make_queue()
        entry, created = submit(queue, "a")
        assert created
        seen: list[int] = []
        while (lease := queue.acquire("w", 2)) is not None:
            for index in lease.indices:
                assert queue.complete("a", index, wire(index), "w")
            seen.extend(lease.indices)
        assert seen == [0, 1, 2, 3]
        assert entry.state == "done"
        assert entry.executed == 4
        assert queue.results_for("a") == {i: wire(i) for i in range(4)}

    def test_duplicate_results_dropped_first_writer_wins(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a")
        lease = queue.acquire("w1", 4)
        assert queue.complete("a", lease.indices[0], wire(0), "w1")
        assert not queue.complete("a", lease.indices[0], {"other": 1}, "w2")
        assert entry.duplicates == 1
        assert queue.results_for("a")[lease.indices[0]] == wire(0)

    def test_resumed_results_seed_completion(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(
            queue,
            "a",
            resumed_results={0: wire(0), 2: wire(2)},
        )
        assert entry.completed == 2
        assert entry.resumed == frozenset({0, 2})
        served: list[int] = []
        while (lease := queue.acquire("w", 4)) is not None:
            for index in lease.indices:
                queue.complete("a", index, wire(index), "w")
            served.extend(lease.indices)
        # Journaled points are never handed out again.
        assert served == [1, 3]
        assert entry.state == "done"
        assert entry.executed == 2

    def test_fully_resumed_sweep_is_done_without_workers(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(
            queue,
            "a",
            tiny_spec(2, name="a"),
            resumed_results={0: wire(0), 1: wire(1)},
        )
        assert entry.state == "done"
        assert queue.acquire("w", 4) is None

    def test_resubmission_attaches_by_fingerprint(self) -> None:
        queue, _ = make_queue()
        first, created = submit(queue, "a")
        again, created_again = submit(queue, "a")
        assert created and not created_again
        assert again is first

    def test_name_collision_with_different_grid_refused(self) -> None:
        queue, _ = make_queue()
        submit(queue, "a", tiny_spec(name="a", root_seed=1))
        with pytest.raises(DispatchError, match="already exists"):
            submit(queue, "a", tiny_spec(name="a", root_seed=2))


class TestCancellation:
    def test_cancel_drops_pending_and_leases(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a")
        queue.acquire("w", 2)
        assert queue.cancel("a")
        assert entry.state == "cancelled"
        assert queue.acquire("w", 4) is None
        assert queue.status_rows()[0]["leased"] == 0

    def test_cancel_unknown_sweep_is_false(self) -> None:
        queue, _ = make_queue()
        assert not queue.cancel("ghost")

    def test_late_results_for_cancelled_sweep_ignored(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a")
        lease = queue.acquire("w", 2)
        queue.cancel("a")
        assert not queue.complete("a", lease.indices[0], wire(0), "w")
        assert entry.completed == 0

    def test_resubmission_revives_cancelled_sweep(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a")
        lease = queue.acquire("w", 2)
        for index in lease.indices:
            queue.complete("a", index, wire(index), "w")
        queue.cancel("a")
        revived, created = submit(queue, "a")
        assert revived is entry and not created
        assert revived.state == "running"
        # Completed work survives the cancel/revive cycle.
        assert revived.completed == 2
        remaining: list[int] = []
        while (lease := queue.acquire("w", 4)) is not None:
            remaining.extend(lease.indices)
            for index in lease.indices:
                queue.complete("a", index, wire(index), "w")
        assert sorted(remaining) == [2, 3]


class TestLeaseRecovery:
    def test_expired_lease_requeues_unfinished_at_front(self) -> None:
        queue, clock = make_queue(lease_timeout=10.0)
        submit(queue, "a")
        lease = queue.acquire("dead", 3)
        queue.complete("a", lease.indices[0], wire(lease.indices[0]), "dead")
        clock.advance(11.0)
        recovered = queue.acquire("alive", 4)
        # The dead worker's unfinished indices come back first, ahead of
        # the never-leased tail.
        assert recovered.indices[:2] == lease.indices[1:]

    def test_heartbeat_extends_leases(self) -> None:
        queue, clock = make_queue(lease_timeout=10.0)
        submit(queue, "a")
        queue.acquire("w", 2)
        clock.advance(8.0)
        assert queue.heartbeat("w") == 1
        clock.advance(8.0)
        assert queue.expire_stale_leases() == 0

    def test_release_on_disconnect_requeues(self) -> None:
        queue, _ = make_queue()
        submit(queue, "a")
        lease = queue.acquire("w", 4)
        assert queue.release("w") == 1
        assert queue.acquire("other", 4).indices == lease.indices

    def test_completed_results_survive_lease_expiry(self) -> None:
        queue, clock = make_queue(lease_timeout=10.0)
        submit(queue, "a")
        lease = queue.acquire("w", 4)
        queue.complete("a", lease.indices[0], wire(lease.indices[0]), "w")
        clock.advance(11.0)
        queue.expire_stale_leases()
        again = queue.acquire("w2", 4)
        assert lease.indices[0] not in again.indices

    def test_late_results_after_expiry_leave_nothing_pending(self) -> None:
        """The expired lease's owner delivers every result after its points
        went back to the queue: the sweep is done and nothing is pending,
        in the status rows and in the daemon's ``pending`` gauge alike."""
        queue, clock = make_queue(lease_timeout=10.0)
        submit(queue, "a", tiny_spec(3, name="a"))
        lease = queue.acquire("slow", 3)
        clock.advance(11.0)
        assert queue.expire_stale_leases() == 1
        for index in lease.indices:
            assert queue.complete("a", index, wire(index), "slow")
        (row,) = queue.status_rows()
        assert (row["state"], row["completed"], row["pending"]) == ("done", 3, 0)
        assert row["leased"] == 0


class TestCompletionSignal:
    def test_finished_set_by_the_last_result_only(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a", tiny_spec(2, name="a"))
        queue.acquire("w", 2)
        queue.complete("a", 0, wire(0), "w")
        assert not entry.finished.is_set()
        queue.complete("a", 0, wire(0), "w")  # a duplicate finishes nothing
        assert not entry.finished.is_set()
        queue.complete("a", 1, wire(1), "w")
        assert entry.finished.is_set()

    def test_finished_at_submission_when_nothing_is_left(self) -> None:
        queue, _ = make_queue()
        empty, _ = submit(queue, "empty", tiny_spec(0, name="empty"))
        resumed, _ = submit(
            queue,
            "resumed",
            tiny_spec(2, name="resumed"),
            resumed_results={0: wire(0), 1: wire(1)},
        )
        assert empty.finished.is_set() and resumed.finished.is_set()

    def test_requeue_counter_spans_sweeps(self) -> None:
        queue, clock = make_queue(lease_timeout=10.0)
        submit(queue, "a", priority=1)
        submit(queue, "b")
        queue.acquire("dead", 4)  # all of "a"
        queue.acquire("stalled", 4)  # all of "b"
        assert queue.release("dead") == 1
        clock.advance(11.0)
        assert queue.expire_stale_leases() == 1
        assert queue.leases_requeued == 2

    def test_concurrent_workers_lose_no_update(self) -> None:
        """More threads than cores hammer one queue: every index must end
        up with exactly one accepted result and the signal must fire."""
        import sys
        import threading

        queue = FleetQueue(lease_timeout=30.0)
        spec = tiny_spec(1, name="stress")
        point = spec_artifact(spec)["columns"][0]
        total = 400
        entry, _ = queue.submit("stress", [point] * total, "fp")
        accepted: list[int] = []

        def worker(owner: str) -> None:
            while (lease := queue.acquire(owner, 3)) is not None:
                for index in lease.indices:
                    if queue.complete("stress", index, wire(index), owner):
                        accepted.append(index)
                queue.heartbeat(owner)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(f"w{i}",), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(accepted) == list(range(total))
        assert entry.finished.is_set() and entry.duplicates == 0
        assert queue.status_rows()[0]["leased"] == 0


class TestStatusRows:
    def test_rows_in_submission_order_with_counters(self) -> None:
        queue, _ = make_queue()
        submit(queue, "b", priority=2)
        submit(queue, "a", priority=5)
        queue.acquire("w", 1)  # leases one point of "a" (priority 5)
        rows = queue.status_rows()
        assert [row["sweep"] for row in rows] == ["b", "a"]
        by_name = {row["sweep"]: row for row in rows}
        assert by_name["a"]["leased"] == 1
        assert by_name["b"]["pending"] == 4
        assert by_name["a"]["state"] == "running"
