"""Unit tests for the fleet daemon's multi-sweep ledger.

The ledger takes no lock; the daemon's one condition serialises it, and
``test_fleet_held_replies.py`` drives that from many threads.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dispatch import fleet
from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.fleet import FleetQueue
from repro.dispatch.journal import SweepJournal, journal_path, sweep_fingerprint
from repro.dispatch.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.errors import ConfigurationError, DispatchError, ProtocolError
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
        with pytest.raises(ProtocolError, match="unknown sweep"):
            queue.accept("w", "ghost", [[0, wire(0)]])

    def test_result_outside_grid_raises(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a", tiny_spec(2, name="a"))
        with pytest.raises(ProtocolError, match="bad index"):
            queue.accept("w", "a", [[0, wire(0)], [2, wire(2)]])
        assert entry.results == {}  # refused whole, before any was kept

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
        assert entry.results == {i: wire(i) for i in range(4)}
        assert queue.results_accepted == 4

    def test_duplicate_results_dropped_first_writer_wins(self) -> None:
        queue, _ = make_queue()
        entry, _ = submit(queue, "a")
        lease = queue.acquire("w1", 4)
        assert queue.complete("a", lease.indices[0], wire(0), "w1")
        assert not queue.complete("a", lease.indices[0], {"other": 1}, "w2")
        assert entry.duplicates == 1
        assert entry.results[lease.indices[0]] == wire(0)

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
        assert entry.state == "running"
        queue.complete("a", 0, wire(0), "w")  # a duplicate finishes nothing
        assert entry.state == "running"
        queue.complete("a", 1, wire(1), "w")
        assert entry.state == "done"

    def test_finished_at_submission_when_nothing_is_left(self) -> None:
        queue, _ = make_queue()
        empty, _ = submit(queue, "empty", tiny_spec(0, name="empty"))
        resumed, _ = submit(
            queue,
            "resumed",
            tiny_spec(2, name="resumed"),
            resumed_results={0: wire(0), 1: wire(1)},
        )
        assert empty.state == resumed.state == "done"

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

    def test_concurrent_workers_lose_no_update(self, tmp_path, monkeypatch) -> None:
        """More worker connections than cores hammer one journaled daemon,
        delivering results on requests and heartbeats alike: every index
        must be accepted exactly once and journaled exactly once."""
        monkeypatch.setattr(fleet, "PROBE_CHUNK_POINTS", 3)
        monkeypatch.setattr(fleet, "MAX_CHUNK_POINTS", 3)
        total = 400
        daemon = FleetDaemon(FleetConfig(journal_dir=str(tmp_path), poll_interval=0.05))
        daemon.config.secret = None  # never pick up the test environment's
        daemon.start()
        FleetClient(*daemon.address).submit(tiny_spec(total, name="stress"))
        entry = daemon.queue.entry("stress")
        accepted: list[int] = []

        def worker(name: str) -> None:
            with socket.create_connection(daemon.address, timeout=30.0) as sock:
                hello = {"type": "hello", "worker": name, "protocol": PROTOCOL_VERSION}
                send_frame(sock, hello)
                assert recv_frame(sock)["type"] == "welcome"
                carried: list[list] = []
                while True:
                    # Half of each lease rides on a heartbeat, the rest on
                    # the next request.
                    if len(carried) > 1:
                        half, carried = carried[:1], carried[1:]
                        heartbeat = {"type": "heartbeat", "sweep": "stress"}
                        send_frame(sock, heartbeat | {"results": half})
                        accepted.append(recv_frame(sock)["accepted"])
                    frame = {"type": "request"}
                    if carried:
                        frame |= {"sweep": "stress", "results": carried}
                    send_frame(sock, frame)
                    reply = recv_frame(sock)
                    accepted.append(reply.get("accepted", 0))
                    if reply["type"] == "done":
                        return
                    carried = [
                        [point["index"], wire(point["index"])]
                        for point in reply.get("points", ())
                    ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=worker, args=(f"w{i}",), daemon=True)
            for i in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while entry.state != "done":
                assert time.monotonic() < deadline, entry.status_row()
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            daemon.shutdown()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert sum(accepted) == total and entry.duplicates == 0
        assert entry.status_row()["leased"] == 0
        replayed = SweepJournal.replay(journal_path(str(tmp_path), "stress"))
        assert sorted(replayed.results) == list(range(total))


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
