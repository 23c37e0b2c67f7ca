"""Golden for the daemon's per-worker ledger: chunk sizes and status rows.

Each case replays one worker connection as timed events — ``connect``,
``request`` (any frame that only proves liveness), ``result``,
``heartbeat`` and ``disconnect`` — in the order the daemon observes them,
and pins the lease size the daemon would hand out after every event plus
the worker's final ``fleet status`` row.  A ``connect`` after a
``disconnect`` is a reconnect: a new connection, a fresh record.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dispatch import FleetConfig, FleetDaemon, run_worker, serve_sweep
from repro.dispatch.daemon import _Worker
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed
from repro.workloads.synthetic import PerfectClusterWorkload

#: (case, lease_timeout, [(time, event), ...], end time,
#:  [chunk size after each event], final status row)
CASES = [
    (
        "probe_then_scale",
        30.0,
        [
            (0.0, "connect"),
            (0.5, "request"),
            (1.0, "result"),
            (1.5, "result"),
            (2.0, "result"),
            (2.5, "heartbeat"),
            (2.75, "result"),
        ],
        3.0,
        [1, 1, 1, 10, 10, 10, 9],
        {
            "worker": "w",
            "connected": True,
            "alive": True,
            "silence_seconds": 0.25,
            "points_completed": 4,
            "heartbeats": 1,
            "points_per_sec": 1.8,
        },
    ),
    (
        "clamp_to_max",
        30.0,
        [(0.0, "connect"), (1.0, "result"), (1.01, "result"), (1.02, "result")],
        1.02,
        [1, 1, 64, 64],
        {
            "worker": "w",
            "connected": True,
            "alive": True,
            "silence_seconds": 0.0,
            "points_completed": 3,
            "heartbeats": 0,
            "points_per_sec": 100.0,
        },
    ),
    (
        "slow_worker",
        30.0,
        [(0.0, "connect"), (0.0, "result"), (20.0, "result"), (40.0, "result")],
        40.0,
        [1, 1, 1, 1],
        {
            "worker": "w",
            "connected": True,
            "alive": True,
            "silence_seconds": 0.0,
            "points_completed": 3,
            "heartbeats": 0,
            "points_per_sec": 0.05,
        },
    ),
    (
        "silent_past_lease_timeout",
        15.0,
        [(0.0, "connect"), (1.0, "heartbeat")],
        16.5,
        [1, 1],
        {
            "worker": "w",
            "connected": True,
            "alive": False,
            "silence_seconds": 15.5,
            "points_completed": 0,
            "heartbeats": 1,
            "points_per_sec": None,
        },
    ),
    (
        "silent_exactly_lease_timeout",
        15.0,
        [(0.0, "connect"), (10.0, "request")],
        25.0,
        [1, 1],
        {
            "worker": "w",
            "connected": True,
            "alive": True,
            "silence_seconds": 15.0,
            "points_completed": 0,
            "heartbeats": 0,
            "points_per_sec": None,
        },
    ),
    (
        "disconnect_resets_interval",
        30.0,
        [
            (0.0, "connect"),
            (1.0, "result"),
            (2.0, "result"),
            (3.0, "disconnect"),
            (4.0, "result"),
            (4.5, "result"),
        ],
        5.0,
        # 1 pt/s, then no interval across the disconnect, then 2 pts/s:
        # EWMA 1.3, and round(6.5) is 6.
        [1, 1, 5, 5, 5, 6],
        {
            "worker": "w",
            "connected": False,
            "alive": False,
            "silence_seconds": 0.5,
            "points_completed": 4,
            "heartbeats": 0,
            "points_per_sec": 1.3,
        },
    ),
    (
        "reconnect_starts_over",
        30.0,
        [
            (0.0, "connect"),
            (1.0, "result"),
            (2.0, "result"),
            (2.5, "disconnect"),
            (3.0, "connect"),
            (4.0, "result"),
        ],
        5.0,
        [1, 1, 5, 5, 1, 1],
        {
            "worker": "w",
            "connected": True,
            "alive": True,
            "silence_seconds": 1.0,
            "points_completed": 1,
            "heartbeats": 0,
            "points_per_sec": None,
        },
    ),
]


def replay(events, lease_timeout: float, end: float):
    """Feed ``events`` to the ledger as the daemon does; chunks and row."""
    worker = None
    chunks = []
    for at, event in events:
        if event == "connect":
            worker = _Worker("w", at)
        elif event == "disconnect":
            worker.disconnect()
        else:
            worker.last_seen = at
            if event == "result":
                worker.record_result(at)
            elif event == "heartbeat":
                worker.heartbeats += 1
        chunks.append(worker.chunk_points())
    return chunks, worker.row(end, lease_timeout)


@pytest.mark.parametrize(
    "lease_timeout, events, end, chunks, row",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_chunks_and_status_row(lease_timeout, events, end, chunks, row) -> None:
    assert replay(events, lease_timeout, end) == (chunks, row)


def test_sizing_constants_are_read_at_call_time(monkeypatch) -> None:
    from repro.dispatch import daemon

    worker = _Worker("w", 0.0)
    monkeypatch.setattr(daemon, "PROBE_CHUNK_POINTS", 3)
    assert worker.chunk_points() == 3
    worker.record_result(1.0)
    worker.record_result(1.1)  # 10 points/s
    monkeypatch.setattr(daemon, "TARGET_CHUNK_SECONDS", 0.5)
    assert worker.chunk_points() == 5
    monkeypatch.setattr(daemon, "MAX_CHUNK_POINTS", 4)
    assert worker.chunk_points() == 4


def test_daemon_books_each_connection_once() -> None:
    """Through a live daemon: one row per connection, in ``status`` and in
    the ``metrics`` gauges, and a finished worker reads as disconnected."""
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    spec = SweepSpec(
        name="ledger",
        root_seed=1,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(1, index)),
                workload=PerfectClusterWorkload(n_objects=40, cluster_size=4),
            )
            for index in range(3)
        ],
    )
    daemon = FleetDaemon(FleetConfig(poll_interval=0.05))
    daemon.config.secret = None  # never pick up the test environment's
    host, port = daemon.address
    worker = threading.Thread(
        target=run_worker, args=(host, port), kwargs={"name": "solo"}, daemon=True
    )
    worker.start()
    result = serve_sweep(daemon, spec)
    worker.join(timeout=30.0)
    assert not worker.is_alive()
    assert result.jobs == 1
    deadline = time.monotonic() + 10.0  # the handler thread books the hang-up
    while daemon.worker_rows()[0]["connected"] and time.monotonic() < deadline:
        time.sleep(0.01)
    (row,) = daemon._handle_status({}, None)["workers"]
    assert list(row) == list(CASES[0][-1])  # the golden rows' keys, in order
    assert row["worker"] == "solo#1"
    assert row["points_completed"] == 3
    assert not row["connected"] and not row["alive"]
    gauges = daemon._handle_metrics({}, None)["telemetry"]["gauges"]
    assert gauges["worker.solo#1.points_completed"] == 3


def test_concurrent_registrations_get_distinct_owners() -> None:
    """Owner names count the ledger under its lock: no two connections that
    register at once may share a name (and so a lease owner)."""
    daemon = FleetDaemon(FleetConfig())
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda: [daemon._register_worker("w") for _ in range(200)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
        daemon.shutdown()
    owners = [row["worker"] for row in daemon.worker_rows()]
    assert len(owners) == len(set(owners)) == 1600
