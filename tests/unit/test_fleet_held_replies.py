"""Held replies: the daemon answers a waiting peer as soon as it can.

A worker's ``request`` with nothing to lease, and a submitter's ``fetch``
with ``wait`` on a running sweep, are held by the daemon until there is
work or a result, instead of being answered at once and retried by the
peer after a sleep.  The daemons here poll every 5 s, so every reply that
arrives well inside a second was woken, not polled.

Also here: :meth:`FleetClient.wait_for` treats a daemon's ``error`` reply
as final, and keeps retrying only a transport failure.
"""

from __future__ import annotations

import queue
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.fleet import FleetQueue
from repro.dispatch.journal import SweepJournal, journal_path
from repro.dispatch.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.errors import DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed
from repro.workloads.synthetic import PerfectClusterWorkload

POLL = 5.0
#: How long a test lets a handler thread reach its hold before it acts.
SETTLE = 0.2


def tiny_spec() -> SweepSpec:
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    return SweepSpec(
        name="held",
        root_seed=1,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(1, index)),
                workload=PerfectClusterWorkload(n_objects=40, cluster_size=4),
            )
            for index in range(2)
        ],
    )


@pytest.fixture()
def daemon():
    daemon = FleetDaemon(FleetConfig(poll_interval=POLL))
    daemon.config.secret = None  # never pick up the test environment's
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.shutdown()


def connect(daemon: FleetDaemon, role: str) -> socket.socket:
    sock = socket.create_connection(daemon.address, timeout=10.0)
    send_frame(
        sock,
        {
            "type": "hello",
            "role": role,
            "worker": f"held-{role}",
            "protocol": PROTOCOL_VERSION,
        },
    )
    assert recv_frame(sock)["type"] == "welcome"
    return sock


class TestHeldRequest:
    def test_chunk_follows_a_submit_at_once(self, daemon) -> None:
        with connect(daemon, "worker") as sock:
            send_frame(sock, {"type": "request"})
            time.sleep(SETTLE)
            submitted = time.monotonic()
            daemon.submit(tiny_spec())
            reply = recv_frame(sock)
            assert reply["type"] == "chunk"
            assert time.monotonic() - submitted < 1.0

    def test_shutdown_answers_done_at_once(self, daemon) -> None:
        with connect(daemon, "worker") as sock:
            send_frame(sock, {"type": "request"})
            time.sleep(SETTLE)
            stopped = time.monotonic()
            daemon.shutdown()
            assert recv_frame(sock)["type"] == "done"
            assert time.monotonic() - stopped < 1.0

    def test_a_full_hold_quotes_no_further_delay(self) -> None:
        daemon = FleetDaemon(FleetConfig(poll_interval=0.1))
        daemon.config.secret = None
        daemon.start()
        try:
            with connect(daemon, "worker") as sock:
                started = time.monotonic()
                send_frame(sock, {"type": "request"})
                reply = recv_frame(sock)
                assert reply == {"type": "wait", "delay": 0.0}
                assert time.monotonic() - started >= 0.1
        finally:
            daemon.shutdown()

    def test_a_request_that_loses_the_race_asks_again_at_once(self, daemon) -> None:
        """Two held requests, one one-point sweep: the worker that is woken
        but finds the point taken is told to ask again with no delay, so
        the next submission can wake it too."""
        spec = replace(tiny_spec(), points=tiny_spec().points[:1])
        with connect(daemon, "worker") as first, connect(daemon, "worker") as second:
            for sock in (first, second):
                send_frame(sock, {"type": "request"})
            time.sleep(SETTLE)
            submitted = time.monotonic()
            daemon.submit(spec)
            replies = sorted(
                (recv_frame(first), recv_frame(second)), key=lambda r: r["type"]
            )
            assert time.monotonic() - submitted < 1.0
        assert replies[0]["type"] == "chunk"
        assert replies[1] == {"type": "wait", "delay": 0.0}


class TestNoLostWakeUp:
    def test_a_submit_between_the_empty_acquire_and_the_hold_wakes_it(
        self, daemon, monkeypatch
    ) -> None:
        original = FleetQueue.acquire
        raced: list[bool] = []

        def racing(queue_self, owner, max_points):
            lease = original(queue_self, owner, max_points)
            if lease is None and not raced:
                raced.append(True)
                daemon.submit(tiny_spec())
            return lease

        monkeypatch.setattr(FleetQueue, "acquire", racing)
        with connect(daemon, "worker") as sock:
            asked = time.monotonic()
            send_frame(sock, {"type": "request"})
            assert recv_frame(sock)["type"] == "chunk"
            assert time.monotonic() - asked < 1.0
        assert raced

    def test_every_submission_is_leased_at_once_under_contention(self, daemon) -> None:
        """Six workers hold requests while twenty one-point sweeps land one
        by one, with thread switches forced every 10 µs: a wake-up lost
        between the workers' empty acquires and their holds would park the
        point for the whole 5 s poll interval, and each point is leased
        exactly once."""
        spec = replace(tiny_spec(), points=tiny_spec().points[:1])
        leased: queue.Queue[str] = queue.Queue()
        stop = threading.Event()

        def work() -> None:
            with connect(daemon, "worker") as sock:
                while not stop.is_set():
                    send_frame(sock, {"type": "request"})
                    reply = recv_frame(sock)
                    if reply["type"] == "chunk":
                        leased.put(reply["sweep"])
                    elif reply["type"] == "done":
                        return
                    else:
                        stop.wait(reply["delay"])

        workers = [threading.Thread(target=work, daemon=True) for _ in range(6)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            time.sleep(SETTLE)
            for index in range(20):
                submitted = time.monotonic()
                daemon.submit(spec, name=f"one-{index}")
                assert leased.get(timeout=POLL) == f"one-{index}"
                assert time.monotonic() - submitted < 1.0
            # Nothing is leased twice while every worker is still connected
            # (once one leaves, its released point is rightly leased again).
            with pytest.raises(queue.Empty):
                leased.get(timeout=SETTLE)
        finally:
            sys.setswitchinterval(switch)
            stop.set()
            daemon.shutdown()
        for thread in workers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()


class TestHeldFetch:
    def test_results_follow_the_last_result_at_once(self, daemon) -> None:
        daemon.submit(tiny_spec(), name="held")
        with connect(daemon, "submitter") as fetcher, connect(
            daemon, "worker"
        ) as worker:
            send_frame(fetcher, {"type": "fetch", "sweep": "held", "wait": POLL})
            for index in range(2):
                time.sleep(SETTLE)
                finished = time.monotonic()
                send_frame(
                    worker,
                    {
                        "type": "result",
                        "sweep": "held",
                        "index": index,
                        "result": {"kind": "column", "payload": {"index": index}},
                    },
                )
                assert recv_frame(worker) == {"type": "ok", "accepted": True}
            reply = recv_frame(fetcher)
            assert reply["type"] == "results"
            assert time.monotonic() - finished < 1.0
            assert [index for index, _ in reply["results"]] == [0, 1]

    def test_results_wait_for_the_last_journal_line(
        self, tmp_path, monkeypatch
    ) -> None:
        """Each journal append is slowed down, so the sweep reads as done
        well before its last line is written: a ``wait_for`` woken by the
        finish must still return only once the journal replays whole."""
        daemon = FleetDaemon(FleetConfig(poll_interval=POLL, journal_dir=str(tmp_path)))
        daemon.config.secret = None
        daemon.start()
        record = SweepJournal.record

        def slow_record(journal, index, result):
            time.sleep(SETTLE)
            return record(journal, index, result)

        monkeypatch.setattr(SweepJournal, "record", slow_record)
        host, port = daemon.address
        replayed: list[list[int]] = []

        def wait() -> None:
            FleetClient(host, port).wait_for("held", poll_interval=POLL, timeout=10.0)
            journal = SweepJournal.replay(journal_path(str(tmp_path), "held"))
            replayed.append(sorted(journal.results))

        try:
            daemon.submit(tiny_spec(), name="held")
            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            time.sleep(SETTLE)
            with connect(daemon, "worker") as worker:
                for index in range(2):
                    send_frame(
                        worker,
                        {
                            "type": "result",
                            "sweep": "held",
                            "index": index,
                            "result": {"kind": "column", "payload": {"index": index}},
                        },
                    )
                    assert recv_frame(worker) == {"type": "ok", "accepted": True}
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
        finally:
            daemon.shutdown()
        assert replayed == [[0, 1]]

    def test_hold_is_bounded_by_the_requested_wait(self, daemon) -> None:
        daemon.submit(tiny_spec(), name="held")
        host, port = daemon.address
        started = time.monotonic()
        reply = FleetClient(host, port).fetch("held", wait=0.2)
        assert reply["type"] == "pending"
        assert 0.2 <= time.monotonic() - started < 1.0


class TestWaitForRefusal:
    def test_an_error_reply_is_final(self, daemon) -> None:
        host, port = daemon.address
        client = FleetClient(host, port, connect_timeout=1.0)
        outcome: list[BaseException] = []

        def wait() -> None:
            try:
                client.wait_for("never-submitted", poll_interval=0.5, timeout=None)
            except BaseException as exc:  # handed to the test thread
                outcome.append(exc)

        started = time.monotonic()
        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "wait_for kept retrying a refusal"
        assert time.monotonic() - started < 1.0
        (error,) = outcome
        assert isinstance(error, DispatchError)
        assert "unknown sweep" in str(error)

    def test_a_connection_dropped_mid_call_is_retried(self) -> None:
        """The first fetch is cut off after the handshake (a daemon killed
        while holding it); the second is answered."""
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10.0)
        welcome = {"type": "welcome", "service": "fleet", "role": "submitter"}
        results = {"type": "results", "sweep": "s", "total": 0, "results": []}
        fetches: list[dict] = []

        def serve() -> None:
            with server:
                for answer in (None, results):
                    conn, _ = server.accept()
                    with conn:
                        recv_frame(conn)  # hello
                        send_frame(conn, welcome)
                        fetches.append(recv_frame(conn))
                        if answer is not None:
                            send_frame(conn, answer)
                            recv_frame(conn)  # goodbye
                            send_frame(conn, {"type": "ok"})

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = server.getsockname()
        reply = FleetClient(host, port).wait_for("s", poll_interval=0.05, timeout=10.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert reply["type"] == "results"
        assert [frame["wait"] for frame in fetches] == [0.05, 0.05]
