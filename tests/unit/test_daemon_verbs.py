"""What the fleet daemon answers to each message, per peer role.

Drives a journal-less :class:`FleetDaemon` over raw sockets: one case per
``(role, message type)`` the daemon serves, and every message that belongs
to the *other* role (or to none) — which must be refused with one
``error`` frame, ``code: "protocol"``, before the connection closes and
without touching the queue.
"""

from __future__ import annotations

import socket
from dataclasses import replace

import pytest

from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed, spec_artifact
from repro.workloads.synthetic import PerfectClusterWorkload


def tiny_spec() -> SweepSpec:
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    return SweepSpec(
        name="verbs",
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
    daemon = FleetDaemon(FleetConfig(poll_interval=0.05))
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
            "worker": f"verb-{role}",
            "protocol": PROTOCOL_VERSION,
        },
    )
    assert recv_frame(sock)["type"] == "welcome"
    return sock


def exchange(daemon: FleetDaemon, role: str, frame: dict) -> dict:
    with connect(daemon, role) as sock:
        send_frame(sock, frame)
        return recv_frame(sock)


class TestVerbTable:
    @pytest.mark.parametrize(
        "role, frame, reply_type",
        [
            ("worker", {"type": "request"}, "wait"),
            ("worker", {"type": "heartbeat"}, "ok"),
            ("worker", {"type": "goodbye"}, "ok"),
            ("submitter", {"type": "goodbye"}, "ok"),
            ("submitter", {"type": "status"}, "status_report"),
            ("submitter", {"type": "metrics"}, "metrics_report"),
            ("submitter", {"type": "cancel", "sweep": "nope"}, "cancelled"),
        ],
        ids=[
            "request-empty-queue",
            "heartbeat",
            "worker-goodbye",
            "submitter-goodbye",
            "status",
            "metrics",
            "cancel",
        ],
    )
    def test_served_verb_replies(self, daemon, role, frame, reply_type) -> None:
        assert exchange(daemon, role, frame)["type"] == reply_type

    @pytest.mark.parametrize(
        "role, frame",
        [
            ("submitter", {"type": "fetch", "sweep": "nope"}),
            ("worker", {"type": "heartbeat", "sweep": "nope", "results": [[0, {}]]}),
            ("worker", {"type": "result", "sweep": "nope", "index": 0, "result": {}}),
            ("submitter", {"type": "submit", "sweep": "no-spec"}),
        ],
        ids=[
            "fetch-unknown-sweep",
            "result-unknown-sweep",
            "retired-result-verb",
            "submit-without-spec",
        ],
    )
    def test_malformed_verb_is_a_protocol_error(self, daemon, role, frame) -> None:
        reply = exchange(daemon, role, frame)
        assert reply["type"] == "error" and reply["code"] == "protocol"

    def test_fetch_with_wait_on_a_running_sweep(self, daemon) -> None:
        FleetClient(*daemon.address, secret=daemon.config.secret).submit(tiny_spec())
        frame = {"type": "fetch", "sweep": "verbs", "wait": 0.05}
        reply = exchange(daemon, "submitter", frame)
        assert reply["type"] == "pending" and reply["state"] == "running"

    @pytest.mark.parametrize(
        "wait",
        [True, "1", -1, 10**400, 1e300],
        ids=["bool", "string", "negative", "huge-int", "huge-float"],
    )
    def test_bad_fetch_wait_is_a_protocol_error(self, daemon, wait) -> None:
        FleetClient(*daemon.address, secret=daemon.config.secret).submit(tiny_spec())
        frame = {"type": "fetch", "sweep": "verbs", "wait": wait}
        reply = exchange(daemon, "submitter", frame)
        assert reply["type"] == "error" and reply["code"] == "protocol"


def _wrong_role_cases():
    spec = tiny_spec()
    sweep = spec.name
    worker_only = {
        "request": {"type": "request"},
        "carried-result": {
            "type": "heartbeat",
            "sweep": sweep,
            "results": [[0, {"kind": "column", "payload": {}}]],
        },
        "heartbeat": {"type": "heartbeat"},
    }
    submitter_only = {
        "submit": {"type": "submit", "sweep": "other", "spec": spec_artifact(spec)},
        "status": {"type": "status"},
        "fetch": {"type": "fetch", "sweep": sweep},
        "cancel": {"type": "cancel", "sweep": sweep},
        "metrics": {"type": "metrics"},
    }
    cases = [
        pytest.param(role, frame, id=f"{role}-sends-{kind}")
        for role, frames in (("worker", submitter_only), ("submitter", worker_only))
        for kind, frame in frames.items()
    ]
    for role in ("worker", "submitter"):
        cases.append(pytest.param(role, {"type": "launch"}, id=f"{role}-unknown-type"))
        cases.append(pytest.param(role, {"sweep": sweep}, id=f"{role}-missing-type"))
    return cases


class TestWrongRole:
    @pytest.mark.parametrize("role, frame", _wrong_role_cases())
    def test_refused_once_then_closed_and_nothing_changes(
        self, daemon, role, frame
    ) -> None:
        FleetClient(*daemon.address, secret=daemon.config.secret).submit(tiny_spec())
        rows = daemon.queue.status_rows()
        accepted = daemon.queue.results_accepted
        with connect(daemon, role) as sock:
            send_frame(sock, frame)
            reply = recv_frame(sock)
            assert reply["type"] == "error" and reply["code"] == "protocol"
            assert recv_frame(sock) is None  # exactly one frame, then closed
        assert daemon.queue.status_rows() == rows
        assert daemon.queue.results_accepted == accepted
        # The refusal cost that one connection, not the daemon.
        status = exchange(daemon, "submitter", {"type": "status"})
        assert status["type"] == "status_report"
        assert exchange(daemon, "worker", {"type": "heartbeat"})["type"] == "ok"
