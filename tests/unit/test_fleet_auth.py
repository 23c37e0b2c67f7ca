"""Unit tests for fleet authentication: HMAC primitives and the daemon gate.

The acceptance bar: an unauthenticated or wrong-secret ``hello``/``submit``
is rejected *before any queue mutation* — the daemon's queue must be
provably untouched after a refused connection.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.dispatch.auth import (
    SECRET_ENV_VAR,
    compute_mac,
    issue_nonce,
    secret_from_env,
    verify_mac,
)
from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.errors import AuthenticationError, DispatchError

SECRET = "unit-test-secret"


class TestPrimitives:
    def test_mac_round_trip(self) -> None:
        nonce = issue_nonce()
        mac = compute_mac(SECRET, nonce, "worker", "w0")
        assert verify_mac(SECRET, nonce, "worker", "w0", mac)

    def test_nonces_are_fresh(self) -> None:
        assert issue_nonce() != issue_nonce()
        assert len(issue_nonce()) == 64  # 32 bytes hex

    def test_wrong_secret_fails(self) -> None:
        nonce = issue_nonce()
        mac = compute_mac("other-secret", nonce, "worker", "w0")
        assert not verify_mac(SECRET, nonce, "worker", "w0", mac)

    def test_role_and_name_are_bound_into_the_mac(self) -> None:
        # A captured worker handshake must not authenticate a submitter,
        # and renamed peers must re-prove themselves.
        nonce = issue_nonce()
        mac = compute_mac(SECRET, nonce, "worker", "w0")
        assert not verify_mac(SECRET, nonce, "submitter", "w0", mac)
        assert not verify_mac(SECRET, nonce, "worker", "w1", mac)

    def test_nonce_is_bound_so_replays_fail(self) -> None:
        mac = compute_mac(SECRET, issue_nonce(), "worker", "w0")
        assert not verify_mac(SECRET, issue_nonce(), "worker", "w0", mac)

    def test_non_string_mac_is_just_wrong(self) -> None:
        assert not verify_mac(SECRET, issue_nonce(), "worker", "w0", None)
        assert not verify_mac(SECRET, issue_nonce(), "worker", "w0", 123)

    def test_empty_local_secret_is_a_bug(self) -> None:
        with pytest.raises(AuthenticationError):
            compute_mac("", issue_nonce(), "worker", "w0")

    def test_secret_from_env(self) -> None:
        assert secret_from_env({}) is None
        assert secret_from_env({SECRET_ENV_VAR: ""}) is None
        assert secret_from_env({SECRET_ENV_VAR: "s3"}) == "s3"


@pytest.fixture()
def daemon():
    instance = FleetDaemon(FleetConfig(port=0, secret=SECRET))
    instance.start()
    try:
        yield instance
    finally:
        instance.shutdown()


def handshake_frames(daemon, frames: list[dict]) -> list[dict]:
    """Drive a raw connection through ``frames``, collecting every reply."""
    host, port = daemon.address
    replies: list[dict] = []
    with socket.create_connection((host, port), timeout=10.0) as sock:
        for frame in frames:
            send_frame(sock, frame)
            reply = recv_frame(sock)
            if reply is None:
                break
            replies.append(reply)
            if reply.get("type") == "error":
                break
    return replies


def hello(role: str, name: str = "peer") -> dict:
    return {
        "type": "hello",
        "role": role,
        "worker": name,
        "protocol": PROTOCOL_VERSION,
    }


SPEC_PAYLOAD = {"spec": "x", "root_seed": 1, "columns": []}


class TestDaemonGate:
    def test_wrong_secret_rejected_before_queue_mutation(self, daemon) -> None:
        nonce_reply_then_error = handshake_frames(
            daemon,
            [
                hello("submitter"),
                {"type": "auth", "mac": "0" * 64},
                {"type": "submit", "sweep": "evil", "spec": SPEC_PAYLOAD},
            ],
        )
        assert [r["type"] for r in nonce_reply_then_error] == [
            "challenge",
            "error",
        ]
        assert nonce_reply_then_error[-1]["code"] == "auth"
        assert "wrong" in nonce_reply_then_error[-1]["message"]
        assert daemon.queue.names() == []
        assert daemon.stats.submissions == 0
        assert daemon.stats.rejected_auth == 1

    def test_submit_without_answering_challenge_rejected(self, daemon) -> None:
        replies = handshake_frames(
            daemon,
            [
                hello("submitter"),
                {"type": "submit", "sweep": "evil", "spec": SPEC_PAYLOAD},
            ],
        )
        assert replies[-1]["type"] == "error"
        assert daemon.queue.names() == []
        assert daemon.stats.submissions == 0

    def test_wrong_secret_worker_never_registered(self, daemon) -> None:
        replies = handshake_frames(
            daemon,
            [
                hello("worker", "intruder"),
                {
                    "type": "auth",
                    "mac": compute_mac("bad-secret", "??", "worker", "intruder"),
                },
            ],
        )
        assert replies[-1]["type"] == "error"
        # Registration (and health tracking) happens strictly after auth.
        assert daemon.worker_rows() == []
        assert daemon.stats.rejected_auth == 1

    def test_correct_secret_is_welcomed(self, daemon) -> None:
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            send_frame(sock, hello("worker", "w0"))
            challenge = recv_frame(sock)
            assert challenge["type"] == "challenge"
            send_frame(
                sock,
                {
                    "type": "auth",
                    "mac": compute_mac(
                        SECRET, challenge["nonce"], "worker", "w0"
                    ),
                },
            )
            welcome = recv_frame(sock)
            assert welcome == {
                "type": "welcome",
                "service": "fleet",
                "role": "worker",
            }

    def test_protocol_version_mismatch_rejected(self, daemon) -> None:
        replies = handshake_frames(
            daemon, [{"type": "hello", "worker": "w", "protocol": 1}]
        )
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "protocol"
        assert "version" in replies[-1]["message"]
        assert daemon.stats.rejected_protocol == 1

    def test_unknown_role_rejected(self, daemon) -> None:
        replies = handshake_frames(daemon, [hello("admin")])
        assert replies[-1]["type"] == "error"
        assert "role" in replies[-1]["message"]

    def test_client_with_wrong_secret_raises_authentication_error(
        self, daemon
    ) -> None:
        host, port = daemon.address
        client = FleetClient(host, port, secret="not-the-secret")
        with pytest.raises(AuthenticationError):
            client.status()
        assert daemon.queue.names() == []

    def test_client_with_no_secret_raises_before_dialing_frames(
        self, daemon
    ) -> None:
        host, port = daemon.address
        client = FleetClient(host, port, secret=None)
        with pytest.raises(AuthenticationError, match="REPRO_FLEET_SECRET"):
            client.status()

    def test_open_daemon_skips_the_challenge(self) -> None:
        open_daemon = FleetDaemon(FleetConfig(port=0, secret=None))
        # Construction must not silently pick up the test environment.
        open_daemon.config.secret = None
        open_daemon.start()
        try:
            host, port = open_daemon.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                send_frame(sock, hello("submitter"))
                assert recv_frame(sock)["type"] == "welcome"
        finally:
            open_daemon.shutdown()


class TestWorkerSide:
    def test_worker_with_wrong_secret_is_refused(self, daemon) -> None:
        from repro.dispatch.worker import run_worker

        host, port = daemon.address
        with pytest.raises(AuthenticationError, match="wrong secret"):
            run_worker(host, port, secret="wrong", connect_timeout=5.0)
        assert daemon.stats.rejected_auth == 1

    def test_worker_refused_for_protocol_reasons_is_not_an_auth_error(self) -> None:
        """The refusal type comes from the error frame's ``code``, not from
        words in its message: this one mentions auth and secrets but is a
        protocol refusal."""
        from repro.dispatch.worker import run_worker

        listener = socket.create_server(("127.0.0.1", 0))

        def refuse_once() -> None:
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                send_frame(
                    conn,
                    {
                        "type": "error",
                        "code": "protocol",
                        "message": "no auth secret will fix this version skew",
                    },
                )

        server = threading.Thread(target=refuse_once, daemon=True)
        server.start()
        try:
            with pytest.raises(DispatchError) as caught:
                run_worker(*listener.getsockname()[:2], connect_timeout=5.0)
            assert not isinstance(caught.value, AuthenticationError)
        finally:
            server.join(timeout=10.0)
            listener.close()

    def test_worker_with_no_secret_fails_loudly(self, daemon) -> None:
        from repro.dispatch.worker import run_worker

        host, port = daemon.address
        with pytest.raises(AuthenticationError, match="REPRO_FLEET_SECRET"):
            run_worker(host, port, secret="", connect_timeout=5.0)
