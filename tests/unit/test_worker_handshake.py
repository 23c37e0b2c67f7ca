"""``run_worker`` before the ``welcome``: a listener that hangs up without a
word is a daemon going away (redial, then ``CoordinatorUnreachable``); a
refusal the daemon spells out stays loud and immediate.  After it, a
``wait`` whose ``delay`` is not a number of seconds in ``[0, MAX_SECONDS]``
ends the worker as ``disconnected``, like any other protocol violation."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.dispatch.protocol import recv_frame, send_frame
from repro.dispatch.worker import run_worker
from repro.errors import AuthenticationError, CoordinatorUnreachable, DispatchError


class Listener:
    """Accepts on a loopback port for ``lifetime`` seconds, handing each
    connection to ``answer(conn)``, then closes the port."""

    def __init__(self, answer, lifetime: float) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self.accepted = 0
        self._answer = answer
        self._deadline = time.monotonic() + lifetime
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self.sock:
            while time.monotonic() < self._deadline:
                try:
                    conn, _ = self.sock.accept()
                except TimeoutError:
                    continue
                self.accepted += 1
                with conn:
                    self._answer(conn)

    def close(self) -> None:
        self._deadline = 0.0
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()


def hang_up(conn: socket.socket) -> None:
    """Close without sending a frame: what a finished --dispatch run does."""


def refuse_with(code: str):
    def answer(conn: socket.socket) -> None:
        assert recv_frame(conn)["type"] == "hello"
        send_frame(conn, {"type": "error", "code": code, "message": "no"})

    return answer


class TestListenerGoingAway:
    @pytest.mark.parametrize("lifetime", [0.3, 5.0], ids=["vanishes", "outlives"])
    def test_hang_ups_are_redialled_until_the_budget_runs_out(self, lifetime) -> None:
        listener = Listener(hang_up, lifetime)
        host, port = listener.address
        start = time.monotonic()
        with pytest.raises(CoordinatorUnreachable):
            run_worker(host, port, connect_timeout=0.8, connect_retry_delay=0.02)
        assert 0.8 <= time.monotonic() - start < 4.0
        assert listener.accepted > 1, "the hang-up was not retried"
        listener.close()


def wait_with(delay, after_wait: list):
    """Welcome the worker, answer its request with ``wait``/``delay``, then
    record whatever the worker sends next (``None`` once it hangs up)."""

    def answer(conn: socket.socket) -> None:
        assert recv_frame(conn)["type"] == "hello"
        send_frame(conn, {"type": "welcome", "service": "fleet", "role": "worker"})
        assert recv_frame(conn)["type"] == "request"
        send_frame(conn, {"type": "wait", "delay": delay})
        after_wait.append(recv_frame(conn))

    return answer


class TestMalformedWait:
    @pytest.mark.parametrize(
        "delay",
        ["abc", None, -1, float("nan"), float("inf"), True, 10**400, 1e300],
        ids=[
            "string",
            "null",
            "negative",
            "nan",
            "infinity",
            "bool",
            "huge-int",
            "huge-float",
        ],
    )
    def test_bad_delay_is_a_protocol_violation(self, delay) -> None:
        after_wait: list = []
        listener = Listener(wait_with(delay, after_wait), 5.0)
        host, port = listener.address
        stats = run_worker(host, port, connect_timeout=5.0, heartbeat_interval=60.0)
        listener.close()
        assert stats.disconnected and stats.waits == 1
        assert after_wait == [None], "the worker asked again after a bad delay"


class TestSpokenRefusal:
    @pytest.mark.parametrize(
        "code, error",
        [("version", DispatchError), ("auth", AuthenticationError)],
    )
    def test_error_frame_is_loud_and_immediate(self, code, error) -> None:
        listener = Listener(refuse_with(code), 5.0)
        host, port = listener.address
        start = time.monotonic()
        with pytest.raises(error) as excinfo:
            run_worker(host, port, connect_timeout=30.0, connect_retry_delay=0.02)
        assert not isinstance(excinfo.value, CoordinatorUnreachable)
        assert time.monotonic() - start < 5.0
        assert listener.accepted == 1
        listener.close()
