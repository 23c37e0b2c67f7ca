"""The dispatch worker: pull chunks, execute points, stream results.

``repro-experiments worker --connect HOST:PORT`` lands here.  A worker is a
single TCP connection to a :class:`~repro.dispatch.daemon.FleetDaemon`: it
pulls chunk leases, rebuilds each point from its JSON payload
(:meth:`SweepPoint.from_dict` — the same portable codec the daemon
validated against), executes it through the *same* ``_execute_point`` path
a local ``run_sweep`` uses, and streams one result frame per point — tagged
with the sweep its chunk named, since a daemon serves many sweeps at once —
so nothing finished is ever lost if the process dies mid-chunk.  A
background thread heartbeats every few seconds to keep the worker's leases
alive through long simulations.

Workers are expendable by design: once the ``welcome`` handshake is done,
a dropped connection is a normal way for a run to end (the daemon's
process may exit while this worker is mid-point), reported in
:attr:`WorkerStats.disconnected` rather than raised.  *Before* the
handshake completes, nobody listening — including a listener that accepts
and hangs up without a word, which is what a finished ``--dispatch`` run
closing its socket looks like — is retried until ``connect_timeout`` and
then raises :class:`CoordinatorUnreachable`; a refusal the daemon *says*
(protocol version mismatch) raises :class:`DispatchError` at once, a failed
auth challenge its subclass :class:`AuthenticationError`.

A daemon that is stopping — a ``--dispatch`` daemon whose one sweep has
finished — answers ``request`` with ``done`` and the worker leaves cleanly.
A long-lived daemon holds a ``request`` it has no work for until work
arrives or its poll interval ends, and then only ever says ``wait``, so
``max_idle`` decides when a quiet queue means "go home" rather than "wait
for more".

:class:`~repro.dispatch.faults.FaultPlan` hooks the failure drills in:
``run_worker(..., faults=FaultPlan.parse("crash:3"))`` dies hard after
three points, exactly what the reassignment tests and CI drills exercise.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass

from repro.dispatch.auth import compute_mac, secret_from_env
from repro.dispatch.codec import encode_result
from repro.dispatch.faults import FaultPlan
from repro.dispatch.protocol import (
    PROTOCOL_VERSION,
    is_seconds,
    recv_frame,
    send_frame,
)
from repro.errors import (
    AuthenticationError,
    CoordinatorUnreachable,
    DispatchError,
    ProtocolError,
)
from repro.experiments.sweep import SweepPoint, _execute_point

__all__ = ["WorkerStats", "run_worker"]


@dataclass(slots=True)
class WorkerStats:
    """What one worker connection did, for logs and tests."""

    worker: str = "worker"
    points_executed: int = 0
    chunks_received: int = 0
    #: Results the daemon had already received from another worker
    #: (this worker raced a reassignment and lost — harmless).
    duplicate_results: int = 0
    waits: int = 0
    heartbeats: int = 0
    #: Distinct sweep names this worker pulled chunks for (a daemon may
    #: serve many sweeps over one connection).
    sweeps_served: int = 0
    #: The connection ended without a clean goodbye (the daemon's process
    #: went away, or the link dropped).  Normal at end of run.
    disconnected: bool = False
    #: The worker left because the queue stayed empty past ``max_idle``.
    idled_out: bool = False


def _connect(host: str, port: int, timeout: float, retry_delay: float) -> socket.socket:
    """Dial the daemon, retrying until ``timeout`` seconds elapse.

    Workers routinely start before the daemon binds (CI launches both
    concurrently), so refusal is retried rather than fatal.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise CoordinatorUnreachable(
                    f"could not reach a daemon at {host}:{port} "
                    f"within {timeout:g}s: {exc}"
                ) from exc
            time.sleep(retry_delay)


class _ListenerGone(ProtocolError):
    """The peer hung up before sending a single handshake frame."""


class _Refused(ProtocolError):
    """The daemon answered with an ``error`` frame: final, not transient."""


def _handshake(
    sock: socket.socket, role: str, name: str, secret: str | None
) -> None:
    """``hello`` → (``challenge`` → ``auth``) → ``welcome``, as ``role``.

    The one place a peer introduces itself, used by workers and submitters
    alike.  A refusal raises by the ``code`` the daemon's error frame
    carries: :class:`AuthenticationError` for ``"auth"``,
    :class:`ProtocolError` for anything else.
    """
    send_frame(
        sock,
        {
            "type": "hello",
            "role": role,
            "worker": name,
            "protocol": PROTOCOL_VERSION,
        },
    )
    reply = recv_frame(sock)
    if reply is None:
        raise _ListenerGone("daemon closed the connection during the handshake")
    if reply.get("type") == "challenge":
        if not secret:
            raise AuthenticationError(
                "daemon demands authentication but no fleet secret is "
                "configured (set REPRO_FLEET_SECRET)"
            )
        mac = compute_mac(secret, str(reply.get("nonce")), role, name)
        send_frame(sock, {"type": "auth", "mac": mac})
        reply = recv_frame(sock)
    if reply is None:
        raise ProtocolError("daemon closed the connection during the handshake")
    if reply.get("type") == "error":
        refusal = AuthenticationError if reply.get("code") == "auth" else _Refused
        raise refusal(f"daemon refused: {reply.get('message')}")
    if reply.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {reply.get('type')!r}")


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    faults: FaultPlan | None = None,
    heartbeat_interval: float = 2.0,
    connect_timeout: float = 30.0,
    connect_retry_delay: float = 0.2,
    secret: str | None = None,
    max_idle: float | None = None,
) -> WorkerStats:
    """Serve one daemon connection; returns stats.

    Blocks the calling thread.  ``faults`` injects a failure drill (see
    :mod:`repro.dispatch.faults`); ``heartbeat_interval`` must stay well
    under the daemon's lease timeout or healthy long-running points will
    be spuriously reassigned (harmless for correctness, wasteful for
    wall-clock).  ``secret`` (default: the ``REPRO_FLEET_SECRET``
    environment variable) answers the daemon's auth challenge;
    ``max_idle`` bounds how long the worker waits through an empty queue
    before leaving cleanly — ``None`` waits forever, the right choice
    against a ``--dispatch`` daemon, which says ``done`` once its sweep is
    finished.
    """
    stats = WorkerStats(worker=name or f"worker-{os.getpid()}")
    if secret is None:
        secret = secret_from_env()
    if max_idle is not None and not (is_seconds(max_idle) and max_idle > 0):
        raise DispatchError(
            f"max_idle must be None or a positive number of seconds, got {max_idle}"
        )
    deadline = time.monotonic() + connect_timeout
    while True:
        sock = _connect(
            host, port, max(0.0, deadline - time.monotonic()), connect_retry_delay
        )
        try:
            _handshake(sock, "worker", stats.worker, secret)
            break
        except (_ListenerGone, OSError) as exc:
            # Accepted, then closed or reset without a frame: a listener on
            # its way out, not a refusal.  Redial inside the same budget.
            sock.close()
            if time.monotonic() >= deadline:
                raise CoordinatorUnreachable(
                    f"no daemon at {host}:{port} completed a handshake "
                    f"within {connect_timeout:g}s: {exc}"
                ) from exc
            time.sleep(connect_retry_delay)
        except AuthenticationError:
            sock.close()
            raise
        except ProtocolError as exc:
            # A refusal the daemon spelled out (or garbage): loud, at once.
            sock.close()
            raise DispatchError(
                f"handshake with {host}:{port} failed: {exc}"
            ) from exc
    lock = threading.Lock()
    stop = threading.Event()
    heartbeats_suppressed = threading.Event()

    def rpc(payload: dict) -> dict:
        with lock:
            send_frame(sock, payload)
            reply = recv_frame(sock)
        if reply is None:
            raise ProtocolError("daemon closed the connection")
        if reply.get("type") == "error":
            raise ProtocolError(f"daemon refused: {reply.get('message')}")
        return reply

    def heartbeat_loop() -> None:
        while not stop.wait(heartbeat_interval):
            if heartbeats_suppressed.is_set():
                continue
            try:
                rpc({"type": "heartbeat"})
            except (ProtocolError, OSError):
                return
            stats.heartbeats += 1

    heartbeat_thread = threading.Thread(
        target=heartbeat_loop, name=f"{stats.worker}-heartbeat", daemon=True
    )
    heartbeat_thread.start()

    fault_fired = False

    def maybe_inject_fault() -> bool:
        """Fire the drill once its point count is reached.

        Returns True if the worker should stop (disconnect drill); a crash
        drill never returns.
        """
        nonlocal fault_fired
        if faults is None or fault_fired:
            return False
        if not faults.triggers_after(stats.points_executed):
            return False
        fault_fired = True
        if faults.kind == "crash":
            # Hard death: no goodbye, no flush — the kernel closes the
            # socket, just like SIGKILL/OOM.  Exit code marks the drill.
            os._exit(137)
        if faults.kind == "disconnect":
            sock.close()
            stats.disconnected = True
            return True
        # stall: go silent (no execution, no heartbeats) past the lease.
        heartbeats_suppressed.set()
        time.sleep(faults.stall_seconds)
        heartbeats_suppressed.clear()
        return False

    seen_sweeps: set[str] = set()
    idle_since: float | None = None
    try:
        while True:
            reply = rpc({"type": "request"})
            kind = reply.get("type")
            if kind == "done":
                try:
                    rpc({"type": "goodbye"})
                except (ProtocolError, OSError):
                    pass
                return stats
            if kind == "wait":
                stats.waits += 1
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if max_idle is not None and now - idle_since >= max_idle:
                    # A running daemon never says done; a queue this
                    # quiet means the fleet has drained and we may leave.
                    stats.idled_out = True
                    try:
                        rpc({"type": "goodbye"})
                    except (ProtocolError, OSError):
                        pass
                    return stats
                delay = reply.get("delay", 0.2)
                if not is_seconds(delay):
                    raise ProtocolError(f"wait with a bad delay {delay!r}")
                time.sleep(delay)
                continue
            if kind != "chunk":
                raise ProtocolError(f"unexpected reply {kind!r} to request")
            idle_since = None
            stats.chunks_received += 1
            sweep = reply.get("sweep")
            if isinstance(sweep, str) and sweep not in seen_sweeps:
                seen_sweeps.add(sweep)
                stats.sweeps_served = len(seen_sweeps)
            workloads: dict = {}  # one decoded workload per distinct spec
            for entry in reply.get("points", ()):
                # Checked before execution as well as after each result, so
                # after_points=0 drills die holding an untouched chunk.
                if maybe_inject_fault():
                    return stats
                point = SweepPoint.from_dict(entry["point"], workloads)
                result = _execute_point(
                    (
                        point.config,
                        point.workload,
                        point.read_workload,
                        point.scenario,
                        point.trace,
                    )
                )
                ack = rpc(
                    {
                        "type": "result",
                        "sweep": sweep,
                        "index": entry["index"],
                        "result": encode_result(result),
                    }
                )
                stats.points_executed += 1
                if not ack.get("accepted", True):
                    stats.duplicate_results += 1
                if maybe_inject_fault():
                    return stats
    except (ProtocolError, OSError):
        # The daemon going away while we worked on a since-reassigned
        # point is the normal end of a run.
        stats.disconnected = True
        return stats
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
