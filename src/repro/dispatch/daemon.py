"""The fleet daemon: the one dispatch server.

A :class:`FleetDaemon` accepts *named* sweeps with priorities — from
``submit`` connections, or in-process through :meth:`FleetDaemon.submit` —
and serves their points to workers over the frame protocol
(:mod:`repro.dispatch.protocol`).  With a journal directory it journals
every accepted result to an append-only JSONL file
(:mod:`repro.dispatch.journal`) *before* acknowledging it, and — when a
shared secret is configured — it refuses any connection that cannot answer
the HMAC challenge (:mod:`repro.dispatch.auth`) before a single frame
touches the queue.  ``--dispatch HOST:PORT`` is the same daemon without a
journal, living for exactly one sweep
(:func:`repro.dispatch.coordinator.run_dispatched`).

Because the journal is the state, a journaled daemon survives its own
failure drills: SIGKILL it mid-sweep, restart it against the same
``--journal`` directory, and it rebuilds each sweep from the journal header
(:meth:`SweepSpec.from_dict` round-trip, fingerprint-checked), seeds the
completed indices, and serves only the remainder — already-journaled
points are provably never re-executed (the ``executed`` counter in
``status`` reports counts wire results accepted per daemon lifetime).
Resubmitting an identical sweep — same fingerprint — attaches to the live
entry (or the journal on disk) instead of recomputing.

Worker scheduling is health-aware: every connection's frames feed a
:class:`~repro.dispatch.health.HealthTracker`, and chunk sizes adapt to
each worker's observed points/sec so heterogeneous hosts drain a sweep's
tail together instead of parking it on the slowest machine.

The daemon stores and serves *wire payloads* only; decoding results
against live spec objects is the submitter's job
(:mod:`repro.dispatch.client`, :mod:`repro.dispatch.coordinator`), which is
what keeps a daemon-served artifact byte-identical to a ``jobs=1`` run.
"""

from __future__ import annotations

import logging
import os
import socketserver
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.dispatch.auth import issue_nonce, secret_from_env, verify_mac
from repro.dispatch.fleet import FleetEntry, FleetQueue
from repro.dispatch.health import HealthTracker
from repro.dispatch.journal import (
    SweepJournal,
    compact_finished,
    journal_path,
    list_journals,
    sweep_fingerprint,
)
from repro.dispatch.protocol import (
    PROTOCOL_VERSION,
    is_index,
    recv_frame,
    send_frame,
)
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    DispatchError,
    JournalError,
    ProtocolError,
)
from repro.experiments.sweep import SweepSpec, spec_artifact
from repro.telemetry import MetricsRegistry

__all__ = ["FleetConfig", "FleetDaemon", "run_daemon"]

_ROLES = ("worker", "submitter")

#: Daemon diagnostics go through stdlib logging (the CLI configures the
#: root handler and ``--log-level``); user-facing tables stay on stdout.
_LOGGER = logging.getLogger("repro.dispatch.daemon")


@dataclass(slots=True)
class FleetConfig:
    """How one fleet daemon listens, journals and authenticates.

    ``secret=None`` (and :data:`~repro.dispatch.auth.SECRET_ENV_VAR`
    unset) runs in trusted-LAN mode: anyone who can reach the port can
    pull work.  ``journal_dir=None`` disables durability — submitted
    sweeps then live and die with the process, which is what a one-sweep
    ``--dispatch`` daemon wants.
    """

    host: str = "127.0.0.1"
    port: int = 0
    journal_dir: str | None = None
    secret: str | None = None
    lease_timeout: float = 30.0
    poll_interval: float = 0.5
    #: Adaptive chunk sizing (see :mod:`repro.dispatch.health`).
    target_chunk_seconds: float = 5.0
    probe_chunk_points: int = 1
    max_chunk_points: int = 64
    #: fsync journal appends (survive machine crash, not just SIGKILL).
    fsync: bool = False
    #: Archive finished journals idle for this many seconds at startup
    #: (``fleet serve --journal-expiry``); ``None`` keeps every journal
    #: forever.  ``0.0`` archives every finished journal immediately, so a
    #: long-lived daemon's restore (and ``fleet status``) stays O(active
    #: sweeps) however many sweeps it has ever served.
    journal_expiry: float | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("daemon host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"daemon port must be in [0, 65535], got {self.port}"
            )
        if self.lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be positive, got {self.lease_timeout}"
            )
        if self.poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.journal_expiry is not None and self.journal_expiry < 0:
            raise ConfigurationError(
                f"journal_expiry must be >= 0 or None, got {self.journal_expiry}"
            )


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


@dataclass(slots=True)
class _DaemonStats:
    """Per-lifetime counters surfaced in status reports and tests."""

    started_at: float = field(default_factory=time.monotonic)
    connections: int = 0
    rejected_auth: int = 0
    rejected_protocol: int = 0
    submissions: int = 0
    results_accepted: int = 0


class FleetDaemon:
    """A multi-sweep queue service over the dispatch frame protocol.

    Construction binds the listening socket and — when ``journal_dir`` is
    set — restores every journaled sweep found there.  :meth:`start`
    accepts connections in the background; :meth:`serve_forever` blocks
    and doubles as the stale-lease sweeper.
    """

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        if self.config.secret is None:
            self.config.secret = secret_from_env()
        self.queue = FleetQueue(lease_timeout=self.config.lease_timeout)
        self.health = HealthTracker(
            target_chunk_seconds=self.config.target_chunk_seconds,
            probe_chunk_points=self.config.probe_chunk_points,
            max_chunk_points=self.config.max_chunk_points,
            alive_after=self.config.lease_timeout,
        )
        self.stats = _DaemonStats()
        self._journals: dict[str, SweepJournal] = {}
        self._submit_lock = threading.Lock()
        self._owner_counter = 0
        self._owner_lock = threading.Lock()
        self._stop = threading.Event()
        self._server = _ThreadingTCPServer(
            (self.config.host, self.config.port), self._handler_class()
        )
        self._server_thread: threading.Thread | None = None
        if self.config.journal_dir:
            self._restore_from_journals()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> None:
        """Accept connections in the background (idempotent)."""
        if self._server_thread is None:
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": min(0.1, self.config.poll_interval)},
                name="fleet-daemon",
                daemon=True,
            )
            self._server_thread.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown`; sweeps stale leases while idle."""
        self.start()
        while not self._stop.is_set():
            self._stop.wait(timeout=self.config.poll_interval)
            self.queue.expire_stale_leases()

    def shutdown(self) -> None:
        """Stop accepting connections, close journals, release the port.

        Connections already open stay up just long enough to tell each
        worker ``done`` at its next ``request``, so it leaves cleanly
        instead of seeing a dropped link.
        """
        self._stop.set()
        if self._server_thread is not None:
            self._server.shutdown()
        self._server.server_close()
        for journal in self._journals.values():
            journal.close()

    # ------------------------------------------------------------------
    # Journal restore
    # ------------------------------------------------------------------

    def _restore_from_journals(self) -> None:
        if self.config.journal_expiry is not None:
            archived = compact_finished(
                self.config.journal_dir, older_than=self.config.journal_expiry
            )
            for target in archived:
                self._log(f"archived finished journal to {target}")
        for path in list_journals(self.config.journal_dir):
            journal, replayed = SweepJournal.attach(path, fsync=self.config.fsync)
            for warning in replayed.warnings:
                self._log(f"journal warning: {warning}")
            entry, created = self.queue.submit(
                replayed.name,
                spec_artifact(replayed.rebuild_spec())["columns"],
                replayed.fingerprint,
                priority=replayed.priority,
                resumed_results=replayed.results,
            )
            if not created:  # pragma: no cover - two files, one safe name
                journal.close()
                raise JournalError(
                    f"{path}: sweep {replayed.name!r} restored twice — two "
                    "journal files map to the same sweep name"
                )
            self._journals[replayed.name] = journal
            self._log(
                f"restored sweep {replayed.name!r} from journal: "
                f"{entry.completed}/{entry.total} points already done"
            )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _handler_class(self) -> type:
        daemon = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # pragma: no cover - thin shim
                daemon._handle_connection(self.request)

        return Handler

    def _register_worker(self, name: object) -> str:
        with self._owner_lock:
            self._owner_counter += 1
            return f"{name or 'worker'}#{self._owner_counter}"

    def _handle_connection(self, sock) -> None:
        owner = None
        self.stats.connections += 1
        try:
            hello = recv_frame(sock)
            if hello is None:
                return
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
            if hello.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: daemon speaks "
                    f"{PROTOCOL_VERSION}, peer {hello.get('protocol')!r}"
                )
            role = hello.get("role", "worker")
            if role not in _ROLES:
                raise ProtocolError(f"unknown role {role!r}; one of {_ROLES}")
            name = str(hello.get("worker") or hello.get("client") or role)
            if self.config.secret is not None:
                # Challenge/response *before* the peer is registered
                # anywhere: a failed MAC never touches the queue.
                self._authenticate(sock, role, name)
            if role == "worker":
                owner = self._register_worker(name)
                self.health.on_connect(owner)
            send_frame(
                sock,
                {"type": "welcome", "service": "fleet", "role": role},
            )
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    return
                if self._stop.is_set() and frame.get("type") != "goodbye":
                    # shutdown() ran while we blocked on recv.  A worker
                    # asking for more is told to leave; anything else
                    # closes the connection rather than keep serving a
                    # dead daemon's queue (workers reconnect to whatever
                    # replaces it).
                    if owner is None or frame.get("type") != "request":
                        return
                    send_frame(sock, {"type": "done"})
                    continue
                if owner is not None:
                    self.health.on_frame(owner)
                    reply = self._reply_to_worker(frame, owner)
                else:
                    reply = self._reply_to_submitter(frame)
                send_frame(sock, reply)
                if frame.get("type") == "goodbye":
                    return
        except AuthenticationError as exc:
            self.stats.rejected_auth += 1
            self._refuse(sock, "auth", str(exc))
        except ProtocolError as exc:
            self.stats.rejected_protocol += 1
            self._refuse(sock, "protocol", str(exc))
        except OSError:
            pass  # connection died; leases are released below
        finally:
            if owner is not None:
                self.queue.release(owner)
                self.health.on_disconnect(owner)

    def _authenticate(self, sock, role: str, name: str) -> None:
        nonce = issue_nonce()
        send_frame(sock, {"type": "challenge", "nonce": nonce})
        reply = recv_frame(sock)
        if reply is None:
            raise AuthenticationError(
                f"{role} {name!r} hung up at the auth challenge"
            )
        if reply.get("type") != "auth":
            raise AuthenticationError(
                f"{role} {name!r} answered the challenge with "
                f"{reply.get('type')!r}, not auth"
            )
        if not verify_mac(
            self.config.secret, nonce, role, name, reply.get("mac")
        ):
            raise AuthenticationError(
                f"{role} {name!r} presented a MAC computed with the wrong "
                "secret"
            )

    def _refuse(self, sock, code: str, message: str) -> None:
        try:
            send_frame(sock, {"type": "error", "code": code, "message": message})
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Worker frames
    # ------------------------------------------------------------------

    def _reply_to_worker(self, frame: Mapping[str, object], owner: str) -> dict:
        kind = frame.get("type")
        if kind == "request":
            lease = self.queue.acquire(
                owner, self.health.chunk_points_for(owner)
            )
            if lease is None:
                return {"type": "wait", "delay": self.config.poll_interval}
            payloads = self.queue.entry(lease.sweep).point_payloads
            return {
                "type": "chunk",
                "sweep": lease.sweep,
                "chunk_id": lease.lease_id,
                "points": [
                    {"index": index, "point": payloads[index]}
                    for index in lease.indices
                ],
            }
        if kind == "result":
            sweep = frame.get("sweep")
            index = frame.get("index")
            payload = frame.get("result")
            if not isinstance(sweep, str):
                raise ProtocolError(
                    f"result frame without a sweep name: {sweep!r}"
                )
            if not is_index(index):
                raise ProtocolError(f"result with bad index {index!r}")
            if not isinstance(payload, Mapping):
                raise ProtocolError(
                    f"result for {sweep!r}[{index}] carries no payload object"
                )
            try:
                accepted = self.queue.complete(sweep, index, payload, owner)
            except DispatchError as exc:  # unknown sweep / index off the grid
                raise ProtocolError(str(exc)) from exc
            if accepted:
                self.stats.results_accepted += 1
                self.health.on_result(owner)
                self._journal_point(sweep, index, payload)
                entry = self.queue.entry(sweep)
                if entry is not None and entry.state == "done":
                    self._log(
                        f"sweep {sweep!r} complete "
                        f"({entry.executed} executed, "
                        f"{len(entry.resumed)} resumed)"
                    )
            return {"type": "ok", "accepted": accepted}
        if kind == "heartbeat":
            self.health.on_heartbeat(owner)
            extended = self.queue.heartbeat(owner)
            return {"type": "ok", "extended": extended}
        if kind == "goodbye":
            return {"type": "ok"}
        raise ProtocolError(f"unknown worker message type {kind!r}")

    def _journal_point(
        self, sweep: str, index: int, payload: Mapping[str, object]
    ) -> None:
        journal = self._journals.get(sweep)
        if journal is None:
            return
        try:
            journal.record(index, payload)
        except ValueError:
            # A handler thread raced shutdown() past the closed journal.
            # Dropping the append is crash-equivalent: the restarted
            # daemon simply re-queues this point as not-yet-durable.
            if not self._stop.is_set():
                raise

    # ------------------------------------------------------------------
    # Submitter frames
    # ------------------------------------------------------------------

    def _reply_to_submitter(self, frame: Mapping[str, object]) -> dict:
        kind = frame.get("type")
        if kind == "submit":
            return self._handle_submit(frame)
        if kind == "status":
            return self._handle_status(frame)
        if kind == "metrics":
            return self._handle_metrics()
        if kind == "cancel":
            sweep = frame.get("sweep")
            if not isinstance(sweep, str):
                raise ProtocolError(f"cancel without a sweep name: {sweep!r}")
            existed = self.queue.cancel(sweep)
            if existed:
                self._log(f"sweep {sweep!r} cancelled")
            return {"type": "cancelled", "sweep": sweep, "existed": existed}
        if kind == "fetch":
            return self._handle_fetch(frame)
        if kind == "goodbye":
            return {"type": "ok"}
        raise ProtocolError(f"unknown submitter message type {kind!r}")

    def _handle_submit(self, frame: Mapping[str, object]) -> dict:
        spec_payload = frame.get("spec")
        if not isinstance(spec_payload, Mapping):
            raise ProtocolError("submit frame carries no spec object")
        priority = frame.get("priority", 0)
        if not is_index(priority):
            raise ProtocolError(f"submit priority must be an int, got {priority!r}")
        try:
            spec = SweepSpec.from_dict(spec_payload)
        except ConfigurationError as exc:
            # Non-portable or malformed grids are refused before anything
            # is queued or journaled.
            raise ProtocolError(f"unsubmittable sweep spec: {exc}") from exc
        name = frame.get("sweep") or spec.name
        if not isinstance(name, str) or not name:
            raise ProtocolError(f"submit without a usable sweep name: {name!r}")
        try:
            entry, created = self._submit(spec, name, priority)
        except (ConfigurationError, DispatchError, OSError) as exc:
            # Name collision, unsafe name, unreadable or foreign journal.
            raise ProtocolError(str(exc)) from exc
        return {
            "type": "submitted",
            "sweep": name,
            "created": created,
            "state": entry.state,
            "total": entry.total,
            "completed": entry.completed,
            "resumed": len(entry.resumed),
        }

    def submit(
        self, spec: SweepSpec, *, name: str | None = None, priority: int = 0
    ) -> FleetEntry:
        """Queue ``spec`` from inside the daemon's own process.

        What a ``submit`` frame does, minus the wire: the spec is pushed
        through the same ``spec_artifact`` → :meth:`SweepSpec.from_dict`
        round trip, so a point that cannot travel to a worker raises
        :class:`ConfigurationError` here, before any worker connects.
        ``name`` defaults to ``spec.name``.
        """
        SweepSpec.from_dict(spec_artifact(spec))
        entry, _ = self._submit(spec, name or spec.name, priority)
        return entry

    def _submit(
        self, spec: SweepSpec, name: str, priority: int
    ) -> tuple[FleetEntry, bool]:
        fingerprint = sweep_fingerprint(spec)
        with self._submit_lock:
            resumed: dict[int, dict] = {}
            journal: SweepJournal | None = None
            if (
                self.config.journal_dir is not None
                and self.queue.entry(name) is None
            ):
                path = journal_path(self.config.journal_dir, name)
                if os.path.exists(path):
                    journal, replayed = SweepJournal.attach(
                        path,
                        expected_fingerprint=fingerprint,
                        fsync=self.config.fsync,
                    )
                    for warning in replayed.warnings:
                        self._log(f"journal warning: {warning}")
                    resumed = replayed.results
                else:
                    journal = SweepJournal.create(
                        self.config.journal_dir,
                        spec,
                        name=name,
                        priority=priority,
                        fsync=self.config.fsync,
                    )
            try:
                entry, created = self.queue.submit(
                    name,
                    spec_artifact(spec)["columns"],
                    fingerprint,
                    priority=priority,
                    resumed_results=resumed,
                )
            except Exception:
                if journal is not None:
                    journal.close()
                raise
            if journal is not None:
                self._journals[name] = journal
        self.stats.submissions += 1
        self._log(
            f"sweep {name!r} {'submitted' if created else 'attached'}: "
            f"{entry.completed}/{entry.total} done, priority {entry.priority}"
        )
        return entry, created

    def _handle_status(self, frame: Mapping[str, object]) -> dict:
        sweep = frame.get("sweep")
        rows = self.queue.status_rows()
        if isinstance(sweep, str):
            rows = [row for row in rows if row["sweep"] == sweep]
        return {
            "type": "status_report",
            "sweeps": rows,
            "workers": self.health.snapshot(),
            "daemon": {
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": round(
                    time.monotonic() - self.stats.started_at, 3
                ),
                "journal_dir": self.config.journal_dir,
                "authenticated": self.config.secret is not None,
                "results_accepted": self.stats.results_accepted,
                "rejected_auth": self.stats.rejected_auth,
            },
        }

    def _handle_metrics(self) -> dict:
        """Live ``repro.telemetry/1`` snapshot of the daemon's own state.

        Built on demand from the same counters ``status`` reads — the
        daemon keeps no registry between calls, so the verb costs nothing
        while nobody asks.  Per-sweep throughput uses the ``executed``
        counter (results accepted over the wire this lifetime); journal lag
        is results completed but not yet durable in that sweep's journal —
        nonzero only in the window between accept and append (omitted for
        daemons running without a journal directory).
        """
        registry = MetricsRegistry()
        uptime = max(time.monotonic() - self.stats.started_at, 1e-9)
        registry.gauge("daemon.uptime_seconds", round(uptime, 3))
        registry.count("daemon.connections", self.stats.connections)
        registry.count("daemon.rejected_auth", self.stats.rejected_auth)
        registry.count("daemon.rejected_protocol", self.stats.rejected_protocol)
        registry.count("daemon.submissions", self.stats.submissions)
        registry.count("daemon.results_accepted", self.stats.results_accepted)
        registry.count("queue.leases_requeued", self.queue.leases_requeued)
        for row in self.queue.status_rows():
            name = row["sweep"]
            registry.gauge(f"sweep.{name}.total", row["total"])
            registry.gauge(f"sweep.{name}.completed", row["completed"])
            registry.gauge(f"sweep.{name}.pending", row["pending"])
            registry.gauge(f"sweep.{name}.leased", row["leased"])
            registry.gauge(
                f"sweep.{name}.throughput_points_per_sec",
                round(row["executed"] / uptime, 6),
            )
            journal = self._journals.get(name)
            if journal is not None:
                registry.gauge(
                    f"sweep.{name}.journal_lag",
                    row["completed"] - len(journal.journaled_indices),
                )
        for row in self.health.snapshot():
            worker = row["worker"]
            registry.gauge(
                f"worker.{worker}.points_completed", row["points_completed"]
            )
            if row["points_per_sec"] is not None:
                registry.gauge(
                    f"worker.{worker}.points_per_sec_ewma", row["points_per_sec"]
                )
        return {"type": "metrics_report", "telemetry": registry.snapshot()}

    def _handle_fetch(self, frame: Mapping[str, object]) -> dict:
        sweep = frame.get("sweep")
        if not isinstance(sweep, str):
            raise ProtocolError(f"fetch without a sweep name: {sweep!r}")
        entry = self.queue.entry(sweep)
        if entry is None:
            raise ProtocolError(f"fetch for unknown sweep {sweep!r}")
        if entry.state != "done":
            return {
                "type": "pending",
                "sweep": sweep,
                "state": entry.state,
                "completed": entry.completed,
                "total": entry.total,
            }
        results = self.queue.results_for(sweep)
        return {
            "type": "results",
            "sweep": sweep,
            "total": entry.total,
            "results": sorted(results.items()),
        }

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        _LOGGER.info(message)


def run_daemon(config: FleetConfig) -> int:
    """CLI entry: serve until SIGTERM/SIGINT; returns a process exit code.

    Signal handlers are only installed on the main thread (tests call this
    from worker threads, where ``signal.signal`` is unavailable).
    """
    import signal

    daemon = FleetDaemon(config)
    host, port = daemon.address
    daemon._log(
        f"serving at {host}:{port} "
        f"(journal: {config.journal_dir or 'disabled'}, "
        f"auth: {'hmac' if daemon.config.secret else 'off'}, "
        f"restored sweeps: {len(daemon.queue.names())})"
    )

    def _stop(signum, frame) -> None:  # pragma: no cover - signal path
        daemon._log(f"signal {signum}; shutting down")
        daemon._stop.set()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        daemon.shutdown()
        daemon._log("stopped")
    return 0


def _main() -> int:  # pragma: no cover - exercised via the CLI module
    return run_daemon(FleetConfig())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
