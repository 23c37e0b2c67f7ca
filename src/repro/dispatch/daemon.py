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

A submission is serialised once: the daemon rebuilds the peer's spec
payload through :meth:`SweepSpec.from_dict` and hashes, journals and queues
that one canonical ``spec_artifact``.  Nobody waits on a poll either: a
worker's ``request`` that finds nothing to lease is held until a
submission, a released or expired lease, or :meth:`FleetDaemon.shutdown`
moves the queue (for at most ``poll_interval``), and a submitter's
``fetch`` with ``wait`` is held until its sweep is done, every result
journaled, or the wait runs out.

Each worker connection is booked once, in one small record the daemon
keeps per connection: liveness (the last frame of any kind), progress, and
an EWMA of observed points/sec that sizes its next lease, so heterogeneous
hosts drain a sweep's tail together instead of parking it on the slowest
machine.  Sizing changes wall-clock shape only, never result bytes.

The daemon stores and serves *wire payloads* only; decoding results
against live spec objects is the submitter's job
(:mod:`repro.dispatch.client`, :mod:`repro.dispatch.coordinator`), which is
what keeps a daemon-served artifact byte-identical to a ``jobs=1`` run.
"""

from __future__ import annotations

import logging
import os
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.dispatch.auth import issue_nonce, secret_from_env, verify_mac
from repro.dispatch.fleet import FleetEntry, FleetQueue
from repro.dispatch.journal import (
    ReplayedJournal,
    SweepJournal,
    artifact_fingerprint,
    journal_path,
    list_journals,
)
from repro.dispatch.protocol import (
    PROTOCOL_VERSION,
    is_index,
    is_seconds,
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

#: Daemon diagnostics go through stdlib logging (the CLI configures the
#: root handler and ``--log-level``); user-facing tables stay on stdout.
_LOGGER = logging.getLogger("repro.dispatch.daemon")

#: Adaptive chunk sizing: a worker's lease targets this many seconds of its
#: observed throughput, clamped to ``[1, MAX_CHUNK_POINTS]``.  A worker with
#: no estimate yet (before its second accepted result) gets
#: ``PROBE_CHUNK_POINTS``: underestimating a fast host for one lease costs
#: far less than parking a sweep's tail on a slow one.  Read at call time.
TARGET_CHUNK_SECONDS = 5.0
PROBE_CHUNK_POINTS = 1
MAX_CHUNK_POINTS = 64
#: Weight of the newest inter-result interval in the throughput EWMA.
_EWMA_ALPHA = 0.3


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
    #: Longest a worker's ``request`` is held with nothing to lease; also
    #: the stale-lease sweep tick of :meth:`FleetDaemon.serve_forever`.
    poll_interval: float = 0.5
    #: fsync journal appends (survive machine crash, not just SIGKILL).
    fsync: bool = False
    #: At startup, move finished journals idle for this many seconds to
    #: ``<journal_dir>/archive/`` instead of restoring them (``fleet serve
    #: --journal-expiry``); ``None`` keeps every journal forever.  ``0.0``
    #: archives every finished journal, so a long-lived daemon's restore
    #: (and ``fleet status``) stays O(active sweeps) however many sweeps it
    #: has ever served.
    journal_expiry: float | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("daemon host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"daemon port must be in [0, 65535], got {self.port}"
            )
        for field in ("lease_timeout", "poll_interval"):
            value = getattr(self, field)
            if not (is_seconds(value) and value > 0):
                raise ConfigurationError(
                    f"{field} must be a positive number of seconds, got {value}"
                )
        if self.journal_expiry is not None and not is_seconds(self.journal_expiry):
            raise ConfigurationError(
                "journal_expiry must be None or a number of seconds >= 0, "
                f"got {self.journal_expiry}"
            )


@dataclass(slots=True)
class _Worker:
    """One worker connection's ledger: liveness, progress, throughput.

    Created by :meth:`FleetDaemon._register_worker` and written only under
    the daemon's ``_owner_lock``, which status snapshots take too.  Methods
    take ``now`` (``time.monotonic()`` in the daemon) instead of reading a
    clock.
    """

    owner: str
    #: When the last frame of any kind arrived.
    last_seen: float
    connected: bool = True
    points_completed: int = 0
    heartbeats: int = 0
    #: EWMA of completed points per second; ``None`` until a second result.
    points_per_sec: float | None = None
    last_result_at: float | None = None

    def record_result(self, now: float) -> None:
        """An accepted result: count it and update the throughput EWMA."""
        self.last_seen = now
        self.points_completed += 1
        previous, self.last_result_at = self.last_result_at, now
        if previous is None or now <= previous:
            return
        rate = 1.0 / (now - previous)
        if self.points_per_sec is None:
            self.points_per_sec = rate
        else:
            self.points_per_sec += _EWMA_ALPHA * (rate - self.points_per_sec)

    def disconnect(self) -> None:
        """The connection is gone: no rate is ever measured across the gap."""
        self.connected = False
        self.last_result_at = None

    def chunk_points(self) -> int:
        """How many points to lease this worker next."""
        if self.points_per_sec is None:
            return PROBE_CHUNK_POINTS
        sized = round(self.points_per_sec * TARGET_CHUNK_SECONDS)
        return max(1, min(MAX_CHUNK_POINTS, sized))

    def row(self, now: float, alive_after: float) -> dict[str, object]:
        """A JSON-safe ``fleet status`` row."""
        silence = max(0.0, now - self.last_seen)
        return {
            "worker": self.owner,
            "connected": self.connected,
            "alive": self.connected and silence <= alive_after,
            "silence_seconds": round(silence, 3),
            "points_completed": self.points_completed,
            "heartbeats": self.heartbeats,
            "points_per_sec": (
                None if self.points_per_sec is None else round(self.points_per_sec, 4)
            ),
        }


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
        self.stats = _DaemonStats()
        #: Every reply after ``welcome``: ``(role, message type)`` →
        #: ``handler(frame, worker)`` (the connection's :class:`_Worker`,
        #: ``None`` for submitters).  The roles a ``hello`` may claim are
        #: the ones named here; any other pair is a protocol error.
        self._verbs: dict[tuple[str, str], Callable[..., dict]] = {
            ("worker", "request"): self._handle_request,
            ("worker", "result"): self._handle_result,
            ("worker", "heartbeat"): self._handle_heartbeat,
            ("worker", "goodbye"): _handle_goodbye,
            ("submitter", "submit"): self._handle_submit,
            ("submitter", "status"): self._handle_status,
            ("submitter", "metrics"): self._handle_metrics,
            ("submitter", "cancel"): self._handle_cancel,
            ("submitter", "fetch"): self._handle_fetch,
            ("submitter", "goodbye"): _handle_goodbye,
        }
        self._journals: dict[str, SweepJournal] = {}
        self._submit_lock = threading.Lock()
        self._result_lock = threading.Lock()
        #: Every worker connection this daemon has served, by owner name.
        self._workers: dict[str, _Worker] = {}
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
        worker ``done`` at its next ``request`` — or at once, if the daemon
        is holding that request — so it leaves cleanly instead of seeing a
        dropped link.
        """
        self._stop.set()
        self.queue.wake()
        if self._server_thread is not None:
            self._server.shutdown()
        self._server.server_close()
        for journal in self._journals.values():
            journal.close()

    # ------------------------------------------------------------------
    # Journal restore
    # ------------------------------------------------------------------

    def _restore_from_journals(self) -> None:
        for path in list_journals(self.config.journal_dir):
            self._submit(restore=path)

    def _submit(
        self,
        artifact: dict | None = None,
        name: str = "",
        priority: int = 0,
        *,
        restore: str | None = None,
    ) -> tuple[FleetEntry, bool] | None:
        """Create-or-attach a sweep's journal, then queue the sweep.

        A submission passes the sweep's canonical ``spec_artifact``, its
        ``name`` and ``priority``; that one artifact is hashed, journaled and
        queued, and a journal already on disk under that name must hash to
        the same grid.  A restart passes only the journal path as
        ``restore`` and reads all three from its header — unless the sweep
        is finished and idle past ``journal_expiry``: then the file moves to
        ``<journal_dir>/archive/`` and nothing is queued (``None``).  Either
        way each file is replayed once; only submissions count in
        ``stats.submissions``.
        """
        with self._submit_lock:
            path = restore
            if (
                path is None
                and self.config.journal_dir is not None
                and self.queue.entry(name) is None
            ):
                path = journal_path(self.config.journal_dir, name)
            fingerprint = None if artifact is None else artifact_fingerprint(artifact)
            journal = replayed = None
            if path is not None and (restore or os.path.exists(path)):
                journal, replayed = SweepJournal.attach(
                    path, expected_fingerprint=fingerprint, fsync=self.config.fsync
                )
                for warning in replayed.warnings:
                    self._log(f"journal warning: {warning}")
            elif path is not None:
                journal = SweepJournal.create(
                    self.config.journal_dir,
                    artifact,
                    name=name,
                    fingerprint=fingerprint,
                    priority=priority,
                    fsync=self.config.fsync,
                )
            try:
                if restore is not None:
                    if self._archive_if_expired(replayed):
                        journal.close()
                        return None
                    artifact, name = replayed.rebuild_artifact(), replayed.name
                    priority, fingerprint = replayed.priority, replayed.fingerprint
                if journal is not None and name in self._journals:  # pragma: no cover
                    raise JournalError(f"{path}: a second journal for sweep {name!r}")
                entry, created = self.queue.submit(
                    name,
                    artifact["columns"],
                    fingerprint,
                    priority=priority,
                    resumed_results=replayed.results if replayed else None,
                )
            except Exception:
                if journal is not None:
                    journal.close()
                raise
            if journal is not None:
                self._journals[name] = journal
        if restore is not None:
            self._log(
                f"restored sweep {name!r} from journal: "
                f"{entry.completed}/{entry.total} points already done"
            )
        else:
            self.stats.submissions += 1
            self._log(
                f"sweep {name!r} {'submitted' if created else 'attached'}: "
                f"{entry.completed}/{entry.total} done, priority {entry.priority}"
            )
        return entry, created

    def _archive_if_expired(self, replayed: ReplayedJournal) -> bool:
        """Move a finished journal idle ``journal_expiry`` seconds aside."""
        expiry = self.config.journal_expiry
        if (
            expiry is None
            or len(replayed.results) < replayed.total
            or time.time() - os.path.getmtime(replayed.path) < expiry
        ):
            return False
        archive = os.path.join(self.config.journal_dir, "archive")
        os.makedirs(archive, exist_ok=True)
        target = os.path.join(archive, os.path.basename(replayed.path))
        os.replace(replayed.path, target)
        self._log(f"archived finished journal to {target}")
        return True

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _handler_class(self) -> type:
        daemon = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # pragma: no cover - thin shim
                daemon._handle_connection(self.request)

        return Handler

    def _register_worker(self, name: object) -> _Worker:
        with self._owner_lock:
            owner = f"{name or 'worker'}#{len(self._workers) + 1}"
            worker = self._workers[owner] = _Worker(owner, time.monotonic())
            return worker

    def worker_rows(self) -> list[dict[str, object]]:
        """``fleet status`` rows for every worker connection, by owner name."""
        now = time.monotonic()
        with self._owner_lock:
            return [
                self._workers[owner].row(now, self.config.lease_timeout)
                for owner in sorted(self._workers)
            ]

    def _handle_connection(self, sock) -> None:
        worker = None
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
            # A tuple, not a set: the peer's role may be any JSON value.
            roles = tuple(dict.fromkeys(verb_role for verb_role, _ in self._verbs))
            if role not in roles:
                raise ProtocolError(f"unknown role {role!r}; one of {roles}")
            name = str(hello.get("worker") or hello.get("client") or role)
            if self.config.secret is not None:
                # Challenge/response *before* the peer is registered
                # anywhere: a failed MAC never touches the queue.
                self._authenticate(sock, role, name)
            if role == "worker":
                worker = self._register_worker(name)
            send_frame(
                sock,
                {"type": "welcome", "service": "fleet", "role": role},
            )
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    return
                kind = frame.get("type")
                if self._stop.is_set() and kind != "goodbye":
                    # shutdown() ran while we blocked on recv.  A worker
                    # asking for more is told to leave; anything else
                    # closes the connection rather than keep serving a
                    # dead daemon's queue (workers reconnect to whatever
                    # replaces it).
                    if worker is None or kind != "request":
                        return
                    send_frame(sock, {"type": "done"})
                    continue
                if worker is not None:
                    with self._owner_lock:
                        worker.last_seen = time.monotonic()
                handler = isinstance(kind, str) and self._verbs.get((role, kind))
                if not handler:
                    raise ProtocolError(f"unknown {role} message type {kind!r}")
                send_frame(sock, handler(frame, worker))
                if kind == "goodbye":
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
            if worker is not None:
                self.queue.release(worker.owner)
                with self._owner_lock:
                    worker.disconnect()

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
    # Worker verbs
    # ------------------------------------------------------------------

    def _handle_request(self, frame: Mapping[str, object], worker: _Worker) -> dict:
        seen = self.queue.changes()
        lease = self.queue.acquire(worker.owner, worker.chunk_points())
        if lease is None:
            # Hold the reply until work may have arrived, for at most the
            # poll interval.  Every other answer is ``wait`` with no delay:
            # the worker asks again at once, and that request's acquire
            # reaps any lease that expired meanwhile, or holds again.
            poll = self.config.poll_interval
            woken = not self._stop.is_set() and self.queue.wait_for_change(seen, poll)
            if self._stop.is_set():
                return {"type": "done"}
            if woken:
                lease = self.queue.acquire(worker.owner, worker.chunk_points())
            if lease is None:  # a full hold, or another worker got there first
                return {"type": "wait", "delay": 0.0}
        payloads = self.queue.entry(lease.sweep).point_payloads
        return {
            "type": "chunk",
            "sweep": lease.sweep,
            "chunk_id": lease.lease_id,
            "points": [
                {"index": index, "point": payloads[index]} for index in lease.indices
            ],
        }

    def _handle_result(self, frame: Mapping[str, object], worker: _Worker) -> dict:
        sweep = frame.get("sweep")
        index = frame.get("index")
        payload = frame.get("result")
        if not isinstance(sweep, str):
            raise ProtocolError(f"result frame without a sweep name: {sweep!r}")
        if not is_index(index):
            raise ProtocolError(f"result with bad index {index!r}")
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"result for {sweep!r}[{index}] carries no payload object"
            )
        # Accepting, counting and journaling a result is one step under
        # this lock, so a fetch that finds the sweep done while holding it
        # never answers before the last journal line is written.
        with self._result_lock:
            try:
                accepted = self.queue.complete(sweep, index, payload, worker.owner)
            except DispatchError as exc:  # unknown sweep / index off the grid
                raise ProtocolError(str(exc)) from exc
            if accepted:
                self.stats.results_accepted += 1
                with self._owner_lock:
                    worker.record_result(time.monotonic())
                self._journal_point(sweep, index, payload)
        if accepted:
            entry = self.queue.entry(sweep)
            if entry is not None and entry.state == "done":
                self._log(
                    f"sweep {sweep!r} complete "
                    f"({entry.executed} executed, {len(entry.resumed)} resumed)"
                )
        return {"type": "ok", "accepted": accepted}

    def _handle_heartbeat(self, frame: Mapping[str, object], worker: _Worker) -> dict:
        with self._owner_lock:
            worker.heartbeats += 1
        return {"type": "ok", "extended": self.queue.heartbeat(worker.owner)}

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
    # Submitter verbs
    # ------------------------------------------------------------------

    def _handle_cancel(self, frame: Mapping[str, object], worker: None) -> dict:
        sweep = frame.get("sweep")
        if not isinstance(sweep, str):
            raise ProtocolError(f"cancel without a sweep name: {sweep!r}")
        existed = self.queue.cancel(sweep)
        if existed:
            self._log(f"sweep {sweep!r} cancelled")
        return {"type": "cancelled", "sweep": sweep, "existed": existed}

    def _handle_submit(self, frame: Mapping[str, object], worker: None) -> dict:
        spec_payload = frame.get("spec")
        if not isinstance(spec_payload, Mapping):
            raise ProtocolError("submit frame carries no spec object")
        priority = frame.get("priority", 0)
        if not is_index(priority):
            raise ProtocolError(f"submit priority must be an int, got {priority!r}")
        try:
            # The peer's bytes are never hashed or journaled as sent: a
            # restart recomputes the fingerprint from the rebuilt spec, so
            # only the canonical re-serialisation is safe to record.
            spec = SweepSpec.from_dict(spec_payload)
        except ConfigurationError as exc:
            # Non-portable or malformed grids are refused before anything
            # is queued or journaled.
            raise ProtocolError(f"unsubmittable sweep spec: {exc}") from exc
        name = frame.get("sweep") or spec.name
        if not isinstance(name, str) or not name:
            raise ProtocolError(f"submit without a usable sweep name: {name!r}")
        try:
            entry, created = self._submit(spec_artifact(spec), name, priority)
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

        What a ``submit`` frame does, minus the wire: the spec's artifact is
        pushed through :meth:`SweepSpec.from_dict`, so a point that cannot
        travel to a worker raises :class:`ConfigurationError` here, before
        any worker connects.  ``name`` defaults to ``spec.name``.
        """
        artifact = spec_artifact(spec)
        SweepSpec.from_dict(artifact)
        entry, _ = self._submit(artifact, name or spec.name, priority)
        return entry

    def _handle_status(self, frame: Mapping[str, object], worker: None) -> dict:
        sweep = frame.get("sweep")
        rows = self.queue.status_rows()
        if isinstance(sweep, str):
            rows = [row for row in rows if row["sweep"] == sweep]
        return {
            "type": "status_report",
            "sweeps": rows,
            "workers": self.worker_rows(),
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

    def _handle_metrics(self, frame: Mapping[str, object], worker: None) -> dict:
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
        for row in self.worker_rows():
            worker = row["worker"]
            registry.gauge(
                f"worker.{worker}.points_completed", row["points_completed"]
            )
            if row["points_per_sec"] is not None:
                registry.gauge(
                    f"worker.{worker}.points_per_sec_ewma", row["points_per_sec"]
                )
        return {"type": "metrics_report", "telemetry": registry.snapshot()}

    def _handle_fetch(self, frame: Mapping[str, object], worker: None) -> dict:
        sweep = frame.get("sweep")
        if not isinstance(sweep, str):
            raise ProtocolError(f"fetch without a sweep name: {sweep!r}")
        wait = frame.get("wait", 0)
        if not is_seconds(wait):
            raise ProtocolError(
                f"fetch wait must be a finite number of seconds >= 0, got {wait!r}"
            )
        entry = self.queue.entry(sweep)
        if entry is None:
            raise ProtocolError(f"fetch for unknown sweep {sweep!r}")
        if wait and entry.state == "running":
            entry.finished.wait(min(wait, self.config.lease_timeout))
        with self._result_lock:  # let the last result's journal line land
            done = entry.state == "done"
        if not done:
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


def _handle_goodbye(frame: Mapping[str, object], worker: _Worker | None) -> dict:
    return {"type": "ok"}


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
