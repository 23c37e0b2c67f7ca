"""The fleet daemon: the one dispatch server.

A :class:`FleetDaemon` accepts *named* sweeps with priorities from
``submit`` connections and serves their points to workers over the frame
protocol (:mod:`repro.dispatch.protocol`).  With a journal directory it journals
every accepted result to an append-only JSONL file
(:mod:`repro.dispatch.journal`) *before* answering the frame that carried
it, and — when a shared secret is configured — it refuses any connection
that cannot answer the HMAC challenge (:mod:`repro.dispatch.auth`) before a single frame
touches the queue.  ``--dispatch HOST:PORT`` is the same daemon without a
journal, living for exactly one sweep
(:func:`repro.dispatch.coordinator.run_dispatched`).  Every started daemon
keeps its own lease clock: its accept thread re-queues stalled leases once
per ``poll_interval``.

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
that one canonical ``spec_artifact``.

All state — sweeps, leases, results and one record per worker connection —
is one lock-free ledger, :class:`~repro.dispatch.fleet.FleetQueue`; the
daemon is the shell around it.  One condition is held while a frame is
answered, around the ledger calls it makes and the journal appends of
what they accepted, and is notified after each.  Nobody waits on a poll: a
worker's ``request`` that finds nothing to lease is held on that condition
until it gets a lease, another worker takes the work that woke it, the
daemon shuts down, or ``poll_interval`` passes; a submitter's ``fetch``
with ``wait`` is held until its sweep is no longer running — and because
results are journaled under the same condition, a ``done`` sweep has every
line on disk — or the wait runs out.  Shutdown wakes the accept loop at
once.

The daemon stores and serves *wire payloads* only; decoding results
against live spec objects is the submitter's job
(:mod:`repro.dispatch.client`), which is what keeps a daemon-served
artifact byte-identical to a ``jobs=1`` run.
"""

from __future__ import annotations

import logging
import os
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.dispatch.auth import issue_nonce, secret_from_env, verify_mac
from repro.dispatch.fleet import FleetQueue
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
from repro.dispatch.queue import DONE, RUNNING, WorkQueue
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
    #: the daemon's stale-lease tick.
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
class _DaemonStats:
    """Per-lifetime counters surfaced in status reports and tests."""

    started_at: float = field(default_factory=time.monotonic)
    connections: int = 0
    rejected_auth: int = 0
    rejected_protocol: int = 0
    submissions: int = 0


class FleetDaemon:
    """A multi-sweep queue service over the dispatch frame protocol.

    Construction binds the listening socket and — when ``journal_dir`` is
    set — restores every journaled sweep found there.  :meth:`start`
    accepts connections and re-queues stalled leases in the background;
    :meth:`serve_forever` also blocks until :meth:`shutdown`.
    """

    def __init__(self, config: FleetConfig | None = None) -> None:
        self.config = config or FleetConfig()
        if self.config.secret is None:
            self.config.secret = secret_from_env()
        self.queue = FleetQueue(lease_timeout=self.config.lease_timeout)
        self.stats = _DaemonStats()
        #: Every reply after ``welcome``: ``(role, message type)`` →
        #: ``handler(frame, owner)`` (the worker connection's owner name,
        #: ``None`` for submitters), called through :meth:`_change`.  The
        #: roles a ``hello`` may claim are the ones named here; any other
        #: pair is a protocol error.
        self._verbs: dict[tuple[str, str], Callable[..., dict]] = {
            ("worker", "request"): self._handle_request,
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
        #: The one lock: held around every ledger call and the journal
        #: appends of what it accepted, and notified after every change.
        self._changed = threading.Condition()
        self._stop = threading.Event()
        self._listener = socket.create_server((self.config.host, self.config.port))
        #: shutdown() closes the writing end, which wakes the accept loop.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._server_thread: threading.Thread | None = None
        try:
            if self.config.journal_dir:
                self._restore_from_journals()
        except BaseException:
            self.shutdown()  # the port, the wake pair, journals attached
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> None:
        """Accept connections in the background (idempotent)."""
        if self._server_thread is None:
            self._server_thread = threading.Thread(
                target=self._accept, name="fleet-daemon", daemon=True
            )
            self._server_thread.start()

    def _accept(self) -> None:
        """Serve each connection on a thread of its own until shutdown, and
        reap expired leases every ``poll_interval``."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while not self._stop.is_set():
                ready = selector.select(timeout=self.config.poll_interval)
                self._change(self.queue.expire_stale_leases)
                for key, _ in ready:
                    if key.fileobj is not self._listener:
                        continue  # woken: the loop condition ends it
                    try:
                        sock, _ = self._listener.accept()
                    except OSError:  # the peer gave up before it was accepted
                        continue
                    threading.Thread(
                        target=self._handle_connection, args=(sock,), daemon=True
                    ).start()

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or a signal) stops the daemon."""
        self.start()
        self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting connections, close journals, release the port.

        Connections already open stay up just long enough to tell each
        worker ``done`` at its next ``request`` — or at once, if the daemon
        is holding that request — so it leaves cleanly instead of seeing a
        dropped link.
        """
        self._stop.set()
        with self._changed:  # wake every held reply
            self._changed.notify_all()
        self._wake_writer.close()
        if self._server_thread is not None:
            self._server_thread.join()
        self._listener.close()
        self._wake_reader.close()
        with self._changed:  # never under an append
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
    ) -> tuple[WorkQueue, bool] | None:
        """Create-or-attach a sweep's journal, then queue the sweep.

        A submission passes the sweep's canonical ``spec_artifact``, its
        ``name`` and ``priority``; that one artifact is hashed, journaled and
        queued, and a journal already on disk under that name must hash to
        the same grid.  A restart passes only the journal path as
        ``restore`` and reads all three from its header — unless the sweep
        is finished and idle past ``journal_expiry``: then the file moves to
        ``<journal_dir>/archive/`` and nothing is queued (``None``).  Either
        way each file is replayed once; only submissions count in
        ``stats.submissions``.  The caller holds :attr:`_changed`, but for
        the restore in the constructor, which runs before any thread.
        """
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
                path,
                expected_name=None if restore else name,
                expected_fingerprint=fingerprint,
                fsync=self.config.fsync,
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

    def _change(self, call: Callable[..., object], *args: object) -> object:
        """Make one ledger call holding the condition, then wake every
        waiter.  A held reply's ``wait_for`` inside ``call`` releases the
        condition while it waits."""
        with self._changed:
            result = call(*args)
            self._changed.notify_all()
            return result

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
                owner = self._change(self.queue.register, name)
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
                    if owner is None or kind != "request":
                        return
                    send_frame(sock, {"type": "done"})
                    continue
                handler = isinstance(kind, str) and self._verbs.get((role, kind))
                if not handler:
                    raise ProtocolError(f"unknown {role} message type {kind!r}")
                accepted = None
                if owner is not None:
                    # A worker's finished results ride on its next frame:
                    # they are accepted, journaled and announced before
                    # that frame is answered (or held).
                    accepted = self._change(self._accept_results, frame, owner)
                reply = self._change(handler, frame, owner)
                if accepted is not None:
                    reply["accepted"] = accepted
                send_frame(sock, reply)
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
            if owner is not None:
                self._change(self.queue.release, owner)
            sock.close()

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

    def _handle_request(self, frame: Mapping[str, object], owner: str) -> dict:
        # Held for at most the poll interval, until this worker gets a
        # lease or the daemon stops — or until another worker takes a
        # lease first: the work that woke this request went elsewhere, and
        # the ``wait`` with no delay has the worker ask again at once.
        issued = self.queue.leases_issued
        lease = None

        def answered() -> bool:
            nonlocal lease
            if self._stop.is_set():
                return True
            lease = self.queue.acquire(owner)
            return lease is not None or self.queue.leases_issued != issued

        self._changed.wait_for(answered, self.config.poll_interval)
        if lease is None and self._stop.is_set():
            return {"type": "done"}
        if lease is None:
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

    def _accept_results(self, frame: Mapping[str, object], owner: str) -> int | None:
        """Book a worker's frame: accept and journal the results it carries;
        how many were new (first writer wins), or ``None`` if it carries
        none.  A malformed batch is refused whole, before any of it is
        journaled."""
        self.queue.seen(owner)
        batch = frame.get("results")
        if batch is None:
            return None
        sweep = frame.get("sweep")
        accepted = self.queue.accept(owner, sweep, batch)
        journal = self._journals.get(sweep)
        try:
            for index, payload in accepted:
                if journal is not None:
                    journal.record(index, payload)
        except ValueError:
            # A handler thread raced shutdown() past the closed journal.
            # Dropping the append is crash-equivalent: the restarted
            # daemon simply re-queues this point as not-yet-durable.
            if not self._stop.is_set():
                raise
        entry = self.queue.entry(sweep)
        if accepted and entry.state == DONE:
            self._log(
                f"sweep {sweep!r} complete "
                f"({entry.executed} executed, {len(entry.resumed)} resumed)"
            )
        return len(accepted)

    def _handle_heartbeat(self, frame: Mapping[str, object], owner: str) -> dict:
        return {"type": "ok", "extended": self.queue.heartbeat(owner)}

    # ------------------------------------------------------------------
    # Submitter verbs
    # ------------------------------------------------------------------

    def _handle_cancel(self, frame: Mapping[str, object], owner: None) -> dict:
        sweep = frame.get("sweep")
        if not isinstance(sweep, str):
            raise ProtocolError(f"cancel without a sweep name: {sweep!r}")
        existed = self.queue.cancel(sweep)
        if existed:
            self._log(f"sweep {sweep!r} cancelled")
        return {"type": "cancelled", "sweep": sweep, "existed": existed}

    def _handle_submit(self, frame: Mapping[str, object], owner: None) -> dict:
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

    def _handle_status(self, frame: Mapping[str, object], owner: None) -> dict:
        sweep = frame.get("sweep")
        rows = self.queue.status_rows()
        if isinstance(sweep, str):
            rows = [row for row in rows if row["sweep"] == sweep]
        return {
            "type": "status_report",
            "sweeps": rows,
            "workers": self.queue.worker_rows(),
            "daemon": {
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": round(
                    time.monotonic() - self.stats.started_at, 3
                ),
                "journal_dir": self.config.journal_dir,
                "authenticated": self.config.secret is not None,
                "results_accepted": self.queue.results_accepted,
                "rejected_auth": self.stats.rejected_auth,
            },
        }

    def _handle_metrics(self, frame: Mapping[str, object], owner: None) -> dict:
        """Live ``repro.telemetry/1`` snapshot of the daemon's own state.

        Built on demand from the same counters ``status`` reads — the
        daemon keeps no registry between calls, so the verb costs nothing
        while nobody asks.  Per-sweep throughput uses the ``executed``
        counter (results accepted over the wire this lifetime).
        """
        registry = MetricsRegistry()
        uptime = max(time.monotonic() - self.stats.started_at, 1e-9)
        registry.gauge("daemon.uptime_seconds", round(uptime, 3))
        registry.count("daemon.connections", self.stats.connections)
        registry.count("daemon.rejected_auth", self.stats.rejected_auth)
        registry.count("daemon.rejected_protocol", self.stats.rejected_protocol)
        registry.count("daemon.submissions", self.stats.submissions)
        registry.count("daemon.results_accepted", self.queue.results_accepted)
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
        for row in self.queue.worker_rows():
            worker = row["worker"]
            registry.gauge(
                f"worker.{worker}.points_completed", row["points_completed"]
            )
            if row["points_per_sec"] is not None:
                registry.gauge(
                    f"worker.{worker}.points_per_sec_ewma", row["points_per_sec"]
                )
        return {"type": "metrics_report", "telemetry": registry.snapshot()}

    def _handle_fetch(self, frame: Mapping[str, object], owner: None) -> dict:
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
        if wait:
            # Results are journaled under this same condition, so a sweep
            # that reads done here has every journal line written.
            self._changed.wait_for(
                lambda: entry.state != RUNNING or self._stop.is_set(),
                min(wait, self.config.lease_timeout),
            )
        if entry.state != DONE:
            return {
                "type": "pending",
                "sweep": sweep,
                "state": entry.state,
                "completed": entry.completed,
                "total": entry.total,
            }
        # A done sweep's results never change again, so the reply may
        # share their payloads after the condition is released.
        return {
            "type": "results",
            "sweep": sweep,
            "total": entry.total,
            "results": sorted(entry.results.items()),
        }

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        _LOGGER.info(message)


def _handle_goodbye(frame: Mapping[str, object], owner: str | None) -> dict:
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
