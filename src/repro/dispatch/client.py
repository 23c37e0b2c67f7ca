"""Submitter-side client for the fleet daemon.

Everything a process needs to *use* a :class:`~repro.dispatch.daemon.FleetDaemon`
without being a worker: submit named sweeps with priorities, read status,
cancel, and fetch finished results.  The crown piece is
:func:`run_fleet_sweep` — the ``run_sweep(spec, dispatch=FleetSpec(...))``
execution backend: it submits the sweep (named by content fingerprint, so
re-running the same experiment resumes rather than recomputes), waits for
the daemon to drain it, fetches the wire results and decodes them against
its *own* spec objects (:mod:`repro.dispatch.codec`), so a fleet-served
:class:`SweepResult` is byte-identical to a ``jobs=1`` run.

Every operation opens a fresh authenticated connection.  That costs a
handshake per call but buys the property the failure drills rely on: a
daemon restart between two calls is invisible — the next call simply
dials the new process, which has already restored the sweep from its
journal.  :meth:`FleetClient.wait_for` leans into this: each of its
fetches is held by the daemon until the sweep is done or a poll interval
passes, and a transport failure — including a held fetch cut off by the
daemon's death — is retried until its deadline.  An ``error`` reply is
final.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.dispatch.auth import secret_from_env
from repro.dispatch.codec import decode_results
from repro.dispatch.journal import artifact_fingerprint
from repro.dispatch.protocol import is_seconds, recv_frame, send_frame
from repro.dispatch.worker import _connect, _handshake, _Refused
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    DispatchError,
    ProtocolError,
)
from repro.experiments.sweep import SweepResult, SweepSpec, spec_artifact

__all__ = ["FleetClient", "FleetSpec", "run_fleet_sweep"]


@dataclass(slots=True)
class FleetSpec:
    """How to hand a sweep to a running fleet daemon.

    The ``dispatch=`` twin of :class:`~repro.dispatch.coordinator.DispatchSpec`:
    passing one to :func:`~repro.experiments.sweep.run_sweep` (or
    ``--fleet HOST:PORT`` on the CLI) submits the sweep to a long-lived
    daemon and waits, instead of starting a one-sweep daemon of its own.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Higher priorities drain first; ties serve in submission order.
    priority: int = 0
    #: Shared secret; ``None`` falls back to ``REPRO_FLEET_SECRET``.
    secret: str | None = None
    #: Override the content-derived sweep name (rarely needed).
    name: str | None = None
    #: Longest the daemon is asked to hold each fetch while waiting (and the
    #: fetch period against a daemon that answers at once).
    poll_interval: float = 0.5
    #: How long to keep retrying an unreachable daemon per operation.
    connect_timeout: float = 30.0
    #: Overall deadline for :func:`run_fleet_sweep`; ``None`` waits forever
    #: (the daemon may legitimately be restarting mid-sweep).
    wait_timeout: float | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("fleet host must be non-empty")
        if not 0 < self.port <= 65535:
            raise ConfigurationError(
                f"fleet port must be in [1, 65535], got {self.port}"
            )
        for field in ("poll_interval", "connect_timeout", "wait_timeout"):
            value = getattr(self, field)
            if value is None and field == "wait_timeout":
                continue  # wait forever
            if not (is_seconds(value) and value > 0):
                raise ConfigurationError(
                    f"{field} must be a positive number of seconds, got {value}"
                )
        if self.secret is None:
            self.secret = secret_from_env()


class FleetClient:
    """One submitter's view of a daemon; every call is its own connection."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        secret: str | None = None,
        client_name: str = "submitter",
        connect_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.secret = secret
        self.client_name = client_name
        self.connect_timeout = connect_timeout

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: SweepSpec | Mapping[str, object],
        *,
        name: str | None = None,
        priority: int = 0,
    ) -> dict:
        """Submit a sweep (a :class:`SweepSpec` or its artifact payload)."""
        payload = (
            spec_artifact(spec) if isinstance(spec, SweepSpec) else dict(spec)
        )
        frame = {"type": "submit", "priority": priority, "spec": payload}
        if name is not None:
            frame["sweep"] = name
        return self._roundtrip(frame, expect="submitted")

    def status(self, name: str | None = None) -> dict:
        frame: dict = {"type": "status"}
        if name is not None:
            frame["sweep"] = name
        return self._roundtrip(frame, expect="status_report")

    def metrics(self) -> dict:
        """Live daemon telemetry as a ``repro.telemetry/1`` section.

        The ``metrics_report`` reply carries the daemon's own counters and
        per-sweep/per-worker gauges under ``"telemetry"`` — the same schema
        :func:`repro.telemetry.validate_telemetry` checks in artifacts.
        """
        return self._roundtrip({"type": "metrics"}, expect="metrics_report")

    def cancel(self, name: str) -> dict:
        return self._roundtrip(
            {"type": "cancel", "sweep": name}, expect="cancelled"
        )

    def fetch(self, name: str, *, wait: float | None = None) -> dict:
        """``results`` once done, ``pending`` with progress before that.

        With ``wait``, the daemon holds the reply of a running sweep until
        it is done, for up to ``wait`` seconds.
        """
        frame: dict = {"type": "fetch", "sweep": name}
        if wait is not None:
            frame["wait"] = wait
        return self._roundtrip(frame, expect=("results", "pending"))

    def wait_for(
        self,
        name: str,
        *,
        poll_interval: float = 0.5,
        timeout: float | None = None,
    ) -> dict:
        """Fetch until ``name`` is done; returns the ``results`` reply.

        Each fetch asks the daemon to hold it for ``poll_interval``, and the
        client sleeps only through what the daemon did not hold — all of it
        against a daemon that ignores ``wait``.  Transport failures (a
        refused connect, a reset, a connection closed mid-call) are retried
        until ``timeout``: a daemon bouncing through a restart mid-wait is
        expected, not fatal.  An ``error`` reply is final.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            try:
                reply = self.fetch(name, wait=poll_interval)
                if reply["type"] == "results":
                    return reply
            except (_Refused, AuthenticationError):
                raise  # the daemon said no; asking again will not change that
            except (DispatchError, OSError):
                if deadline is not None and time.monotonic() >= deadline:
                    raise
            if deadline is not None and time.monotonic() >= deadline:
                raise DispatchError(
                    f"sweep {name!r} did not finish within {timeout:g}s"
                )
            time.sleep(max(0.0, poll_interval - (time.monotonic() - asked)))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _roundtrip(
        self, frame: dict, *, expect: str | tuple[str, ...]
    ) -> dict:
        expected = (expect,) if isinstance(expect, str) else expect
        sock = _connect(
            self.host, self.port, self.connect_timeout, retry_delay=0.2
        )
        try:
            _handshake(sock, "submitter", self.client_name, self.secret)
            send_frame(sock, frame)
            reply = recv_frame(sock)
            if reply is None:
                raise ProtocolError("daemon closed the connection mid-call")
            if reply.get("type") == "error":
                raise _Refused(f"daemon refused: {reply.get('message')}")
            if reply.get("type") not in expected:
                raise ProtocolError(
                    f"expected {' or '.join(expected)}, got {reply.get('type')!r}"
                )
            try:
                send_frame(sock, {"type": "goodbye"})
                recv_frame(sock)
            except (ProtocolError, OSError):
                pass  # best-effort clean close; the reply is already in hand
            return reply
        finally:
            try:
                sock.close()
            except OSError:
                pass


def fleet_sweep_name(
    spec: SweepSpec, artifact: Mapping[str, object] | None = None
) -> str:
    """The content-derived name :func:`run_fleet_sweep` submits under.

    Built from the spec's name plus a fingerprint prefix, so submitting
    the same grid twice resumes it while two different grids that happen
    to share a human name never collide in the daemon or its journal.
    Pass ``artifact`` if ``spec_artifact(spec)`` is already built.
    """
    if artifact is None:
        artifact = spec_artifact(spec)
    digest = artifact_fingerprint(artifact).split(":", 1)[1]
    return f"{spec.name}-{digest[:12]}"


def run_fleet_sweep(spec: SweepSpec, fleet: FleetSpec) -> SweepResult:
    """Serve ``spec`` through a fleet daemon; byte-identical to ``jobs=1``.

    The ``run_sweep(spec, dispatch=FleetSpec(...))`` execution backend:
    submit (named by content, so identical re-runs resume from the
    daemon's journal), wait, fetch, decode against our own spec objects,
    reassemble in spec order through the shared
    :func:`~repro.experiments.sweep.ordered_results`.
    """
    start = time.perf_counter()
    client = FleetClient(
        fleet.host,
        fleet.port,
        secret=fleet.secret,
        connect_timeout=fleet.connect_timeout,
    )
    artifact = spec_artifact(spec)
    name = fleet.name or fleet_sweep_name(spec, artifact)
    submitted = client.submit(artifact, name=name, priority=fleet.priority)
    if submitted.get("total") != len(spec.points):
        raise ProtocolError(
            f"daemon acknowledged {submitted.get('total')!r} points for "
            f"sweep {name!r}, expected {len(spec.points)}"
        )
    if len(spec.points) == 0:
        return SweepResult(
            spec=spec, results=[], jobs=1, wall_clock_seconds=0.0
        )
    reply = client.wait_for(
        name, poll_interval=fleet.poll_interval, timeout=fleet.wait_timeout
    )
    results = decode_results(spec.points, reply.get("results", ()))
    status = client.status(name)
    workers = [
        row
        for row in status.get("workers", ())
        if row.get("points_completed", 0) > 0
    ]
    elapsed = time.perf_counter() - start
    return SweepResult(
        spec=spec,
        results=results,
        # Workers that completed points for *any* sweep this daemon
        # lifetime; resumed runs may show 0 live workers — report 1 then.
        jobs=max(1, len(workers)),
        wall_clock_seconds=elapsed,
    )
