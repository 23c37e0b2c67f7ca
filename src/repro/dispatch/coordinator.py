"""``--dispatch HOST:PORT``: a fleet daemon that lives for one sweep.

``run_sweep(spec, dispatch=DispatchSpec(...))`` lands here.
:func:`run_dispatched` binds a journal-less
:class:`~repro.dispatch.daemon.FleetDaemon` at the given address, submits
the sweep to it in-process — failing loudly, before any worker connects, if
a point is not portable — and blocks while workers
(:mod:`repro.dispatch.worker`) pull chunks, execute each point through the
same ``_execute_point`` path a local pool uses, and stream one result frame
per point.  The wire results are then decoded against the caller's own spec
objects (:mod:`repro.dispatch.codec`) and reassembled in spec order through
the same :func:`~repro.experiments.sweep.ordered_results` the pool executor
uses, so a dispatched :class:`SweepResult` is indistinguishable from a
``jobs=1`` run (byte-identical ``to_artifact()`` modulo the ``jobs`` /
``wall_clock_seconds`` run metadata).

Worker failures are part of the contract, not an error: a dead connection
releases the worker's leases immediately, a silent-but-connected worker
loses its leases after ``lease_timeout``, and in both cases only points
*without* results are re-queued — finished work always counts, and late
duplicate results are ignored.  The sweep completes as long as at least one
worker keeps making progress; the daemon itself never executes points.
Everything else a daemon does comes along: ``REPRO_FLEET_SECRET`` turns on
the HMAC challenge, chunk sizes follow each worker's measured throughput,
and ``fleet status`` / ``fleet cancel`` work against the address while the
sweep runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.dispatch.codec import decode_results
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.errors import ConfigurationError, DispatchError
from repro.experiments.sweep import SweepResult, SweepSpec

__all__ = ["DispatchSpec", "parse_hostport", "run_dispatched", "serve_sweep"]


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI argument."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ConfigurationError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(f"bad port in {text!r}: {exc}") from exc
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port must be in [0, 65535], got {port}")
    return host, port


@dataclass(slots=True)
class DispatchSpec:
    """Where and how patiently to serve one sweep to remote workers.

    A fixed port is the cross-host CLI pattern.  ``port=0`` binds an
    OS-chosen port nobody is told about; callers that need to read the
    address back build the :class:`~repro.dispatch.daemon.FleetDaemon`
    themselves and hand it to :func:`serve_sweep`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds of worker silence (no heartbeat, no result) before its
    #: leases are presumed lost and re-queued.
    lease_timeout: float = 30.0
    #: Stale-lease sweep tick, and the longest a worker's ``request`` is
    #: held while there is nothing to lease.
    poll_interval: float = 0.5

    def __post_init__(self) -> None:
        # Range checks live in FleetConfig; building one here keeps a bad
        # spec failing at construction rather than at run_sweep time.
        self.config()

    def config(self) -> FleetConfig:
        """The journal-less daemon configuration this spec describes."""
        return FleetConfig(
            host=self.host,
            port=self.port,
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )


def serve_sweep(daemon: FleetDaemon, spec: SweepSpec) -> SweepResult:
    """Serve ``spec`` from ``daemon`` until workers finish it; shut down.

    Blocks the calling thread; connection handling happens on the daemon's
    threads.  The wait doubles as the stalled-worker detector, sweeping
    expired leases every ``poll_interval``.  The daemon is shut down on the
    way out, whatever happened — it told its workers ``done``.
    """
    start = time.perf_counter()
    try:
        entry = daemon.submit(spec)
        daemon.start()
        while not entry.finished.wait(timeout=daemon.config.poll_interval):
            daemon.queue.expire_stale_leases()
    finally:
        daemon.shutdown()
    results = decode_results(
        spec.points, daemon.queue.results_for(entry.name).items()
    )
    workers = sum(1 for row in daemon.worker_rows() if row["points_completed"] > 0)
    return SweepResult(
        spec=spec,
        results=results,
        jobs=max(1, workers),
        wall_clock_seconds=time.perf_counter() - start,
    )


def run_dispatched(spec: SweepSpec, dispatch: DispatchSpec) -> SweepResult:
    """Serve ``spec`` at ``dispatch``'s address until workers complete it.

    The ``run_sweep(spec, dispatch=...)`` execution backend: an ephemeral,
    journal-less daemon holding one entry.
    """
    if not isinstance(dispatch, DispatchSpec):
        raise DispatchError(
            f"dispatch= expects a DispatchSpec, got {type(dispatch).__name__}"
        )
    return serve_sweep(FleetDaemon(dispatch.config()), spec)
