"""Cross-host dispatch: one daemon, expendable workers, identical bytes.

The paper's evaluation is a declarative grid (``SweepSpec``) over
declarative topologies (``ScenarioSpec``); this package takes the grid
across hosts with nothing but the stdlib.  There is one server,
:class:`FleetDaemon`, and one submitter, :func:`run_fleet_sweep`:
``--fleet HOST:PORT`` submits to a long-lived daemon (``fleet serve``), and
``--dispatch HOST:PORT`` starts one in-process, without a journal, for
exactly one sweep and submits to that.

* :mod:`repro.dispatch.protocol` — length-prefixed JSON frames over TCP;
  no pickling, bounded sizes, loud failures on malformed input.
* :mod:`repro.dispatch.queue` — :class:`WorkQueue`, the one record of a
  sweep: name, priority, fingerprint, points, and its lease mechanics —
  point indices leased to named workers, heartbeat-extended, re-queued on
  connection loss or lease expiry, first-writer-wins results, cancel and
  revive.  It reads no clock: every deadline is set against a ``now`` it
  is handed.
* :mod:`repro.dispatch.fleet` — :class:`FleetQueue`, the daemon's whole
  ledger: many named sweeps served by priority, resubmit-attach by
  fingerprint, the one check of what workers send, and one record per
  worker connection — liveness, progress, and the throughput that sizes
  its next lease.  It takes no lock, does no I/O, and reads its ``clock``
  once per call.
* :mod:`repro.dispatch.daemon` — :class:`FleetDaemon`: the shell around
  that ledger — sockets, one verb table that says which role may send
  what, and one condition held around every ledger call and notified
  after each — with an optional append-only JSONL journal
  (:mod:`repro.dispatch.journal`; the files are the only durable state,
  replayed once per restart) that makes restarts resume instead of
  recompute, and shared-secret HMAC authentication
  (:mod:`repro.dispatch.auth`).
* :mod:`repro.dispatch.coordinator` — :class:`DispatchSpec` and
  :func:`run_dispatched`, the ``run_sweep(spec, dispatch=DispatchSpec(...))``
  backend: a journal-less daemon started for one sweep and driven through
  :func:`run_fleet_sweep`.
* :mod:`repro.dispatch.client` — :class:`FleetSpec` / :class:`FleetClient`:
  submit/status/cancel/fetch against a running daemon, and
  :func:`run_fleet_sweep` — the ``run_sweep(spec, dispatch=FleetSpec(...))``
  backend.
* :mod:`repro.dispatch.worker` — :func:`run_worker`: pull chunks, execute
  through the sweep engine's own point executor, deliver results.
* :mod:`repro.dispatch.codec` — results on the wire; decoding reattaches
  the submitter's own spec objects so dispatched artifacts are
  byte-identical to local ones.
* :mod:`repro.dispatch.faults` — :class:`FaultPlan` failure drills
  (crash / stall / disconnect) for rehearsing worker loss.
* :mod:`repro.dispatch.cli` — the ``worker`` and ``fleet`` verbs, mounted
  into the ``repro-experiments`` command tree.

Determinism contract: points travel as their portable JSON encodings
(:meth:`SweepPoint.as_dict`), results come back keyed by point index, and
the submitter reassembles through the same ordering helper the local pool
uses — so ``daemon + N workers`` (even with workers killed mid-chunk, or
the daemon killed and restarted on its journal) produces results
byte-identical to ``run_sweep(spec, jobs=1)``.  Sweeps containing
non-portable workloads (graph- or trace-backed) are rejected at submission,
before any worker connects.
"""

from repro.dispatch.auth import SECRET_ENV_VAR, compute_mac, secret_from_env
from repro.dispatch.client import FleetClient, FleetSpec, run_fleet_sweep
from repro.dispatch.coordinator import DispatchSpec, parse_hostport, run_dispatched
from repro.dispatch.daemon import FleetConfig, FleetDaemon, run_daemon
from repro.dispatch.faults import FaultPlan
from repro.dispatch.fleet import FleetQueue
from repro.dispatch.journal import SweepJournal, sweep_fingerprint
from repro.dispatch.queue import Lease, WorkQueue
from repro.dispatch.worker import WorkerStats, run_worker
from repro.errors import (
    AuthenticationError,
    CoordinatorUnreachable,
    DispatchError,
    JournalError,
    ProtocolError,
)

__all__ = [
    "AuthenticationError",
    "CoordinatorUnreachable",
    "DispatchError",
    "DispatchSpec",
    "FaultPlan",
    "FleetClient",
    "FleetConfig",
    "FleetDaemon",
    "FleetQueue",
    "FleetSpec",
    "JournalError",
    "Lease",
    "ProtocolError",
    "SECRET_ENV_VAR",
    "SweepJournal",
    "WorkQueue",
    "WorkerStats",
    "compute_mac",
    "parse_hostport",
    "run_daemon",
    "run_dispatched",
    "run_fleet_sweep",
    "run_worker",
    "secret_from_env",
    "sweep_fingerprint",
]
