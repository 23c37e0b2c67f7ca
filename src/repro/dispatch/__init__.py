"""Cross-host dispatch: one daemon, expendable workers, identical bytes.

The paper's evaluation is a declarative grid (``SweepSpec``) over
declarative topologies (``ScenarioSpec``); this package takes the grid
across hosts with nothing but the stdlib.  There is one server,
:class:`FleetDaemon`, reached two ways: ``--dispatch HOST:PORT`` starts one
in-process, without a journal, for exactly one sweep; ``--fleet HOST:PORT``
submits to a long-lived one (``fleet serve``).

* :mod:`repro.dispatch.protocol` — length-prefixed JSON frames over TCP;
  no pickling, bounded sizes, loud failures on malformed input.
* :mod:`repro.dispatch.queue` — :class:`WorkQueue`, one sweep's lease
  mechanics: point indices leased to named workers, heartbeat-extended,
  re-queued on connection loss or lease expiry, first-writer-wins results.
* :mod:`repro.dispatch.fleet` — :class:`FleetQueue`: many named sweeps,
  each a ``WorkQueue``, served by priority; resubmit-attach by
  fingerprint, cancel and revive.
* :mod:`repro.dispatch.daemon` — :class:`FleetDaemon`: the queue service
  over those frames, with an optional append-only JSONL journal
  (:mod:`repro.dispatch.journal`) that makes restarts resume instead of
  recompute, shared-secret HMAC authentication
  (:mod:`repro.dispatch.auth`), and per-worker throughput tracking
  (:mod:`repro.dispatch.health`) feeding adaptive chunk sizing.
* :mod:`repro.dispatch.coordinator` — :class:`DispatchSpec` and
  :func:`run_dispatched`, the ``run_sweep(spec, dispatch=DispatchSpec(...))``
  backend: an ephemeral daemon holding one entry.
* :mod:`repro.dispatch.client` — :class:`FleetSpec` / :class:`FleetClient`:
  submit/status/cancel/fetch against a running daemon, and
  :func:`run_fleet_sweep` — the ``run_sweep(spec, dispatch=FleetSpec(...))``
  backend.
* :mod:`repro.dispatch.worker` — :func:`run_worker`: pull chunks, execute
  through the sweep engine's own point executor, stream results.
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
from repro.dispatch.coordinator import (
    DispatchSpec,
    parse_hostport,
    run_dispatched,
    serve_sweep,
)
from repro.dispatch.daemon import FleetConfig, FleetDaemon, run_daemon
from repro.dispatch.faults import FaultPlan
from repro.dispatch.fleet import FleetQueue
from repro.dispatch.health import HealthTracker, WorkerHealth
from repro.dispatch.journal import (
    JournalIndexEntry,
    SweepJournal,
    compact_finished,
    journal_index,
    sweep_fingerprint,
)
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
    "HealthTracker",
    "JournalError",
    "JournalIndexEntry",
    "Lease",
    "ProtocolError",
    "SECRET_ENV_VAR",
    "SweepJournal",
    "WorkQueue",
    "WorkerHealth",
    "WorkerStats",
    "compact_finished",
    "compute_mac",
    "journal_index",
    "parse_hostport",
    "run_daemon",
    "run_dispatched",
    "run_fleet_sweep",
    "run_worker",
    "secret_from_env",
    "serve_sweep",
    "sweep_fingerprint",
]
