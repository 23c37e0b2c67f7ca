"""The fleet daemon's ledger: every sweep, lease, result and worker.

A :class:`FleetQueue` holds *many* named sweeps at once and outlives all of
them.  Each sweep is one record, a :class:`~repro.dispatch.queue.WorkQueue`:
its identity, points, leases and results, with the per-sweep rules —
per-point completion, deadlines extended by heartbeats and results,
connection loss and expiry re-queueing only unfinished indices at the
front, first-writer-wins results, cancel and revive.  This module adds
what spans sweeps:

* **Priorities**: ``acquire`` always drains the highest-priority sweep with
  pending work first (FIFO among equals), so an urgent grid submitted
  mid-run overtakes a bulk backfill without cancelling it.
* **Resume**: sweeps can be seeded with journaled results, and
  resubmitting a sweep whose fingerprint matches an existing one attaches
  to it — reviving it if it was cancelled — rather than recomputing.
* **Input checks**: :meth:`FleetQueue.accept` is where worker results
  enter, and the one place they are validated.
* **Workers**: one record per worker connection — liveness (the last
  frame of any kind), progress, and an EWMA of observed points/sec that
  sizes its next lease, so heterogeneous hosts drain a sweep's tail
  together instead of parking it on the slowest machine.  Sizing changes
  wall-clock shape only, never result bytes.

Results are stored as their *wire payloads* (the ``encode_result`` dicts):
the daemon never rebuilds live result objects — decoding against local
spec objects is the submitter's job, which is exactly what keeps
daemon-served artifacts byte-identical to ``jobs=1`` runs.

A :class:`FleetQueue` is the daemon's whole ledger and nothing else: it
takes no lock and does no I/O, and it owns the only clock: each ledger
call reads its injected ``clock`` once and hands that ``now`` to the
records it touches.  The daemon serialises every call under its one
condition; ``tests/unit/test_fleet_ledger.py`` checks the ledger over every
small schedule of worker, clock and submitter events.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.dispatch.protocol import is_index
from repro.dispatch.queue import Lease, WorkQueue
from repro.errors import ConfigurationError, DispatchError, ProtocolError

__all__ = ["FleetQueue"]

#: Adaptive chunk sizing: a worker's lease targets this many seconds of its
#: observed throughput, clamped to ``[1, MAX_CHUNK_POINTS]``.  A worker with
#: no estimate yet (before its second batch of accepted results) gets
#: ``PROBE_CHUNK_POINTS``: underestimating a fast host for one lease costs
#: far less than parking a sweep's tail on a slow one.  Read at call time.
TARGET_CHUNK_SECONDS = 5.0
PROBE_CHUNK_POINTS = 1
MAX_CHUNK_POINTS = 64
#: Weight of the newest batch's rate in the throughput EWMA.
_EWMA_ALPHA = 0.3

@dataclass(slots=True)
class _Worker:
    """One worker connection's ledger: liveness, progress, throughput.

    Methods take ``now`` (the :class:`FleetQueue`'s clock) instead of
    reading one.
    """

    owner: str
    #: When the last frame of any kind arrived.
    last_seen: float
    connected: bool = True
    points_completed: int = 0
    heartbeats: int = 0
    #: EWMA of completed points per second; ``None`` until a second batch.
    points_per_sec: float | None = None
    last_result_at: float | None = None

    def record_result(self, now: float, points: int = 1) -> None:
        """A batch of ``points`` accepted results: count them and update the
        throughput EWMA with ``points`` over the time since the last batch."""
        self.last_seen = now
        self.points_completed += points
        previous, self.last_result_at = self.last_result_at, now
        if previous is None or now <= previous:
            return
        rate = points / (now - previous)
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


class FleetQueue:
    """Every sweep and every worker connection a daemon is serving.

    Not thread-safe by itself: the daemon holds its one condition around
    every call (and around the journal appends of what a call accepted),
    and notifies after each.  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        *,
        lease_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.lease_timeout = lease_timeout
        self._clock = clock
        self._entries: dict[str, WorkQueue] = {}
        #: Every worker connection ever registered, by owner name.
        self._workers: dict[str, _Worker] = {}

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------

    def submit(
        self,
        name: str,
        point_payloads: list[dict],
        fingerprint: str,
        *,
        priority: int = 0,
        resumed_results: Mapping[int, dict] | None = None,
    ) -> tuple[WorkQueue, bool]:
        """Register a sweep; returns ``(entry, created)``.

        A resubmission whose fingerprint matches the existing entry
        *attaches*: the caller gets the live entry (revived if it was
        cancelled) and ``created=False``.  A name collision with a
        different fingerprint is refused loudly — two different grids must
        never share journaled state.
        """
        if not name:
            raise ConfigurationError("sweep name must be non-empty")
        existing = self._entries.get(name)
        if existing is not None:
            if existing.fingerprint != fingerprint:
                raise DispatchError(
                    f"sweep {name!r} already exists with fingerprint "
                    f"{existing.fingerprint}, submission has "
                    f"{fingerprint} — pick a new name or submit the "
                    "identical spec to resume it"
                )
            existing.revive()
            return existing, False
        entry = WorkQueue(
            name,
            point_payloads,
            fingerprint,
            priority=priority,
            lease_timeout=self.lease_timeout,
            resumed=resumed_results,
        )
        self._entries[name] = entry
        return entry, True

    def cancel(self, name: str) -> bool:
        """Stop serving ``name``; ``False`` if no such sweep."""
        entry = self._entries.get(name)
        if entry is not None:
            entry.cancel()
        return entry is not None

    # ------------------------------------------------------------------
    # Worker connections
    # ------------------------------------------------------------------

    def register(self, name: str) -> str:
        """Book a new worker connection; returns its unique owner name."""
        owner = f"{name or 'worker'}#{len(self._workers) + 1}"
        self._workers[owner] = _Worker(owner, self._clock())
        return owner

    def seen(self, owner: str) -> None:
        """A frame of any kind arrived from ``owner``."""
        self._workers[owner].last_seen = self._clock()

    def worker_rows(self) -> list[dict[str, object]]:
        """``fleet status`` rows for every worker connection, by owner name."""
        now = self._clock()
        return [
            self._workers[owner].row(now, self.lease_timeout)
            for owner in sorted(self._workers)
        ]

    # ------------------------------------------------------------------
    # Worker-facing operations
    # ------------------------------------------------------------------

    def acquire(self, owner: str, max_points: int | None = None) -> Lease | None:
        """Lease the most urgent sweep's pending indices to ``owner``.

        Urgency: highest ``priority`` first, then earliest submission.
        Each sweep reaps its expired leases before answering, so a dead
        worker's points are re-acquirable the moment anyone asks.  The
        lease is sized from ``owner``'s record unless ``max_points`` is
        given.  ``None`` when nothing is pending anywhere.
        """
        if max_points is None:
            max_points = self._workers[owner].chunk_points()
        if max_points < 1:
            raise ConfigurationError(f"max_points must be >= 1, got {max_points}")
        now = self._clock()
        # Entries are never removed and the sort is stable, so equal
        # priorities keep their submission (insertion) order; a cancelled
        # entry has nothing pending and yields no lease.
        for entry in sorted(self._entries.values(), key=lambda entry: -entry.priority):
            lease = entry.acquire(owner, max_points, now)
            if lease is not None:
                return lease
        return None

    def accept(
        self, owner: str, sweep: object, batch: object
    ) -> list[tuple[int, Mapping[str, object]]]:
        """Accept a frame's batch of ``[index, payload]`` results.

        Returns the newly accepted pairs (first writer wins; a cancelled
        sweep accepts none), in batch order.  A malformed batch, or one for
        a sweep this ledger has never heard of, raises
        :class:`ProtocolError` before any of it is kept: this is the one
        check of what a worker sends.
        """
        entry = self._entries.get(sweep) if isinstance(sweep, str) else None
        if entry is None:
            raise ProtocolError(f"results for an unknown sweep {sweep!r}")
        if not isinstance(batch, list):
            raise ProtocolError(f"results for {sweep!r} are not a list")
        for item in batch:
            index = item[0] if isinstance(item, list) and len(item) == 2 else None
            if not (is_index(index) and 0 <= index < entry.total):
                raise ProtocolError(f"result for {sweep!r} with bad index {index!r}")
            if not isinstance(item[1], Mapping):
                raise ProtocolError(f"result {sweep!r}[{index}] carries no payload")
        accepted = [
            (index, payload)
            for index, payload in batch
            if self.complete(sweep, index, payload, owner)
        ]
        worker = self._workers.get(owner)
        if accepted and worker is not None:
            worker.record_result(self._clock(), len(accepted))
        return accepted

    def complete(
        self, sweep: str, index: int, result: Mapping[str, object], owner: str
    ) -> bool:
        """Record one point's wire result, as :meth:`accept` checked it;
        ``False`` if dropped (a duplicate, or any result for a cancelled
        sweep)."""
        return self._entries[sweep].complete(index, dict(result), owner, self._clock())

    def heartbeat(self, owner: str) -> int:
        """Extend every lease held by ``owner``; returns how many."""
        worker = self._workers.get(owner)
        if worker is not None:
            worker.heartbeats += 1
        now = self._clock()
        return sum(entry.heartbeat(owner, now) for entry in self._entries.values())

    def release(self, owner: str) -> int:
        """``owner``'s connection is gone: mark it so, and re-queue the
        unfinished work of every lease it held; returns how many leases."""
        worker = self._workers.get(owner)
        if worker is not None:
            worker.disconnect()
        return sum(entry.release(owner) for entry in self._entries.values())

    def expire_stale_leases(self) -> int:
        """Reap every sweep's leases past their deadline.

        The daemon's accept thread calls this every poll interval, so
        stalled workers are detected even while every live worker is busy
        (i.e. nobody is calling :meth:`acquire`).
        """
        now = self._clock()
        return sum(entry.expire_stale_leases(now) for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leases_issued(self) -> int:
        """Lifetime count of leases handed out, over every sweep."""
        return sum(entry.issued for entry in self._entries.values())

    @property
    def leases_requeued(self) -> int:
        """Lifetime count of leases whose unfinished work was re-queued
        (worker death, disconnect, or expiry) — the "lease churn" gauge
        the daemon's ``metrics`` verb reports."""
        return sum(entry.requeued for entry in self._entries.values())

    @property
    def results_accepted(self) -> int:
        """Results accepted over the wire this lifetime, over every sweep
        (sweeps and results are never dropped, so nothing is lost)."""
        return sum(entry.executed for entry in self._entries.values())

    def entry(self, name: str) -> WorkQueue | None:
        return self._entries.get(name)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def status_rows(self) -> list[dict[str, object]]:
        """One JSON-safe row per sweep, in submission order."""
        return [entry.status_row() for entry in self._entries.values()]
