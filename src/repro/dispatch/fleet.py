"""Multi-sweep, priority-ordered work state behind the fleet daemon.

A :class:`FleetQueue` holds *many* named sweeps at once and outlives all of
them.  Each sweep's lease mechanics — per-point completion, deadlines
extended by heartbeats and results, connection loss and expiry re-queueing
only unfinished indices at the front, first-writer-wins results — live in
that sweep's :class:`~repro.dispatch.queue.WorkQueue`; this module adds
what is multi-sweep on top:

* **Named entries with priorities**: ``acquire`` always drains the
  highest-priority sweep with pending work first (FIFO among equals), so
  an urgent grid submitted mid-run overtakes a bulk backfill without
  cancelling it.
* **Resume**: entries can be seeded with journaled results, and
  resubmitting a sweep whose fingerprint matches an existing entry
  attaches to it — reviving it if it was cancelled — rather than
  recomputing.
* **Cancellation**: pending work is dropped, live leases are torn up, and
  late results for a cancelled sweep are ignored.

Chunk sizes are per request: the caller passes how many points the asking
worker should get (the daemon sizes it from that worker's observed
throughput).

Results are stored as their *wire payloads* (the ``encode_result`` dicts):
the daemon never rebuilds live result objects — decoding against local
spec objects is the submitter's job, which is exactly what keeps
daemon-served artifacts byte-identical to ``jobs=1`` runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.dispatch.queue import Lease, WorkQueue
from repro.errors import ConfigurationError, DispatchError

__all__ = ["FleetEntry", "FleetQueue"]

#: Entry lifecycle: accepting/serving work → every point has a result →
#: explicitly cancelled.  There is no separate "queued" state — a sweep
#: with no worker yet is simply running with zero progress.
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"


@dataclass(slots=True)
class FleetEntry:
    """One named sweep inside the daemon: identity plus its work queue."""

    name: str
    priority: int
    fingerprint: str
    #: Portable JSON payloads, one per point, in spec order.
    point_payloads: list[dict]
    #: Pending indices, leases and wire result payloads (journaled + live).
    work: WorkQueue
    #: Indices seeded from a journal rather than executed this lifetime.
    resumed: frozenset[int] = frozenset()
    cancelled: bool = False
    #: Set once every point has a result — what an in-process submitter
    #: blocks on instead of polling :attr:`state`.
    finished: threading.Event = field(default_factory=threading.Event)

    @property
    def total(self) -> int:
        return self.work.total

    @property
    def completed(self) -> int:
        return len(self.work.results)

    @property
    def executed(self) -> int:
        """Results accepted over the wire by *this* daemon process — the
        counter the no-re-execution drills assert on."""
        return self.completed - len(self.resumed)

    @property
    def duplicates(self) -> int:
        return self.work.duplicates

    @property
    def state(self) -> str:
        if self.cancelled:
            return CANCELLED
        if self.work.done:
            return DONE
        return RUNNING

    def status_row(self) -> dict[str, object]:
        """A JSON-safe row for ``status`` reports."""
        return {
            "sweep": self.name,
            "state": self.state,
            "priority": self.priority,
            "total": self.total,
            "completed": self.completed,
            "pending": self.work.pending,
            "leased": self.work.leased,
            "resumed": len(self.resumed),
            "executed": self.executed,
            "duplicates": self.duplicates,
            "fingerprint": self.fingerprint,
        }


class FleetQueue:
    """Thread-safe state for every sweep a daemon is serving.

    One lock guards all entries and their work queues — submissions,
    leases and results are tiny bookkeeping operations next to the
    simulations they schedule, so a single lock keeps the invariants easy
    to believe.  ``clock`` is injectable for tests.

    A change counter under the same lock moves whenever work may have
    become acquirable — a submission, a revived sweep, released or
    expired leases — and on :meth:`wake`.  A caller that found nothing
    reads it with :meth:`changes` *before* its :meth:`acquire` and then
    blocks in :meth:`wait_for_change`; whatever lands in between moves the
    counter, so no wake-up is lost.  :meth:`acquire` itself never blocks.
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
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._changes = 0
        self._entries: dict[str, FleetEntry] = {}

    # ------------------------------------------------------------------
    # Waiting for work
    # ------------------------------------------------------------------

    def changes(self) -> int:
        """The change counter, to hand to :meth:`wait_for_change`."""
        with self._lock:
            return self._changes

    def wait_for_change(self, seen: int, timeout: float) -> bool:
        """Block until the counter moves past ``seen``, for at most
        ``timeout`` seconds; ``True`` if it moved."""
        with self._changed:
            return self._changed.wait_for(lambda: self._changes != seen, timeout)

    def wake(self) -> None:
        """Move the counter, waking every waiter (the daemon is stopping)."""
        with self._lock:
            self._bump()

    def _bump(self) -> None:
        # Caller holds the lock.
        self._changes += 1
        self._changed.notify_all()

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
    ) -> tuple[FleetEntry, bool]:
        """Register a sweep; returns ``(entry, created)``.

        A resubmission whose fingerprint matches the existing entry
        *attaches*: the caller gets the live entry (revived if it was
        cancelled) and ``created=False``.  A name collision with a
        different fingerprint is refused loudly — two different grids must
        never share journaled state.
        """
        if not name:
            raise ConfigurationError("sweep name must be non-empty")
        with self._lock:
            existing = self._entries.get(name)
            if existing is not None:
                if existing.fingerprint != fingerprint:
                    raise DispatchError(
                        f"sweep {name!r} already exists with fingerprint "
                        f"{existing.fingerprint}, submission has "
                        f"{fingerprint} — pick a new name or submit the "
                        "identical spec to resume it"
                    )
                if existing.cancelled:
                    existing.cancelled = False
                    existing.work.requeue_missing()
                    self._bump()
                return existing, False
            resumed = {
                index: dict(result)
                for index, result in (resumed_results or {}).items()
            }
            entry = FleetEntry(
                name=name,
                priority=priority,
                fingerprint=fingerprint,
                point_payloads=point_payloads,
                work=WorkQueue(
                    len(point_payloads),
                    lease_timeout=self.lease_timeout,
                    sweep=name,
                    resumed=resumed,
                    clock=self._clock,
                ),
                resumed=frozenset(resumed),
            )
            if entry.work.done:  # empty, or fully resumed from a journal
                entry.finished.set()
            self._entries[name] = entry
            self._bump()
            return entry, True

    def cancel(self, name: str) -> bool:
        """Stop serving ``name``; ``False`` if no such sweep."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return False
            entry.cancelled = True
            entry.work.drop_outstanding()
            return True

    # ------------------------------------------------------------------
    # Worker-facing operations
    # ------------------------------------------------------------------

    def acquire(self, owner: str, max_points: int) -> Lease | None:
        """Lease up to ``max_points`` indices of the most urgent sweep.

        Urgency: highest ``priority`` first, then earliest submission.
        Each sweep reaps its expired leases before answering, so a dead
        worker's points are re-acquirable the moment anyone asks.  ``None``
        when nothing is pending anywhere.
        """
        with self._lock:
            # Entries are never removed and the sort is stable, so equal
            # priorities keep their submission (insertion) order; a
            # cancelled entry has nothing pending and yields no lease.
            for entry in sorted(
                self._entries.values(), key=lambda entry: -entry.priority
            ):
                lease = entry.work.acquire(owner, max_points)
                if lease is not None:
                    return lease
            return None

    def complete(
        self, sweep: str, index: int, result: Mapping[str, object], owner: str
    ) -> bool:
        """Record one point's wire result; ``False`` if dropped.

        Drops (without error) duplicates and anything for a cancelled
        sweep; raises for sweeps the daemon has never heard of or indices
        outside the grid — those are protocol violations, not races.
        """
        with self._lock:
            entry = self._entries.get(sweep)
            if entry is None:
                raise DispatchError(f"result for unknown sweep {sweep!r}")
            if entry.cancelled:
                return False
            accepted = entry.work.complete(index, dict(result), owner)
            if accepted and entry.work.done:
                entry.finished.set()
            return accepted

    def heartbeat(self, owner: str) -> int:
        """Extend every lease held by ``owner``; returns how many."""
        with self._lock:
            return sum(
                entry.work.heartbeat(owner) for entry in self._entries.values()
            )

    def release(self, owner: str) -> int:
        """Re-queue the unfinished work of every lease held by ``owner``."""
        with self._lock:
            requeued = sum(
                entry.work.release(owner) for entry in self._entries.values()
            )
            if requeued:
                self._bump()
            return requeued

    def expire_stale_leases(self) -> int:
        """Reap every sweep's leases past their deadline."""
        with self._lock:
            requeued = sum(
                entry.work.expire_stale_leases()
                for entry in self._entries.values()
            )
            if requeued:
                self._bump()
            return requeued

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leases_requeued(self) -> int:
        """Lifetime count of leases whose unfinished work was re-queued
        (worker death, disconnect, or expiry) — the "lease churn" gauge
        the daemon's ``metrics`` verb reports."""
        with self._lock:
            return sum(entry.work.requeued for entry in self._entries.values())

    def entry(self, name: str) -> FleetEntry | None:
        with self._lock:
            return self._entries.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def results_for(self, name: str) -> dict[int, dict] | None:
        """Snapshot of a sweep's wire results; ``None`` for unknown names."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return None
            return {
                index: dict(result)
                for index, result in entry.work.results.items()
            }

    def status_rows(self) -> list[dict[str, object]]:
        """One JSON-safe row per sweep, in submission order."""
        with self._lock:
            return [entry.status_row() for entry in self._entries.values()]
