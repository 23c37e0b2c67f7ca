"""Lease-based work state for one sweep.

The unit of *assignment* is a :class:`Lease` — a batch of point indices
handed to one worker until a deadline — while the unit of *completion* is
a single point: workers stream one result per point, so a worker that dies
mid-lease loses only the points it had not yet reported, never finished
work.

Failure semantics
-----------------

An index is *pending* (waiting in the queue), *leased*, or *completed*.
Leases are extended by the owner's heartbeats and per-point results.  Two
paths return lost work to the queue:

* :meth:`WorkQueue.release` — the server saw the worker's connection die
  (the fast path: a SIGKILL'd worker's TCP connection closes immediately);
* lease expiry — a worker that is connected but silent (stalled, swapped
  out, partitioned) past ``lease_timeout`` is presumed dead.

Either way only indices without results are re-queued, at the *front*, so
another worker picks them up next; and duplicate results — the original
worker limping back after its lease moved on — are ignored with
first-writer-wins semantics.  Results are deterministic functions of their
point, so which writer wins cannot affect the sweep.

A :class:`WorkQueue` is one sweep's half of the composition: the
:class:`~repro.dispatch.fleet.FleetQueue` holds one per named sweep, decides
which sweep to serve next, and serialises every call under its own lock —
a ``WorkQueue`` takes no lock itself.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigurationError, DispatchError

__all__ = ["Lease", "WorkQueue"]


@dataclass(slots=True)
class Lease:
    """A batch of one sweep's point indices assigned to one worker."""

    lease_id: int
    sweep: str
    indices: tuple[int, ...]
    owner: str
    deadline: float


class WorkQueue:
    """Pending indices, live leases and collected results of one sweep.

    ``resumed`` seeds results that are already known (a journal replay);
    those indices are never handed out.  ``clock`` is injectable for tests;
    the default is ``time.monotonic``.
    """

    def __init__(
        self,
        total: int,
        *,
        lease_timeout: float,
        sweep: str = "",
        resumed: Mapping[int, object] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0:
            raise ConfigurationError(f"total must be >= 0, got {total}")
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.total = total
        self.sweep = sweep
        self.lease_timeout = lease_timeout
        self.results: dict[int, object] = dict(resumed or {})
        bad = sorted(i for i in self.results if not 0 <= i < total)
        if bad:
            raise DispatchError(
                f"sweep {sweep!r}: resumed result indices {bad} outside "
                f"sweep of {total} points"
            )
        #: Results dropped because their index already had one.
        self.duplicates = 0
        #: Leases whose unfinished work went back to the queue (worker
        #: death, disconnect or expiry).
        self.requeued = 0
        self._clock = clock
        self._next_lease_id = 0
        self._pending: deque[int] = deque()
        self._leases: dict[int, Lease] = {}
        self.requeue_missing()

    # ------------------------------------------------------------------
    # Worker-facing operations
    # ------------------------------------------------------------------

    def acquire(self, owner: str, max_points: int) -> Lease | None:
        """Lease up to ``max_points`` pending indices to ``owner``.

        Expired leases are reaped first, so a dead worker's points become
        acquirable the moment any live worker asks for more work.  ``None``
        if nothing is pending.
        """
        if max_points < 1:
            raise ConfigurationError(f"max_points must be >= 1, got {max_points}")
        self.expire_stale_leases()
        indices: list[int] = []
        while self._pending and len(indices) < max_points:
            index = self._pending.popleft()
            if index not in self.results:  # finished while it waited
                indices.append(index)
        if not indices:
            return None
        lease = Lease(
            lease_id=self._next_lease_id,
            sweep=self.sweep,
            indices=tuple(indices),
            owner=owner,
            deadline=self._clock() + self.lease_timeout,
        )
        self._next_lease_id += 1
        self._leases[lease.lease_id] = lease
        return lease

    def heartbeat(self, owner: str) -> int:
        """Extend every lease held by ``owner``; returns how many."""
        deadline = self._clock() + self.lease_timeout
        extended = 0
        for lease in self._leases.values():
            if lease.owner == owner:
                lease.deadline = deadline
                extended += 1
        return extended

    def complete(self, index: int, result: object, owner: str) -> bool:
        """Record one point's result; ``False`` for duplicates (ignored).

        First writer wins: a result for an index that already has one is
        dropped, which is how a reassigned worker's late results are
        neutralised.  Accepting results from non-leaseholders is deliberate
        — the work is deterministic, so finished work is never wasted just
        because the lease moved on.  Either way the result proves ``owner``
        is alive, so its leases are extended like a heartbeat.
        """
        if not 0 <= index < self.total:
            raise DispatchError(
                f"sweep {self.sweep!r}: result index {index} outside "
                f"{self.total} points"
            )
        self.heartbeat(owner)
        if index in self.results:
            self.duplicates += 1
            return False
        self.results[index] = result
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if all(i in self.results for i in lease.indices)
        ]:
            del self._leases[lease_id]
        return True

    def release(self, owner: str) -> int:
        """Re-queue the unfinished work of every lease held by ``owner``.

        Called when a worker's connection dies.  Returns how many leases
        went back to the front of the queue.
        """
        return self._requeue(
            [lease for lease in self._leases.values() if lease.owner == owner]
        )

    def expire_stale_leases(self) -> int:
        """Reap leases past their deadline; returns how many were re-queued.

        The serve loop calls this periodically so stalled workers are
        detected even while every live worker is busy (i.e. nobody is
        calling :meth:`acquire`).
        """
        now = self._clock()
        return self._requeue(
            [lease for lease in self._leases.values() if lease.deadline <= now]
        )

    # ------------------------------------------------------------------
    # Owner-facing state
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every point of the sweep has a result."""
        return len(self.results) == self.total

    @property
    def pending(self) -> int:
        """Indices waiting in the queue (neither leased nor completed).

        A late result can finish an index while it waits; it stays queued
        until :meth:`acquire` skips it, but is no longer pending.
        """
        return sum(1 for index in self._pending if index not in self.results)

    @property
    def leased(self) -> int:
        """Indices currently out on a lease."""
        return sum(len(lease.indices) for lease in self._leases.values())

    def drop_outstanding(self) -> None:
        """Forget pending work and tear up live leases (results are kept)."""
        self._pending.clear()
        self._leases.clear()

    def requeue_missing(self) -> None:
        """Queue every index that has no result and is not already out."""
        out = set(self._pending)
        for lease in self._leases.values():
            out.update(lease.indices)
        self._pending.extend(
            index
            for index in range(self.total)
            if index not in self.results and index not in out
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _requeue(self, leases: list[Lease]) -> int:
        requeued = 0
        for lease in leases:
            del self._leases[lease.lease_id]
            remaining = [i for i in lease.indices if i not in self.results]
            if remaining:
                # Front of the queue: orphaned work jumps ahead so the
                # sweep's tail is not parked behind fresh indices.
                self._pending.extendleft(reversed(remaining))
                requeued += 1
        self.requeued += requeued
        return requeued
