"""One sweep's record in the daemon's ledger: identity, leases, results.

A :class:`WorkQueue` is everything the daemon knows about one named sweep:
its name, priority, fingerprint and point payloads, the indices pending or
out on a lease, the results collected so far and whether it was cancelled.
The :class:`~repro.dispatch.fleet.FleetQueue` builds one per submitted
sweep and decides which sweep to serve next.  Neither takes a lock (the
daemon serialises every call under its one condition), and neither reads
a clock: the ``FleetQueue`` reads its own once per ledger call and passes
that ``now`` to every method here that sets or checks a deadline.

The unit of *assignment* is a :class:`Lease` — a batch of point indices
handed to one worker until a deadline — while the unit of *completion* is
a single point: the daemon accepts results one by one as they arrive, so
a worker that dies mid-lease loses only the points it had not yet
delivered, and those are simply leased and computed again.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.errors import DispatchError

__all__ = ["Lease", "WorkQueue"]

#: Sweep lifecycle: accepting/serving work → every point has a result →
#: explicitly cancelled.  There is no separate "queued" state — a sweep
#: with no worker yet is simply running with zero progress.
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"


@dataclass(slots=True)
class Lease:
    """A batch of one sweep's point indices assigned to one worker."""

    lease_id: int
    sweep: str
    indices: tuple[int, ...]
    owner: str
    deadline: float


class WorkQueue:
    """One named sweep: its points, pending indices, live leases and
    results (wire payloads, journaled and live).

    ``resumed`` seeds results that are already known (a journal replay);
    those indices are never handed out.
    """

    def __init__(
        self,
        name: str,
        point_payloads: list[dict],
        fingerprint: str,
        *,
        priority: int,
        lease_timeout: float,
        resumed: Mapping[int, Mapping[str, object]] | None = None,
    ) -> None:
        self.name = name
        #: Portable JSON payloads, one per point, in spec order.
        self.point_payloads = point_payloads
        self.fingerprint = fingerprint
        self.priority = priority
        self.total = len(point_payloads)
        self.lease_timeout = lease_timeout
        self.results: dict[int, dict] = {
            index: dict(result) for index, result in (resumed or {}).items()
        }
        bad = sorted(i for i in self.results if not 0 <= i < self.total)
        if bad:
            raise DispatchError(
                f"sweep {name!r}: resumed result indices {bad} outside "
                f"sweep of {self.total} points"
            )
        #: Indices seeded from a journal rather than executed this lifetime.
        self.resumed = frozenset(self.results)
        self.cancelled = False
        #: Results dropped because their index already had one.
        self.duplicates = 0
        #: Leases whose unfinished work went back to the queue (worker
        #: death, disconnect or expiry).
        self.requeued = 0
        #: Leases handed out; the next lease's id.
        self.issued = 0
        self._pending = deque(i for i in range(self.total) if i not in self.results)
        self._leases: dict[int, Lease] = {}

    # ------------------------------------------------------------------
    # Worker-facing operations
    # ------------------------------------------------------------------

    def acquire(self, owner: str, max_points: int, now: float) -> Lease | None:
        """Lease up to ``max_points`` pending indices to ``owner``.

        Expired leases are reaped first, so a dead worker's points become
        acquirable the moment any live worker asks for more work.  ``None``
        if nothing is pending.
        """
        self.expire_stale_leases(now)
        indices: list[int] = []
        while self._pending and len(indices) < max_points:
            index = self._pending.popleft()
            if index not in self.results:  # finished while it waited
                indices.append(index)
        if not indices:
            return None
        lease = Lease(
            lease_id=self.issued,
            sweep=self.name,
            indices=tuple(indices),
            owner=owner,
            deadline=now + self.lease_timeout,
        )
        self.issued += 1
        self._leases[lease.lease_id] = lease
        return lease

    def heartbeat(self, owner: str, now: float) -> int:
        """Extend every lease held by ``owner``; returns how many."""
        extended = 0
        for lease in self._leases.values():
            if lease.owner == owner:
                lease.deadline = now + self.lease_timeout
                extended += 1
        return extended

    def complete(self, index: int, result: dict, owner: str, now: float) -> bool:
        """Record one point's result; ``False`` if dropped.

        A cancelled sweep drops every late result.  Otherwise first writer
        wins: a result for an index that already has one is dropped, which
        is how a reassigned worker's late results are neutralised.
        Accepting results from non-leaseholders is deliberate — the work is
        deterministic, so finished work is never wasted just because the
        lease moved on.  Either way the result proves ``owner`` is alive,
        so its leases are extended like a heartbeat.
        """
        if self.cancelled:
            return False
        self.heartbeat(owner, now)
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

    def expire_stale_leases(self, now: float) -> int:
        """Reap leases past their deadline; returns how many were re-queued."""
        return self._requeue(
            [lease for lease in self._leases.values() if lease.deadline <= now]
        )

    # ------------------------------------------------------------------
    # Submitter-facing operations and state
    # ------------------------------------------------------------------

    def cancel(self) -> None:
        """Stop serving: forget pending work and tear up live leases
        (results are kept)."""
        self.cancelled = True
        self._pending.clear()
        self._leases.clear()

    def revive(self) -> None:
        """Serve a cancelled sweep again: queue every index without a
        result.  A no-op on a sweep that was never cancelled."""
        if self.cancelled:
            self.cancelled = False
            self._pending.extend(
                i for i in range(self.total) if i not in self.results
            )

    @property
    def completed(self) -> int:
        return len(self.results)

    @property
    def executed(self) -> int:
        """Results accepted over the wire by *this* daemon process — the
        counter the no-re-execution drills assert on."""
        return len(self.results) - len(self.resumed)

    @property
    def state(self) -> str:
        if self.cancelled:
            return CANCELLED
        return DONE if len(self.results) == self.total else RUNNING

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

    def status_row(self) -> dict[str, object]:
        """A JSON-safe row for ``status`` reports."""
        return {
            "sweep": self.name,
            "state": self.state,
            "priority": self.priority,
            "total": self.total,
            "completed": self.completed,
            "pending": self.pending,
            "leased": self.leased,
            "resumed": len(self.resumed),
            "executed": self.executed,
            "duplicates": self.duplicates,
            "fingerprint": self.fingerprint,
        }

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
