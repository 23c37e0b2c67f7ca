"""Every small schedule of the fleet ledger keeps its invariants.

The fleet daemon's whole state is one :class:`FleetQueue`; its rules are
few, but the faults they guard against show up only under particular
interleavings of workers, clocks and submitters.  This module explores
every sequence of up to :data:`DEPTH` ledger events at three small scopes
with the repository's one explorer, ``tools/explore.py`` (breadth-first,
deduplicating states by :meth:`Run.key` and rebuilding each one by replay
from the root), and checks the invariants after every event.  A fault that
needs a small schedule to show — and the dispatch layer's past ones all
did — is found here with its shortest counterexample.

Two workers, ``w1`` and ``w2``, drive the ledger with these events:

* ``request`` — acquire a lease of up to one or two points (:data:`CHUNKS`);
* ``result`` — deliver one point the worker was ever leased: a first
  result, a duplicate, or a late one after its lease moved on;
* ``disconnect`` — the connection drops, its leases go back to the queue;
* ``heartbeat`` — extend the worker's leases;
* ``tick`` — the clock passes ``lease_timeout`` and stale leases are reaped;
* ``cancel`` and ``resubmit`` of a sweep (a resubmission attaches, and
  revives a cancelled sweep);
* ``restart`` — a new ledger seeded with the results accepted so far, as a
  journal restore seeds it.

The invariants are listed on :meth:`Run.check`.  The check reads each
sweep's pending indices and leases from its record (a ``WorkQueue``)
directly, so a wrong ``pending`` or ``leased`` count cannot hide a lost
index.  A result enters through ``accept``, as a worker's frame does.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.dispatch.fleet import FleetQueue
from repro.dispatch.queue import DONE, WorkQueue
from tools.explore import Exploration, Violation, explore

#: Longest event sequence explored.
DEPTH = 6
LEASE_TIMEOUT = 10.0
#: Lease sizes a ``request`` may ask for: a probe lease and a larger one.
CHUNKS = (1, 2)
WORKERS = ("w1", "w2")


@dataclass(frozen=True)
class Scope:
    #: (sweep name, points, priority), in submission order.
    sweeps: tuple[tuple[str, int, int], ...]
    #: Distinct states reached within :data:`DEPTH` events.
    states: int


SCOPES = {
    "1x2": Scope((("a", 2, 0),), states=407),
    "1x3": Scope((("a", 3, 0),), states=4_435),
    "2 sweeps": Scope((("a", 2, 0), ("b", 1, 1)), states=2_887),
}


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class Run:
    """One ledger plus what its workers and journal have seen of it."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self.clock = Clock()
        #: (sweep, index) pairs each worker was ever leased, so can deliver.
        self.leased: dict[str, set[tuple[str, int]]] = {w: set() for w in WORKERS}
        #: The first payload accepted for each index: what a journal holds.
        self.accepted: dict[str, dict[int, dict]] = {
            name: {} for name, _, _ in scope.sweeps
        }
        self.queue = self._ledger()

    def _ledger(self) -> FleetQueue:
        queue = FleetQueue(lease_timeout=LEASE_TIMEOUT, clock=self.clock)
        for name, points, priority in self.scope.sweeps:
            self._submit(queue, name, points, priority)
        return queue

    def _submit(self, queue: FleetQueue, name: str, points: int, priority: int):
        queue.submit(
            name,
            [{"point": index} for index in range(points)],
            f"fp-{name}",
            priority=priority,
            resumed_results=self.accepted[name],
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def events(self) -> list[tuple]:
        events: list[tuple] = []
        for worker in WORKERS:
            events += [("request", worker, chunk) for chunk in CHUNKS]
            events += [("disconnect", worker), ("heartbeat", worker)]
            events += [
                ("result", worker, sweep, index)
                for sweep, index in sorted(self.leased[worker])
            ]
        events.append(("tick",))
        for name, _, _ in self.scope.sweeps:
            events += [("cancel", name), ("resubmit", name)]
        events.append(("restart",))
        return events

    def apply(self, event: tuple) -> None:
        """Apply ``event``; a ``request`` checks the lease it was served."""
        kind, *args = event
        queue = self.queue
        if kind == "request":
            worker, chunk = args
            lease = queue.acquire(worker, chunk)
            if lease is not None:
                self.leased[worker].update((lease.sweep, i) for i in lease.indices)
            self._check_served(lease)
        elif kind == "result":
            worker, sweep, index = args
            payload = {"index": index, "by": worker}
            if queue.accept(worker, sweep, [[index, payload]]):
                if index in self.accepted[sweep]:
                    raise Violation(f"{sweep}[{index}] accepted twice")
                self.accepted[sweep][index] = payload
        elif kind == "disconnect":
            queue.release(*args)
        elif kind == "heartbeat":
            queue.heartbeat(*args)
        elif kind == "tick":
            self.clock.now += LEASE_TIMEOUT + 1.0
            queue.expire_stale_leases()
        elif kind == "cancel":
            queue.cancel(*args)
        elif kind == "resubmit":
            (name,) = args
            _, points, priority = next(s for s in self.scope.sweeps if s[0] == name)
            self._submit(queue, name, points, priority)
        elif kind == "restart":
            self.queue = self._ledger()
        else:  # pragma: no cover - a typo in the event table
            raise ValueError(kind)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _check_served(self, lease) -> None:
        """``acquire`` serves the most urgent sweep with pending work, and
        returns a lease whenever any sweep has pending work: every sweep
        ahead of the one served (all of them, if none was) has none left."""
        # Submission order is scope order, and the sort is stable.
        for name, _, _ in sorted(self.scope.sweeps, key=lambda sweep: -sweep[2]):
            if lease is not None and name == lease.sweep:
                break
            pending = self.queue.entry(name).pending
            if pending:
                served = "no lease" if lease is None else f"a lease of {lease.sweep}"
                raise Violation(f"{served} while {name} has {pending} pending")
        if lease is not None:
            results = self.queue.entry(lease.sweep).results
            if not lease.indices or any(i in results for i in lease.indices):
                raise Violation(f"lease of finished or no work: {lease.indices}")

    def check(self) -> None:
        """After every event, for every sweep:

        * first writer wins: every accepted payload is still the stored
          one, and nothing else is stored — across restarts too;
        * ``done`` iff every index has a result, and then nothing is
          pending or leased;
        * a running sweep loses no index: each is pending, leased or
          complete;
        * a cancelled sweep holds no lease and nothing pending.
        """
        for name, _, _ in self.scope.sweeps:
            work = self.queue.entry(name)
            if work.results != self.accepted[name]:
                raise Violation(
                    f"{name} stores {work.results}, accepted {self.accepted[name]}"
                )
            finished = len(work.results) == work.total
            if (work.state == DONE) != (finished and not work.cancelled):
                raise Violation(f"{name} {work.state} with {len(work.results)}")
            if finished and (work.pending or work.leased):
                raise Violation(
                    f"{name} done with pending {work.pending}, leased {work.leased}"
                )
            if work.cancelled:
                if work.pending or work.leased:
                    raise Violation(
                        f"cancelled {name} holds pending {work.pending}, "
                        f"leased {work.leased}"
                    )
                continue
            out = set(work._pending).union(
                *(lease.indices for lease in work._leases.values())
            )
            lost = [
                i for i in range(work.total) if i not in work.results and i not in out
            ]
            if lost:
                raise Violation(f"{name} lost indices {lost}")

    def key(self) -> tuple:
        """Everything that decides what happens next, and nothing else:
        lease ids, counters and the clock's absolute reading are left out."""
        sweeps = []
        for name, _, _ in self.scope.sweeps:
            work = self.queue.entry(name)
            sweeps.append(
                (
                    work.cancelled,
                    tuple(sorted((i, r["by"]) for i, r in work.results.items())),
                    tuple(work._pending),
                    tuple(
                        (lease.owner, lease.indices, lease.deadline > self.clock.now)
                        for lease in work._leases.values()
                    ),
                )
            )
        return tuple(sweeps), tuple(tuple(sorted(self.leased[w])) for w in WORKERS)


def explore_ledger(scope: Scope) -> Exploration:
    return explore(
        lambda: Run(scope), Run.events, Run.apply, Run.check, Run.key, DEPTH
    )


@pytest.mark.parametrize("scope", SCOPES.values(), ids=SCOPES)
def test_every_schedule_keeps_the_invariants(scope: Scope) -> None:
    states, path, message = explore_ledger(scope)
    assert path is None, f"{message} after {path}"
    # Pinned: a ledger that reaches a different state space has changed
    # its rules, not just its structure.
    assert states == scope.states


def _pending_counts_finished(monkeypatch) -> None:
    """A late result for a re-queued index left it counted as pending."""
    monkeypatch.setattr(WorkQueue, "pending", property(lambda q: len(q._pending)))


def _duplicate_overwrites(monkeypatch) -> None:
    """No first-writer check: a second result replaces the first."""

    def complete(self, index, result, owner, now):
        if self.cancelled:
            return False
        self.heartbeat(owner, now)
        self.results[index] = result
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if all(i in self.results for i in lease.indices)
        ]:
            del self._leases[lease_id]
        return True

    monkeypatch.setattr(WorkQueue, "complete", complete)


def _requeue_drops_indices(monkeypatch) -> None:
    """A released or expired lease is torn up but its work never re-queued."""

    def requeue(self, leases):
        for lease in leases:
            del self._leases[lease.lease_id]
        return 0

    monkeypatch.setattr(WorkQueue, "_requeue", requeue)


@pytest.mark.parametrize(
    "plant, message, events",
    [
        (_pending_counts_finished, "done with pending", 4),
        (_duplicate_overwrites, "accepted twice", 3),
        (_requeue_drops_indices, "lost indices", 2),
    ],
    ids=["pending-counts-finished", "duplicate-overwrites", "requeue-drops-indices"],
)
def test_a_planted_fault_is_found(monkeypatch, plant, message, events) -> None:
    plant(monkeypatch)
    _, path, found = explore_ledger(SCOPES["1x2"])
    assert path is not None, "the planted fault went unnoticed"
    assert message in found
    assert len(path) == events <= 5, path
