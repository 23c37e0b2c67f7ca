"""Serialization graph testing for read-only edge transactions.

Theory
------
The backend uses strict two-phase locking and assigns versions from a global
commit-sequence counter, so every conflict edge between update transactions
(write-write, write-read, read-write on a common key) points from a lower
version to a higher version: the conflict graph of update transactions is a
DAG and the version order is a valid serialization. (This is asserted, not
assumed: :meth:`SerializationGraphTester.verify_update_dag` checks the
direction of every recorded edge, and the database test suite calls it.)

A read-only transaction ``T`` that observed version ``v_i`` of object ``o_i``
adds, per standard serialization-graph construction:

* a WR edge ``W_i -> T`` from the writer ``W_i`` of each version read, and
* an RW edge ``T -> N_j`` to the *next* writer ``N_j`` of each object read
  (the earliest update transaction that overwrote the version ``T`` saw).

``T`` serializes with the update history iff the combined graph has no cycle
through ``T``, which — since update transactions alone form a DAG — is
exactly the existence of a path ``N_j ->* W_i`` for some pair ``(j, i)``
(including the degenerate path ``N_j = W_i``). The tester answers that
reachability question with a breadth-first search that only expands
transactions whose version is at most ``max_i version(W_i)`` — every
conflict edge increases the version, so nothing beyond that bound can reach
a writer.

Conflict adjacency, in commit order
-----------------------------------
The tester keeps only its conflict graph: per update transaction the list of
its outgoing conflict successors (WW/WR/RW), prebuilt as in the
precomputed-conflict idea of Nagar & Jagannathan's violation detector, so
``is_consistent`` is a walk over lists, O(1) in the history size (§V-B2),
and per key the version chain and the ``pending`` readers still waiting for
their overwriter. No transaction is stored.

:meth:`record_update` takes transactions in commit order — what the backend
emits, since versions come from its commit-sequence counter. Every edge a
new transaction creates then points *at* it, so recording only appends: the
writer of each version it read (WR), the tail of each chain it extends (WW)
and each pending reader of a key it writes (RW) are its predecessors, and
each gets the new transaction appended once, however many keys they share —
one edge per conflicting pair. The one edge that leaves the new transaction
is the RW edge of a *stale* read (an update transaction that observed an
already-overwritten version), found with one ``bisect``; it descends, which
is exactly what :meth:`verify_update_dag` reports.

An arrival that is not newer than everything recorded (a duplicate or an
out-of-order commit), or that reads a version whose writer is not recorded,
is refused with :class:`~repro.errors.SimulationError`, and nothing of it is
recorded. Every adjacency list is therefore **ascending** and free of
repeats, and a bounded search can stop scanning a list at the first
successor above its bound.

Because conflict edges only ever point towards *later* versions, a read set
that is consistent now can never become inconsistent as more update
transactions commit; the monitor may therefore classify each read-only
transaction once, at completion time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.types import CommittedTransaction, Key, TxnId, Version

__all__ = ["SerializationGraphTester"]


class SerializationGraphTester:
    """Exact consistency oracle over one backend's committed update history.

    Versions (and the transaction ids that double as them) are only ordered
    *within* a backend database's commit sequence, so one tester holds one
    backend's history: the monitor keeps a tester per backend namespace and
    routes each stream to its own graph — the ``(backend, version)`` keying
    of serialization-graph edges. ``namespace`` optionally names which
    backend this tester serves, for diagnostics.
    """

    def __init__(self, namespace: str | None = None) -> None:
        self.namespace = namespace
        #: Per key ``(chain, pending)``: the versions installed, ascending,
        #: and the update transactions whose read of that key has no
        #: overwriter yet (they take their RW edge from the next writer).
        self._keys: dict[Key, tuple[list[Version], list[TxnId]]] = {}
        #: Outgoing conflict edges (WW/WR/RW) per update transaction,
        #: ascending, one per conflicting pair.
        self._adjacency: dict[TxnId, list[TxnId]] = {}
        #: Largest transaction id recorded.
        self._newest: TxnId = 0
        self.update_count = 0
        self.checks = 0
        #: Total BFS node expansions, for overhead reporting.
        self.expansions = 0

    # ------------------------------------------------------------------
    # History construction
    # ------------------------------------------------------------------

    def record_update(self, txn: CommittedTransaction) -> None:
        """Add the next committed update transaction to the history.

        O(reads + writes): each recorded transaction with a conflict edge
        into ``txn`` (WR, WW or RW, on any number of keys) gets ``txn``
        appended to its list once. ``txn`` must be newer than everything
        recorded, write its own version only and read only versions whose
        writer is recorded; otherwise it is refused with
        :class:`SimulationError` and nothing of it is recorded. The tester
        keeps no reference to ``txn`` or its maps.
        """
        version = txn.txn_id
        if version <= self._newest:
            if version in self._adjacency:
                raise self._refusal(f"update transaction {version} recorded twice")
            raise self._refusal(
                f"update transaction {version} arrived after {self._newest}"
            )
        writes = txn.writes
        for written in writes.values():
            if written != version:
                raise self._refusal(
                    f"write version {written} differs from txn version {version}"
                )

        # Reads first: a transaction that reads and overwrites the same
        # version is then the last entry of that key's pending list.
        keys = self._keys
        predecessors: dict[TxnId, None] = {}
        edges: list[TxnId] = []
        for key, observed in txn.reads.items():
            state = keys.get(key)
            if state is None:
                state = keys[key] = ([], [])
            chain, pending = state
            tail = chain[-1] if chain else 0
            if observed == tail:
                pending.append(version)
                if observed:
                    predecessors[observed] = None  # WR
            elif observed < tail:
                index = bisect_right(chain, observed)
                edges.append(chain[index])  # RW of a stale read: descends
                if index and chain[index - 1] == observed:
                    predecessors[observed] = None  # WR
            else:
                self._withdraw(txn, key)
                raise self._refusal(
                    f"update transaction {version} reads {key!r} @ {observed},"
                    " whose writer is not recorded"
                )
        self._newest = version
        self.update_count += 1
        for key in writes:
            state = keys.get(key)
            if state is None:
                keys[key] = ([version], [])
                continue
            chain, pending = state
            if chain:
                predecessors[chain[-1]] = None  # WW
            if pending:
                if pending[-1] == version:
                    del pending[-1]
                for reader in pending:
                    predecessors[reader] = None  # RW
                pending.clear()
            chain.append(version)
        adjacency = self._adjacency
        for predecessor in predecessors:
            adjacency[predecessor].append(version)
        adjacency[version] = sorted(set(edges)) if len(edges) > 1 else edges

    def _withdraw(self, txn: CommittedTransaction, refused: Key) -> None:
        """Undo what the reads of ``txn`` up to ``refused`` changed.

        Those reads joined pending lists and opened states for unseen keys;
        a recorded state never has both its chain and its pending list
        empty, so an emptied one was opened here.
        """
        keys = self._keys
        for key in txn.reads:
            chain, pending = keys[key]
            if pending and pending[-1] == txn.txn_id:
                del pending[-1]
            if not chain and not pending:
                del keys[key]
            if key == refused:
                return

    def _refusal(self, message: str) -> SimulationError:
        where = f" in namespace {self.namespace!r}" if self.namespace else ""
        return SimulationError(message + where)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def writer_of(self, key: Key, version: Version) -> TxnId | None:
        """The update transaction that installed ``(key, version)``.

        Version 0 entries come from the initial load and have no writer.
        """
        if version == 0:
            return None
        state = self._keys.get(key)
        chain = state[0] if state is not None else ()
        index = bisect_right(chain, version)
        if not (index and chain[index - 1] == version):
            raise SimulationError(f"no recorded writer for {key!r} @ {version}")
        return version

    def next_writer(self, key: Key, version: Version) -> TxnId | None:
        """The earliest transaction that overwrote ``(key, version)``."""
        state = self._keys.get(key)
        if state is None:
            return None
        chain = state[0]
        index = bisect_right(chain, version)
        if index == len(chain):
            return None
        return chain[index]

    def is_consistent(self, reads: Mapping[Key, Version]) -> bool:
        """Whether a read-only transaction observing ``reads`` serializes.

        ``reads`` maps each key to the version observed. Empty and
        single-read transactions are trivially consistent (per-object reads
        always see some committed version).
        """
        self.checks += 1
        if len(reads) <= 1:
            return True

        # One pass resolves both ends of the search: the writer of each
        # version read (it must sit in the key's chain) and its next writer.
        keys = self._keys
        writers: set[TxnId] = set()
        starts: set[TxnId] = set()
        for key, version in reads.items():
            state = keys.get(key)
            chain = state[0] if state is not None else ()
            tail = chain[-1] if chain else 0
            if version != tail:
                index = bisect_right(chain, version)
                if version and not (index and chain[index - 1] == version):
                    raise SimulationError(
                        f"no recorded writer for {key!r} @ {version}"
                    )
                starts.add(chain[index])
            if version:
                writers.add(version)
        if not writers or not starts:
            return True
        bound = max(writers)

        # BFS over the prebuilt conflict adjacency; lists ascend, so the
        # first successor above the bound ends the scan of a list.
        frontier = [txn for txn in starts if txn <= bound]
        visited: set[TxnId] = set(frontier)
        adjacency = self._adjacency
        expansions = 0
        try:
            while frontier:
                node = frontier.pop()
                if node in writers:
                    return False
                expansions += 1
                for successor in adjacency[node]:
                    if successor > bound:
                        break
                    if successor not in visited:
                        visited.add(successor)
                        frontier.append(successor)
            return True
        finally:
            self.expansions += expansions

    def explain_inconsistency(
        self, reads: Mapping[Key, Version]
    ) -> tuple[Key, Key] | None:
        """A witness pair (stale key, fresh key) when ``reads`` is
        inconsistent, for diagnostics and tests; None when consistent.

        One bounded BFS per distinct start (memoised across stale keys)
        instead of one per (stale, fresh) pair: conflict edges ascend in
        version, so a single reachable-set walk capped at the largest writer
        version answers every fresh-key probe for that start. Keeps the
        first-witness-in-read-order contract of the pairwise original.
        """
        if not reads:
            return None
        writer_keys: list[tuple[TxnId, Key]] = []
        bound = 0
        for fresh_key, fresh_version in reads.items():
            writer = self.writer_of(fresh_key, fresh_version)
            if writer is not None:
                writer_keys.append((writer, fresh_key))
                if writer > bound:
                    bound = writer
        if not writer_keys:
            return None

        reachable_from: dict[TxnId, set[TxnId]] = {}
        for stale_key, stale_version in reads.items():
            start = self.next_writer(stale_key, stale_version)
            if start is None:
                continue
            reached = reachable_from.get(start)
            if reached is None:
                adjacency = self._adjacency
                reached = {start}
                frontier = [start] if start <= bound else []
                while frontier:
                    node = frontier.pop()
                    for successor in adjacency[node]:
                        if successor > bound:
                            break
                        if successor not in reached:
                            reached.add(successor)
                            frontier.append(successor)
                reachable_from[start] = reached
            for writer, fresh_key in writer_keys:
                if writer in reached:
                    return (stale_key, fresh_key)
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _successors(self, txn_id: TxnId) -> Iterable[TxnId]:
        """Outgoing conflict edges of an update transaction, ascending.

        The union over keys of WW/WR/RW conflicts, each successor once;
        empty for an unrecorded transaction.
        """
        return self._adjacency.get(txn_id, ())

    def _reaches(self, start: TxnId, target: TxnId) -> bool:
        """Reachability in the conflict DAG, pruned at ``target``.

        Every conflict edge ascends in version, so nodes above ``target``
        can never lead back to it.
        """
        if start == target:
            return True
        frontier = [start] if start < target else []
        visited = {start}
        while frontier:
            for successor in self._successors(frontier.pop()):
                if successor >= target:
                    if successor == target:
                        return True
                    break
                if successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        return False

    def verify_update_dag(self) -> bool:
        """Assert every conflict edge increases the version (DAG witness)."""
        return all(
            successor > txn_id
            for txn_id, successors in self._adjacency.items()
            for successor in successors
        )
