"""Serialization graph testing for read-only edge transactions.

Theory
------
The backend uses strict two-phase locking and assigns versions from a global
commit-sequence counter, so every conflict edge between update transactions
(write-write, write-read, read-write on a common key) points from a lower
version to a higher version: the conflict graph of update transactions is a
DAG and the version order is a valid serialization. (This is asserted, not
assumed: :meth:`SerializationGraphTester.verify_update_dag` recomputes the
edge directions, and the database test suite calls it.)

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

Incremental adjacency
---------------------
The tester keeps every update transaction's outgoing conflict edges
(WW/WR/RW) as a prebuilt adjacency list — the precomputed-conflict idea of
Nagar & Jagannathan's violation detector — so ``is_consistent`` is a walk
over lists, O(1) in the history size (§V-B2). :meth:`record_update` builds
those lists on one of two paths, chosen only by what the arriving
transaction looks like:

* **Commit order** (the transaction is newer than everything recorded and
  reads nothing newer than its key's chain tail — what the backend emits,
  since versions come from its commit-sequence counter). Every edge the
  transaction creates then points *at* it, so recording only appends: per
  key there is one version chain and one ``pending`` list of readers still
  waiting for their overwriter; a write gives the chain tail its WW edge
  and each pending reader its RW edge, then clears ``pending`` in place; a
  read gives the writer of the observed version its WR edge. The one edge
  that leaves the new transaction is the RW edge of a *stale* read (an
  update transaction that observed an already-overwritten version), found
  with one ``bisect``; it descends, which is exactly what
  :meth:`verify_update_dag` reports. One new container per transaction.
* **Any other arrival** (an older ``txn_id``, or a read of a version whose
  writer has not been recorded yet) is only indexed; the adjacency is
  marked stale and the next query re-derives every chain and edge from the
  definition — next writer by ``bisect``, readers by ``(key, version)``.
  That costs O(history) per query that follows such an arrival, so
  ``reordered_count`` says how many arrivals took this path (0 for every
  producer in this repository).

Both paths leave every adjacency list **ascending** (a multiset: two
conflicts with the same endpoints, one per key, stay two entries — the
search dedupes through its visited set). A bounded search can therefore stop
scanning a list at the first successor above its bound.

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
        self._txns: dict[TxnId, CommittedTransaction] = {}
        #: Per key ``(chain, pending)``: the versions installed, ascending,
        #: and the update transactions whose read of that key has no
        #: overwriter yet (they take their RW edge from the next writer).
        self._keys: dict[Key, tuple[list[Version], list[TxnId]]] = {}
        #: Outgoing conflict edges (WW/WR/RW) per update transaction,
        #: ascending. Entries repeat when two conflicts share endpoints (one
        #: per conflicting key) — the BFS dedupes via its visited set.
        self._adjacency: dict[TxnId, list[TxnId]] = {}
        #: Largest transaction id recorded.
        self._newest: TxnId = 0
        #: True while ``_keys``/``_adjacency`` lag ``_txns`` (an arrival out
        #: of commit order); queries call :meth:`_derive` first.
        self._stale = False
        self.update_count = 0
        #: Arrivals that were not in commit order, or came while the
        #: adjacency was stale, and so await re-derivation by a query.
        self.reordered_count = 0
        self.checks = 0
        #: Total BFS node expansions, for overhead reporting.
        self.expansions = 0

    # ------------------------------------------------------------------
    # History construction
    # ------------------------------------------------------------------

    def record_update(self, txn: CommittedTransaction) -> None:
        """Add a committed update transaction to the history.

        O(reads + writes) appends for an arrival in commit order; anything
        else is indexed and left to the next query (module docstring).
        Nothing is recorded when the transaction is rejected.
        """
        version = txn.txn_id
        txns = self._txns
        if version in txns:
            where = f" in namespace {self.namespace!r}" if self.namespace else ""
            raise SimulationError(
                f"update transaction {version} recorded twice{where}"
            )
        writes = txn.writes
        for written in writes.values():
            if written != version:
                raise SimulationError(
                    f"write version {written} differs from txn version {version}"
                )
        txns[version] = txn
        self.update_count += 1
        if self._stale or version <= self._newest:
            self._stale = True
            self.reordered_count += 1
            return
        self._newest = version

        keys = self._keys
        adjacency = self._adjacency
        adjacency[version] = edges = []
        # Reads first: a transaction that reads and overwrites the same
        # version is then the last entry of that key's pending list.
        for key, observed in txn.reads.items():
            state = keys.get(key)
            if state is None:
                state = keys[key] = ([], [])
            chain, pending = state
            tail = chain[-1] if chain else 0
            if observed == tail:
                pending.append(version)
                if observed:
                    adjacency[observed].append(version)  # WR
            elif observed < tail:
                index = bisect_right(chain, observed)
                edges.append(chain[index])  # RW of a stale read: descends
                if index and chain[index - 1] == observed:
                    adjacency[observed].append(version)  # WR
            else:
                # Reads a version whose writer is not recorded yet; whatever
                # was appended above is discarded by the re-derivation.
                self._stale = True
                self.reordered_count += 1
                return
        if len(edges) > 1:
            edges.sort()
        for key in writes:
            state = keys.get(key)
            if state is None:
                keys[key] = ([version], [])
                continue
            chain, pending = state
            if chain:
                adjacency[chain[-1]].append(version)  # WW
            if pending:
                if pending[-1] == version:
                    del pending[-1]
                for reader in pending:
                    adjacency[reader].append(version)  # RW
                pending.clear()
            chain.append(version)

    def _derive(self) -> None:
        """Rebuild every chain, pending list and edge from the definition.

        The any-order path: WW to the next writer of each written key, WR to
        every other reader of each written version, RW from each read to the
        next writer of the version it observed.
        """
        txns = self._txns
        commit_order = sorted(txns)
        keys: dict[Key, tuple[list[Version], list[TxnId]]] = {}
        readers: dict[tuple[Key, Version], list[TxnId]] = {}
        for txn_id in commit_order:
            txn = txns[txn_id]
            for key in txn.writes:
                keys.setdefault(key, ([], []))[0].append(txn_id)
            for key, observed in txn.reads.items():
                keys.setdefault(key, ([], []))
                readers.setdefault((key, observed), []).append(txn_id)
        adjacency: dict[TxnId, list[TxnId]] = {}
        for txn_id in commit_order:
            txn = txns[txn_id]
            edges = adjacency[txn_id] = []
            for key in txn.writes:
                chain = keys[key][0]
                index = bisect_right(chain, txn_id)
                if index < len(chain):
                    edges.append(chain[index])  # WW
                for reader in readers.get((key, txn_id), ()):
                    if reader != txn_id:
                        edges.append(reader)  # WR
            for key, observed in txn.reads.items():
                chain, pending = keys[key]
                index = bisect_right(chain, observed)
                if index == len(chain):
                    pending.append(txn_id)
                elif chain[index] != txn_id:
                    edges.append(chain[index])  # RW
            edges.sort()
        self._keys = keys
        self._adjacency = adjacency
        self._newest = commit_order[-1]
        self._stale = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def writer_of(self, key: Key, version: Version) -> TxnId | None:
        """The update transaction that installed ``(key, version)``.

        Version 0 entries come from the initial load and have no writer.
        """
        if version == 0:
            return None
        txn = self._txns.get(version)
        if txn is None or key not in txn.writes:
            raise SimulationError(f"no recorded writer for {key!r} @ {version}")
        return version

    def next_writer(self, key: Key, version: Version) -> TxnId | None:
        """The earliest transaction that overwrote ``(key, version)``."""
        if self._stale:
            self._derive()
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
        if self._stale:
            self._derive()

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

        The multiset union over keys of WW/WR/RW conflicts (benign
        duplicates kept), empty for an unrecorded transaction.
        """
        if self._stale:
            self._derive()
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
        for txn_id in self._txns:
            for successor in self._successors(txn_id):
                if successor <= txn_id:
                    return False
        return True
