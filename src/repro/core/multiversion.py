"""Multiversion T-Cache: the §VI extension borrowed from TxCache.

"To improve the commit rate for read-only transactions, [TxCache] uses
multiversioning, where the cache holds several versions of an object and
enables the cache to choose a version that allows a transaction to commit.
This technique could also be used with our solution." (§VI-c)

This module implements that combination. The cache retains a short history
of versions per object (instead of only the latest). When a read would fail
Equation 1 — the incoming object's dependency list proves an *earlier* read
stale, which no read-through can repair — the cache searches its history for
an **older version of the incoming object** that satisfies every recorded
requirement and whose dependency list raises no new violation. Serving that
version keeps the transaction on a consistent (if slightly stale) snapshot
instead of aborting it.

Equation 2 violations (the incoming object itself is too old) are handled
with a read-through exactly like RETRY: only a *newer* version can satisfy
them, and the database has it.
"""

from __future__ import annotations

from collections import deque

from repro.cache.base import BackendReader
from repro.core.detector import InconsistencyReport, check_read
from repro.core.records import TransactionContext
from repro.core.strategies import Strategy
from repro.core.tcache import TCache
from repro.errors import ConfigurationError
from repro.sim.core import Simulator
from repro.types import (
    DepEntry,
    Key,
    ReadOnlyTransactionRecord,
    TxnId,
    VersionedValue,
)

__all__ = ["MultiversionTCache"]


class MultiversionTCache(TCache):
    """T-Cache that retains per-object version history to avoid aborts.

    ``history_depth`` bounds the retained versions per key (the newest one
    lives in the regular storage; older ones in the history ring). The
    strategy is effectively RETRY plus version selection; the inherited
    ``strategy`` attribute is fixed to RETRY for the Equation 2 path.
    """

    def __init__(
        self,
        sim: Simulator,
        backend: BackendReader,
        *,
        history_depth: int = 3,
        capacity: int | None = None,
        deplist_limit: int | None = None,
        name: str = "mv-t-cache",
    ) -> None:
        if history_depth < 1:
            raise ConfigurationError(
                f"history_depth must be >= 1, got {history_depth}"
            )
        super().__init__(
            sim,
            backend,
            strategy=Strategy.RETRY,
            capacity=capacity,
            deplist_limit=deplist_limit,
            name=name,
        )
        self.history_depth = history_depth
        self._history: dict[Key, deque[VersionedValue]] = {}
        #: Transactions saved from an Equation 1 abort by an older version.
        self.multiversion_serves = 0

    # ------------------------------------------------------------------
    # History maintenance
    # ------------------------------------------------------------------

    def _remember(self, entry: VersionedValue) -> None:
        history = self._history.get(entry.key)
        if history is None:
            history = deque(maxlen=self.history_depth)
            self._history[entry.key] = history
        if not any(kept.version == entry.version for kept in history):
            history.append(entry)

    def _fetch(self, key: Key) -> VersionedValue:
        entry = super()._fetch(key)
        self._remember(entry)
        return entry

    def read(self, txn_id: TxnId, key: Key, last_op: bool = False):
        # Every served entry enters the history, including plain hits, so
        # superseded versions stay findable after invalidations evict them
        # from the primary storage.
        cached = self.storage.get(key, self._sim.now)
        if cached is not None:
            self._remember(cached)
        return super().read(txn_id, key, last_op)

    def candidate_versions(self, key: Key) -> list[VersionedValue]:
        """Retained versions of ``key``, newest first."""
        history = self._history.get(key, ())
        return sorted(history, key=lambda entry: entry.version, reverse=True)

    # ------------------------------------------------------------------
    # Violation handling
    # ------------------------------------------------------------------

    def _handle_violation(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        context: TransactionContext,
        entry: VersionedValue,
        deps: tuple[DepEntry, ...],
        report: InconsistencyReport,
    ) -> tuple[VersionedValue, bool]:
        if not report.stale_read_is_current:
            # Equation 1: the fresh incoming entry indicts an earlier read.
            # An *older* retained version of the incoming object may satisfy
            # every requirement without raising the new one.
            for candidate in self.candidate_versions(entry.key):
                if candidate.version >= entry.version:
                    continue
                candidate_deps = self._deps_of(candidate)
                if check_read(context, candidate.key, candidate.version, candidate_deps) is None:
                    self.multiversion_serves += 1
                    context.record_read(
                        candidate.key, candidate.version, candidate_deps
                    )
                    return candidate, False
        return super()._handle_violation(
            txn_id, record, context, entry, deps, report
        )
