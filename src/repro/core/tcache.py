"""The T-Cache server: a transactional read-only interface over an edge cache.

This is the architecture of §III. The cache interacts with the database
exactly like a consistency-unaware cache — single-entry reads on misses,
asynchronous (lossy) invalidation upcalls — but additionally stores each
object's version and dependency list, keeps a record per open read-only
transaction, and checks every read against the §III-B equations. A detected
violation triggers the configured :class:`~repro.core.strategies.Strategy`.

Detection is *best effort*: bounded dependency lists can omit the entry that
would reveal a violation, in which case a stale value slips through — the
consistency monitor quantifies how often. With unbounded lists and an
unbounded cache, no violation escapes (Theorem 1; property-tested in
``tests/property/test_theorem1.py``).
"""

from __future__ import annotations

from repro.cache.base import BackendReader, CacheServer
from repro.core.detector import InconsistencyReport, check_equation1, check_read
from repro.core.records import TransactionContext
from repro.core.strategies import Strategy
from repro.errors import ConfigurationError, InconsistencyDetected
from repro.sim.core import Simulator
from repro.types import (
    DepEntry,
    Key,
    ReadOnlyTransactionRecord,
    TransactionOutcome,
    TxnId,
    VersionedValue,
)

__all__ = ["TCache"]


class TCache(CacheServer):
    """Transaction-aware edge cache with dependency-based detection.

    Parameters mirror the paper's experimental knobs:

    * ``strategy`` — reaction to a detected inconsistency (§III-B).
    * ``capacity`` — optional entry bound; ``None`` reproduces the paper's
      "all objects fit" setting.
    * ``ttl`` — optional entry lifetime, usually ``None`` for T-Cache (the
      TTL baseline lives in :class:`~repro.cache.ttl.TTLCache`); the knob
      exists so hybrid configurations can be explored.
    * ``deplist_limit`` — optional per-cache cap on how many shipped
      dependency entries this cache *consults* (§VII: heterogeneous list
      bounds across edges). The database's bound caps what is stored and
      shipped; this caps what the edge checks. ``None`` consults everything.
    """

    def __init__(
        self,
        sim: Simulator,
        backend: BackendReader,
        *,
        strategy: Strategy = Strategy.ABORT,
        ttl: float | None = None,
        capacity: int | None = None,
        deplist_limit: int | None = None,
        name: str = "t-cache",
    ) -> None:
        if deplist_limit is not None and deplist_limit < 0:
            raise ConfigurationError(
                f"deplist_limit must be >= 0 or None, got {deplist_limit}"
            )
        super().__init__(sim, backend, ttl=ttl, capacity=capacity, name=name)
        self.strategy = strategy
        self.deplist_limit = deplist_limit
        #: Violations detected, by equation, for the experiment reports.
        self.detections_eq1 = 0
        self.detections_eq2 = 0
        #: Equation 2 violations repaired in place by RETRY.
        self.retries_resolved = 0

    # ------------------------------------------------------------------
    # Consistency hook
    # ------------------------------------------------------------------

    def _check_read(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        entry: VersionedValue,
    ) -> tuple[VersionedValue, bool]:
        context = record.context
        if context is None:
            context = record.context = TransactionContext(txn_id, self._sim.now)

        # One frame per hit besides ``check_read``: ``_deps_of`` and
        # ``TransactionContext.record_read`` are inlined here (they remain
        # the documented forms, as ``detector.py`` keeps its three checks).
        key, _, version, deps = entry
        limit = self.deplist_limit
        if limit is not None:
            deps = deps[:limit]
        report = check_read(context, key, version, deps)
        if report is not None:
            return self._handle_violation(
                txn_id, record, context, entry, deps, report
            )
        context.read_count += 1
        read_versions = context.read_versions
        prior = read_versions.get(key)
        if prior is None or version > prior:
            read_versions[key] = version
        requirements = context.requirements
        current = requirements.get(key)
        if current is None or version > current[0]:
            requirements[key] = (version, key)
        for dep_key, dep_version in deps:
            current = requirements.get(dep_key)
            if current is None or dep_version > current[0]:
                requirements[dep_key] = (dep_version, key)
        return entry, False

    def _handle_violation(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        context: TransactionContext,
        entry: VersionedValue,
        deps: tuple[DepEntry, ...],
        report: InconsistencyReport,
    ) -> tuple[VersionedValue, bool]:
        self._count_detection(report)

        if self.strategy.reads_through and report.stale_read_is_current:
            # RETRY, Equation 2: the cached copy of the object being read is
            # stale — treat the access as a miss and serve it fresh.
            fresh = self._read_through(entry.key)
            fresh_deps = self._deps_of(fresh)
            # The fresh copy can still prove an *earlier* read stale.
            followup = check_equation1(context, fresh.key, fresh_deps)
            if followup is None:
                self.retries_resolved += 1
                context.record_read(fresh.key, fresh.version, fresh_deps)
                return fresh, True
            self._count_detection(followup)
            self._evict_stale(followup.stale_key)
            self._abort_with(txn_id, record, fresh.key, fresh.version, followup)

        if self.strategy.evicts_stale_entries:
            # EVICT always; RETRY for Equation 1 ("evict the stale object and
            # abort the transaction, as in EVICT").
            self._evict_stale(report.stale_key)

        self._abort_with(txn_id, record, entry.key, entry.version, report)
        raise AssertionError("unreachable")  # pragma: no cover

    def _deps_of(self, entry: VersionedValue) -> tuple[DepEntry, ...]:
        """The dependency entries this cache consults for ``entry``.

        The stored tuple itself — the §III-B checks only iterate it. With a
        ``deplist_limit`` only the first ``limit`` shipped entries are
        checked — lists arrive most-relevant-first under the database's
        pruning policy (most-recently-used first for the paper's LRU).
        """
        if self.deplist_limit is None:
            return entry.deps
        return entry.deps[: self.deplist_limit]

    # ------------------------------------------------------------------
    # Strategy actions
    # ------------------------------------------------------------------

    def _read_through(self, key: Key) -> VersionedValue:
        self.stats.retries += 1
        fresh = self._backend.read_entry(key)
        self.storage.put(fresh, self._sim.now)
        return fresh

    def _evict_stale(self, key: Key) -> None:
        if self.storage.evict(key):
            self.stats.strategy_evictions += 1

    def _abort_with(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        observed_key: Key,
        observed_version: int,
        report: InconsistencyReport,
    ) -> None:
        """Abort the transaction, reporting the full observed read set.

        The violating read never reaches the client, but its observed
        version is part of the evidence the monitor uses to classify the
        abort as necessary or unnecessary, so it is folded into the record.
        """
        record.reads.setdefault(observed_key, observed_version)
        self._finish(txn_id, TransactionOutcome.ABORTED)
        raise InconsistencyDetected(
            txn_id,
            report.stale_key,
            report.found_version,
            report.required_version,
            stale_read_is_current=report.stale_read_is_current,
        )

    def _count_detection(self, report: InconsistencyReport) -> None:
        if report.equation == 1:
            self.detections_eq1 += 1
        else:
            self.detections_eq2 += 1

    @property
    def detections(self) -> int:
        return self.detections_eq1 + self.detections_eq2
