"""Cache storage and the consistency-unaware cache server.

The storage keeps, per key, the full :class:`~repro.types.VersionedValue`
shipped by the database — value, version, dependency list — because T-Cache
needs the extra two fields (§III-B: "the caches read from the database not
only the object's value, but also its version and the dependency list").

The :class:`CacheServer` here is the paper's baseline: it answers reads from
local storage, falls through to the database on misses, applies asynchronous
invalidations, and performs *no* consistency checking. It nevertheless speaks
the same transactional interface ``read(txn_id, key, last_op)`` so that the
experiment clients and the consistency monitor treat every cache variant
uniformly; for the baseline the transaction id only delimits the read set
reported to the monitor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.errors import SimulationError
from repro.sim.core import Simulator

if TYPE_CHECKING:
    # Imported lazily to avoid a package-level import cycle: repro.db pulls
    # in repro.core (dependency lists), which pulls in this module.
    from repro.db.invalidation import InvalidationRecord
from repro.types import (
    Key,
    ReadOnlyTransactionRecord,
    ReadResult,
    TransactionOutcome,
    TxnId,
    VersionedValue,
)

__all__ = ["BackendReader", "CacheServer", "CacheStats", "CacheStorage"]

_tuple_new = tuple.__new__


class BackendReader(Protocol):
    """What a cache needs from the database: lock-free single-entry reads."""

    def read_entry(self, key: Key) -> VersionedValue: ...


@dataclass(slots=True)
class CacheStats:
    """Counters every cache variant maintains."""

    reads: int = 0
    hits: int = 0
    misses: int = 0
    #: Re-reads performed by the RETRY strategy (also database accesses).
    retries: int = 0
    invalidations_received: int = 0
    invalidations_applied: int = 0
    #: Invalidations that arrived late (entry already newer) or for keys not
    #: currently cached.
    invalidations_ignored: int = 0
    ttl_expirations: int = 0
    capacity_evictions: int = 0
    #: Evictions performed by the EVICT / RETRY strategies.
    strategy_evictions: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.reads if self.reads else 0.0

    @property
    def db_accesses(self) -> int:
        """Reads this cache pushed to the backend database."""
        return self.misses + self.retries


class CacheStorage:
    """Key -> versioned entry map with optional TTL and capacity LRU.

    The paper's experiments size the cache so "all objects in the workload
    fit in the cache"; capacity eviction exists because the EVICT/RETRY
    strategies and deployments beyond the paper need it, and is disabled by
    default.
    """

    def __init__(self, *, ttl: float | None = None, capacity: int | None = None) -> None:
        self._entries: OrderedDict[Key, tuple[VersionedValue, float]] = OrderedDict()
        self.ttl = ttl
        self.capacity = capacity
        self.stats = CacheStats()
        #: Telemetry handle installed by the owning CacheServer when a trace
        #: capture is active; storage has no simulator handle of its own, but
        #: every mutating call already receives ``now``.
        self._tracer = None

    def get(self, key: Key, now: float) -> VersionedValue | None:
        """The cached entry, or None when absent or expired."""
        slot = self._entries.get(key)
        if slot is None:
            return None
        if self.ttl is not None and now - slot[1] >= self.ttl:
            del self._entries[key]
            self.stats.ttl_expirations += 1
            if self._tracer is not None:
                self._tracer.emit(now, "cache", "evict_ttl", {"key": key})
            return None
        if self.capacity is not None:
            # Recency order only drives capacity eviction; unbounded caches
            # (the paper's configuration) skip the bookkeeping.
            self._entries.move_to_end(key)
        return slot[0]

    def put(self, entry: VersionedValue, now: float) -> None:
        existing = self._entries.get(entry.key)
        if existing is not None and existing[0].version > entry.version:
            # A concurrent invalidation-and-refetch already installed a newer
            # version; never go backwards.
            return
        self._entries[entry.key] = (entry, now)
        if self.capacity is not None:
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self.stats.capacity_evictions += 1
                if self._tracer is not None:
                    self._tracer.emit(
                        now, "cache", "evict_capacity", {"key": evicted_key}
                    )

    def invalidate(self, key: Key, version: int) -> bool:
        """Drop the entry if the cached copy is older than ``version``."""
        slot = self._entries.get(key)
        if slot is None:
            return False
        if slot[0].version >= version:
            return False
        del self._entries[key]
        return True

    def evict(self, key: Key) -> bool:
        """Unconditional removal (strategy evictions)."""
        return self._entries.pop(key, None) is not None

    def version_of(self, key: Key) -> int | None:
        slot = self._entries.get(key)
        return slot[0].version if slot else None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries


class CacheServer:
    """Consistency-unaware edge cache (the §II baseline).

    Subclasses (notably :class:`~repro.core.tcache.TCache`) override
    :meth:`_check_read` to add consistency enforcement.
    """

    def __init__(
        self,
        sim: Simulator,
        backend: BackendReader,
        *,
        ttl: float | None = None,
        capacity: int | None = None,
        name: str = "cache",
    ) -> None:
        self._sim = sim
        self._backend = backend
        #: Version namespace of the backend this cache reads from; ``None``
        #: for backends (test doubles) that don't declare one. Versions are
        #: only comparable within one namespace, so every dependency check
        #: this cache performs is implicitly keyed by ``(backend, version)``.
        self.backend_namespace: str | None = getattr(backend, "namespace", None)
        self.name = name
        self.storage = CacheStorage(ttl=ttl, capacity=capacity)
        #: The run's tracer, or None untraced — read once here, so every
        #: per-read site (this class's and each protocol's) tests one attribute.
        self._tracer = self.storage._tracer = sim.tracer
        self.stats = self.storage.stats
        self._open_txns: dict[TxnId, ReadOnlyTransactionRecord] = {}
        self._txn_listeners: list[Callable[[ReadOnlyTransactionRecord], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def add_transaction_listener(
        self, listener: Callable[[ReadOnlyTransactionRecord], None]
    ) -> None:
        """Observer for finished read-only transactions (the monitor)."""
        self._txn_listeners.append(listener)

    def handle_invalidation(self, record: InvalidationRecord) -> None:
        """Invalidation upcall registered with the database (§IV).

        In a routed backend tier each cache subscribes to its own backend's
        stream only; a record stamped with a foreign version namespace means
        the wiring crossed backends, and honouring it would compare
        incomparable versions — so it is rejected loudly.
        """
        namespace = getattr(record, "namespace", None)
        if (
            self.backend_namespace is not None
            and namespace is not None
            and namespace != self.backend_namespace
        ):
            raise SimulationError(
                f"cache {self.name!r} (backend namespace "
                f"{self.backend_namespace!r}) received an invalidation from "
                f"namespace {namespace!r}"
            )
        self.stats.invalidations_received += 1
        applied = self.storage.invalidate(record.key, record.version)
        if applied:
            self.stats.invalidations_applied += 1
        else:
            self.stats.invalidations_ignored += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "cache",
                "invalidation",
                {
                    "cache": self.name,
                    "key": record.key,
                    "version": record.version,
                    "applied": applied,
                },
            )

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------

    def read(self, txn_id: TxnId, key: Key, last_op: bool = False) -> ReadResult:
        """Serve one transactional read.

        The baseline never aborts; T-Cache may raise
        :class:`~repro.errors.InconsistencyDetected` from its override of
        :meth:`_check_read`.
        """
        stats = self.stats
        stats.reads += 1
        # storage.get(key, now), inlined: this is the hottest loop of every
        # experiment, and the hit path is a single dict probe when neither
        # TTL nor capacity bookkeeping applies (the paper's configuration).
        storage = self.storage
        slot = storage._entries.get(key)
        entry = None
        if slot is not None:
            ttl = storage.ttl
            if ttl is not None and self._sim.now - slot[1] >= ttl:
                del storage._entries[key]
                stats.ttl_expirations += 1
                if storage._tracer is not None:
                    storage._tracer.emit(
                        self._sim.now, "cache", "evict_ttl", {"key": key}
                    )
            else:
                if storage.capacity is not None:
                    storage._entries.move_to_end(key)
                entry = slot[0]
        if entry is None:
            entry = self._fetch(key)
            cache_miss = True
        else:
            stats.hits += 1
            cache_miss = False

        open_txns = self._open_txns
        record = open_txns.get(txn_id)
        if record is None:
            record = ReadOnlyTransactionRecord(txn_id)
            open_txns[txn_id] = record

        entry, retried = self._check_read(txn_id, record, entry)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "cache",
                "serve",
                {
                    "cache": self.name,
                    "key": key,
                    "version": entry.version,
                    "hit": not cache_miss,
                    "retried": retried,
                },
            )
        version = entry.version
        reads = record.reads
        previous = reads.get(key)
        if previous is not None and previous != version:
            record.non_repeatable = True
        reads[key] = version
        if last_op:
            self._finish(txn_id, TransactionOutcome.COMMITTED)
        # ReadResult(...) without the generated ``__new__`` frame.
        return _tuple_new(ReadResult, (key, entry.value, version, cache_miss, retried))

    def abort_transaction(self, txn_id: TxnId) -> None:
        """Client-initiated abort of an open transaction."""
        if txn_id in self._open_txns:
            self._finish(txn_id, TransactionOutcome.ABORTED)

    @property
    def open_transactions(self) -> int:
        return len(self._open_txns)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _check_read(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        entry: VersionedValue,
    ) -> tuple[VersionedValue, bool]:
        """Consistency hook; the baseline accepts everything unchanged.

        Returns the (possibly replaced) entry and whether a read-through
        happened.
        """
        return entry, False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fetch(self, key: Key) -> VersionedValue:
        self.stats.misses += 1
        entry = self._backend.read_entry(key)
        self.storage.put(entry, self._sim.now)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "cache",
                "fetch",
                {"cache": self.name, "key": key, "version": entry.version},
            )
        return entry

    def _finish(self, txn_id: TxnId, outcome: TransactionOutcome) -> None:
        record = self._open_txns.pop(txn_id)
        record.context = None  # open-transaction state; listeners may keep the record
        record.outcome = outcome
        record.finish_time = self._sim.now
        if outcome is TransactionOutcome.COMMITTED:
            self.stats.transactions_committed += 1
        else:
            self.stats.transactions_aborted += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                record.finish_time,
                "cache",
                "txn_finish",
                {
                    "cache": self.name,
                    "txn": txn_id,
                    "outcome": outcome.name,
                    "reads": len(record.reads),
                },
            )
        for listener in self._txn_listeners:
            listener(record)
