"""Public facade of the transactional key-value database.

This is the backend of the paper's Figure 2: update clients submit
transactions here; caches perform lock-free single-entry reads and receive
asynchronous invalidations for every object an update transaction modified.
Versions are global commit-sequence numbers, so the version order is a valid
serialization of the update transactions — the anchor for both the §III-A
dependency semantics and the consistency monitor's serialization-graph tests.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.deplist import UNBOUNDED, validate_pruning_policy
from repro.db.coordinator import Coordinator, TimingProfile, TransactionHandle
from repro.db.invalidation import InvalidationRecord
from repro.db.participant import Participant
from repro.db.wal import WriteAheadLog
from repro.errors import ConfigurationError
from repro.sim.channel import Channel
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.types import CommittedTransaction, Key, Version, VersionedValue

__all__ = ["Database", "DatabaseConfig", "TimingConfig", "DatabaseStats"]

# Re-exported under the historical name used throughout the experiments.
TimingConfig = TimingProfile


@dataclass(slots=True)
class DatabaseConfig:
    """Static configuration of the backend database.

    ``deplist_max`` is the paper's ``k`` — the bound on stored dependency
    lists. ``deplist_max=0`` disables dependency tracking entirely (the
    consistency-unaware baseline); :data:`~repro.core.deplist.UNBOUNDED`
    gives the Theorem 1 configuration.
    """

    shards: int = 1
    deplist_max: int = 5
    timing: TimingProfile = field(default_factory=TimingProfile)
    name: str = "db"
    #: Pruning order for dependency lists — "lru" (the paper), or the
    #: ablation alternatives "newest-version" / "random".
    pruning_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"need at least one shard, got {self.shards}")
        if self.deplist_max != UNBOUNDED and self.deplist_max < 0:
            raise ConfigurationError(
                f"deplist_max must be >= 0 or UNBOUNDED, got {self.deplist_max}"
            )
        validate_pruning_policy(self.pruning_policy)


@dataclass(slots=True)
class DatabaseStats:
    """Counters the experiments report."""

    committed: int = 0
    aborted: int = 0
    #: Lock-free single-entry reads served (the cache-miss traffic).
    entry_reads: int = 0
    invalidations_sent: int = 0

    @property
    def total_transactions(self) -> int:
        return self.committed + self.aborted


class Database:
    """A sharded transactional key-value store with dependency tracking."""

    def __init__(self, sim: Simulator, config: DatabaseConfig | None = None) -> None:
        self._sim = sim
        #: The run's tracer (None untraced), read once at construction.
        self._tracer = sim.tracer
        self.config = config or DatabaseConfig()
        self.participants = [
            Participant(sim, f"{self.config.name}-shard{i}")
            for i in range(self.config.shards)
        ]
        #: Placement already computed, by key (see :meth:`shard_for`: every
        #: cache miss and every key of every transaction asks).
        self._shard_of: dict[Key, Participant] = {}
        self._txn_counter = itertools.count(1)
        self._version_counter = itertools.count(1)
        self._latest_version: Version = 0
        #: §VII extensions: per-object list bounds and pinned dependencies.
        self._deplist_bounds: dict[Key, int] = {}
        self._pinned_deps: dict[Key, frozenset[Key]] = {}
        self.coordinator = Coordinator(
            sim,
            self.shard_for,
            timing=self.config.timing,
            allocate_version=self._allocate_version,
            deplist_max=self.config.deplist_max,
            wal=WriteAheadLog(name=f"{self.config.name}-coordinator-wal"),
            deplist_bound_for=self._deplist_bounds.get,
            pinned_for=self._pinned_for,
            pruning_policy=self.config.pruning_policy,
        )
        self.stats = DatabaseStats()
        self._invalidation_channels: list[Channel] = []
        self._commit_listeners: list[Callable[[CommittedTransaction], None]] = []

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def load(self, initial: Mapping[Key, object]) -> None:
        """Bulk-load the initial objects (version 0, empty dependencies)."""
        per_shard: dict[str, dict[Key, object]] = {}
        for key, value in initial.items():
            shard = self.shard_for(key)
            per_shard.setdefault(shard.name, {})[key] = value
        for participant in self.participants:
            participant.store.load(per_shard.get(participant.name, {}))

    def register_invalidation_channel(self, channel: Channel) -> None:
        """Attach a cache's invalidation upcall channel (§IV)."""
        self._invalidation_channels.append(channel)

    def add_commit_listener(self, listener: Callable[[CommittedTransaction], None]) -> None:
        """Observer for committed update transactions (the monitor taps in)."""
        self._commit_listeners.append(listener)

    # ------------------------------------------------------------------
    # §VII extensions
    # ------------------------------------------------------------------

    def set_deplist_bound(self, key: Key, bound: int) -> None:
        """Override the dependency-list bound for one object (§VII).

        "If the workload accesses objects in clusters of different sizes,
        objects of larger clusters call for longer dependency lists" — this
        lets the operator spend the space budget unevenly.
        """
        if bound != UNBOUNDED and bound < 0:
            raise ConfigurationError(f"bound must be >= 0 or UNBOUNDED, got {bound}")
        self._deplist_bounds[key] = bound

    def pin_dependency(self, carrier: Key, dependency: Key) -> None:
        """Declare ``dependency`` semantically important for ``carrier``.

        §VII: "the application could explicitly inform the cache of relevant
        object dependencies, and those could then be treated as more
        important and retained, while other less important ones are managed
        by some other policy such as LRU." Pinned entries outrank every
        other entry when ``carrier``'s dependency list is pruned.
        """
        current = self._pinned_deps.get(carrier, frozenset())
        self._pinned_deps[carrier] = current | {dependency}

    def _pinned_for(self, key: Key) -> frozenset[Key]:
        return self._pinned_deps.get(key, frozenset())

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def execute_update(
        self,
        read_keys: Sequence[Key],
        writes: Mapping[Key, object] | None = None,
        *,
        write_keys: Iterable[Key] | None = None,
        compute: Callable[[dict[Key, VersionedValue]], Mapping[Key, object]] | None = None,
    ) -> Process:
        """Run an update transaction; returns its simulation process.

        Either pass the new values directly via ``writes`` or declare
        ``write_keys`` and a ``compute`` function receiving the read
        entries. The process's value on success is the
        :class:`CommittedTransaction`; on abort the process fails with
        :class:`~repro.errors.TransactionAborted`.
        """
        if (writes is None) == (compute is None):
            raise ConfigurationError("pass exactly one of writes= or compute=")
        if writes is not None:
            write_keys = tuple(writes)
            payload = dict(writes)
            compute_fn = lambda _reads: payload  # noqa: E731 - trivial closure
        else:
            if write_keys is None:
                raise ConfigurationError("compute= requires write_keys=")
            write_keys = tuple(dict.fromkeys(write_keys))
            compute_fn = compute

        read_keys = tuple(dict.fromkeys(read_keys))
        txn_id = next(self._txn_counter)
        handle = TransactionHandle(
            txn_id=txn_id,
            age=txn_id,
            read_keys=read_keys,
            write_keys=write_keys,
            keys=tuple(dict.fromkeys(read_keys + write_keys)),
            compute=compute_fn,
            start_time=self._sim.now,
        )
        return self._sim.process(self._transaction_process(handle))

    def _transaction_process(self, handle: TransactionHandle):
        try:
            outcome = yield from self.coordinator.run_transaction(handle)
        except GeneratorExit:
            # The process generator is being reaped (simulation ended with
            # the transaction in flight and the interpreter collected it) —
            # that is teardown, not an abort, and counting it would mutate
            # the stats object after results were already collected.
            raise
        except BaseException:
            self.stats.aborted += 1
            raise
        self.stats.committed += 1
        self._publish_commit(outcome.committed, outcome.installed)
        return outcome.committed

    def _publish_commit(
        self, committed: CommittedTransaction, installed: tuple[VersionedValue, ...]
    ) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "db",
                "commit",
                {
                    "backend": self.namespace,
                    "txn": committed.txn_id,
                    "writes": len(installed),
                },
            )
        for listener in self._commit_listeners:
            listener(committed)
        for entry in installed:
            record = InvalidationRecord(
                key=entry.key,
                version=entry.version,
                txn_id=committed.txn_id,
                commit_time=self._sim.now,
                namespace=self.namespace,
            )
            for channel in self._invalidation_channels:
                channel.send(record)
                self.stats.invalidations_sent += 1

    # ------------------------------------------------------------------
    # Cache-facing reads
    # ------------------------------------------------------------------

    def read_entry(self, key: Key) -> VersionedValue:
        """Lock-free read of the current committed entry (cache-miss path)."""
        self.stats.entry_reads += 1
        entry = self.shard_for(key).read_latest(key)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "db",
                "entry_read",
                {"backend": self.namespace, "key": key, "version": entry.version},
            )
        return entry

    # ------------------------------------------------------------------
    # Topology and versions
    # ------------------------------------------------------------------

    @property
    def namespace(self) -> str:
        """This backend's version namespace (its configured name).

        Versions are commit-sequence numbers allocated per backend, so they
        are only ordered within one namespace; the consistency monitor keys
        serialization-graph edges by ``(namespace, version)`` and caches
        reject invalidations stamped with a foreign namespace.
        """
        return self.config.name

    def shard_for(self, key: Key) -> Participant:
        """The participant that stores ``key`` (stable hash placement).

        Uses CRC-32 of the encoded key, not builtin ``hash``: the builtin
        is salted per process, which would place keys differently in every
        ``multiprocessing`` sweep worker and break the serial ≡ parallel
        determinism guarantee for multi-shard backends. The participant
        list is fixed at construction, so an answer is computed once per key.
        """
        if len(self.participants) == 1:
            return self.participants[0]
        shard = self._shard_of.get(key)
        if shard is None:
            index = zlib.crc32(key.encode("utf-8")) % len(self.participants)
            shard = self._shard_of[key] = self.participants[index]
        return shard

    def _allocate_version(self) -> Version:
        version = next(self._version_counter)
        self._latest_version = version
        return version

    @property
    def latest_version(self) -> Version:
        return self._latest_version

    def current_version_of(self, key: Key) -> Version:
        """The committed version of ``key`` (diagnostics and tests)."""
        return self.shard_for(key).store.version_of(key)
