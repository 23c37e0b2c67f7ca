"""Shared value types for the T-Cache reproduction.

The paper's protocol (§III-A) revolves around three pieces of per-object
state: a *value*, a *version* (the id of the update transaction that wrote
it), and a bounded *dependency list* of ``(object id, version)`` pairs. The
types here give those a concrete, hashable shape shared by the database, the
caches, the consistency monitor and the workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple

__all__ = [
    "Key",
    "Version",
    "TxnId",
    "INITIAL_VERSION",
    "DepEntry",
    "VersionedValue",
    "ReadResult",
    "TransactionOutcome",
    "CommittedTransaction",
]

#: Object identifier. The paper uses integers for synthetic workloads and
#: graph node ids for realistic ones; strings subsume both.
Key = str

#: Version number: the id of the update transaction that most recently wrote
#: the object. Totally ordered (§III-A).
Version = int

#: Transaction identifier; update transactions double as versions.
TxnId = int

#: Version of an object that has never been written by an update transaction
#: (i.e., was part of the initial database load).
INITIAL_VERSION: Version = 0


class DepEntry(NamedTuple):
    """One ``(object id, version)`` dependency (§III-A).

    A transaction that sees the carrier object's current version must not see
    ``key`` with a version smaller than ``version``.

    A ``NamedTuple`` rather than a frozen dataclass: entries are created on
    every commit-time merge and wrapped on every transactional read, and
    tuple construction is several times cheaper than ``object.__setattr__``
    per field.
    """

    key: Key
    version: Version

    def subsumes(self, other: "DepEntry") -> bool:
        """Whether this entry makes ``other`` redundant.

        §III-A: "A list entry can be discarded if the same entry's object
        appears in another entry with a larger version."
        """
        return self.key == other.key and self.version >= other.version


class VersionedValue(NamedTuple):
    """A value as stored in the database and shipped to caches.

    ``deps`` is the pruned dependency list that the database stored with the
    object at commit time; caches persist it verbatim and consult it on every
    transactional read. (A ``NamedTuple`` for cheap per-commit construction.)
    """

    key: Key
    value: object
    version: Version
    deps: tuple[DepEntry, ...] = ()

    def dep_on(self, key: Key) -> Version | None:
        """The minimum version of ``key`` this value requires, if any."""
        best: Version | None = None
        for entry in self.deps:
            if entry.key == key and (best is None or entry.version > best):
                best = entry.version
        return best


class ReadResult(NamedTuple):
    """Outcome of a single transactional cache read.

    Built once per cache read — the hottest allocation in a column run —
    hence a ``NamedTuple``, and hence ``CacheServer.read`` builds it with
    ``tuple.__new__(ReadResult, (key, value, version, cache_miss, retried))``:
    the generated ``__new__`` is a Python-level function, and going through
    it (by keyword most of all) costs several times the tuple itself for a
    value the read client drops. Everywhere else, construct it normally; the
    two forms are equal, field for field.
    """

    key: Key
    value: object
    version: Version
    #: True when the cache had to fall through to the database.
    cache_miss: bool = False
    #: True when the value was re-read from the database by the RETRY
    #: strategy after the originally cached copy failed the dependency check.
    retried: bool = False


class TransactionOutcome(Enum):
    """Terminal state of a transaction as recorded by the monitor."""

    COMMITTED = "committed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class CommittedTransaction:
    """An update transaction as reported to the consistency monitor.

    ``reads`` maps each key in the read set to the version observed;
    ``writes`` maps each written key to the version installed (which equals
    the transaction's own id, §III-A).
    """

    txn_id: TxnId
    reads: Mapping[Key, Version]
    writes: Mapping[Key, Version]
    commit_time: float = 0.0

    def keys(self) -> set[Key]:
        return set(self.reads) | set(self.writes)


@dataclass(slots=True)
class ReadOnlyTransactionRecord:
    """A read-only transaction as observed at a cache, for the monitor."""

    txn_id: TxnId
    reads: dict[Key, Version] = field(default_factory=dict)
    outcome: TransactionOutcome = TransactionOutcome.COMMITTED
    finish_time: float = 0.0
    #: True when the transaction observed two different versions of the same
    #: key — inconsistent regardless of anything else in the history. The
    #: ``reads`` dict can only hold one version per key, so the cache flags
    #: the condition explicitly for the monitor.
    non_repeatable: bool = False
    #: The serving cache's own state for the transaction while it is open
    #: (T-Cache keeps its §III-B ``TransactionContext`` here, so a read finds
    #: it with the record in one probe); cleared when the transaction
    #: finishes. Not part of the observation: the monitor never sees it.
    context: Any = field(default=None, compare=False, repr=False)


def entries_from_pairs(pairs: Iterable[tuple[Key, Version]]) -> tuple[DepEntry, ...]:
    """Convenience constructor used widely in tests and workloads."""
    return tuple(DepEntry(key, version) for key, version in pairs)
