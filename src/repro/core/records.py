"""Per-transaction read records kept by the T-Cache server (§III-B).

"To implement this interface, the cache maintains a record of each
transaction with its read values, their versions, and their dependency
lists." The record also pre-aggregates, per key, the strongest version
requirement implied by everything read so far, so that each new read is
checked in O(size of its dependency list) rather than O(reads × list size);
the lists themselves are folded into those requirements, not retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.types import DepEntry, Key, TxnId, Version

__all__ = ["TransactionContext"]


@dataclass(slots=True)
class TransactionContext:
    """Everything the cache remembers about one open read-only transaction."""

    txn_id: TxnId
    start_time: float
    #: Version at which each key was (last) read. §III-B's ``readSet``.
    read_versions: dict[Key, Version] = field(default_factory=dict)
    #: Strongest requirement on each key implied by prior reads: the maximum
    #: version expected either because the key itself was read at that
    #: version or because some prior read's dependency list demands it.
    #: Maps key -> (required version, key of the read that demanded it).
    requirements: dict[Key, tuple[Version, Key]] = field(default_factory=dict)
    #: Reads folded in so far (a repeated key counts every time).
    read_count: int = 0

    def record_read(
        self, key: Key, version: Version, deps: Iterable[DepEntry]
    ) -> None:
        """Fold a successful read into the record.

        Requirements are merged monotonically: only a strictly larger
        required version replaces an existing one, so the record always
        reflects the strongest constraint seen so far.
        """
        self.read_count += 1
        prior = self.read_versions.get(key)
        if prior is None or version > prior:
            self.read_versions[key] = version

        # _require, inlined: this runs once per dependency entry of every
        # transactional read, and the call overhead dominated the work.
        requirements = self.requirements
        current = requirements.get(key)
        if current is None or version > current[0]:
            requirements[key] = (version, key)
        for entry in deps:
            entry_key = entry.key
            current = requirements.get(entry_key)
            if current is None or entry.version > current[0]:
                requirements[entry_key] = (entry.version, key)

    def _require(self, key: Key, version: Version, source: Key) -> None:
        current = self.requirements.get(key)
        if current is None or version > current[0]:
            self.requirements[key] = (version, source)

    def required_version(self, key: Key) -> tuple[Version, Key] | None:
        """The strongest requirement prior reads place on ``key``, if any."""
        return self.requirements.get(key)

    def version_read(self, key: Key) -> Version | None:
        return self.read_versions.get(key)

    def keys_read(self) -> set[Key]:
        return set(self.read_versions)
