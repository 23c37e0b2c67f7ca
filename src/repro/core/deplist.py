"""Bounded, LRU-pruned dependency lists (§III-A).

The database stores with each object ``o`` a list of ``k`` dependencies
``(d1, v1) ... (dk, vk)``: identifiers and versions of other objects that the
current version of ``o`` depends on. A read-only transaction that sees the
current version of ``o`` must not see ``di`` with a version smaller than
``vi``.

At commit time the database aggregates, over every entry of the read and
write sets, the entry's own ``(key, version)`` pair plus its stored
dependency list::

    full-dep-list <- U_{(key,ver,depList)} {(key, ver)} U depList

then discards entries subsumed by a newer version of the same object, prunes
to the target size *using LRU*, and stores the result with each write-set
object.

LRU interpretation
------------------
The paper prunes "using LRU" and §V-A3 explains the intended effect: "the
dependency list of an object o tends to include those objects that are
frequently accessed together with o. Dependencies in a new cluster
automatically push out dependencies that are now outside the cluster."

We realise that with an explicit recency order inside each list
(most-recent-first). When merging at commit:

* the ``(key, version)`` pairs of the objects the committing transaction
  itself accessed are *used now* — they take the most-recent positions
  (matching the paper's §III-A example where ``(o2, vt)`` is spliced in ahead
  of ``o2``'s inherited dependencies);
* inherited entries keep their relative staleness: an entry's recency rank is
  the best (smallest) position it held in any source list;
* pruning drops entries from the least-recent end.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.types import DepEntry, Key, Version

__all__ = [
    "DependencyList",
    "UNBOUNDED",
    "PRUNING_POLICIES",
    "validate_pruning_policy",
]

#: Sentinel maximum length meaning "never prune" (Theorem 1 configuration).
UNBOUNDED: int = -1


def _lru_order(key: Key, ranks: dict, versions: dict) -> tuple:
    return (ranks[key], key)


def _newest_version_order(key: Key, ranks: dict, versions: dict) -> tuple:
    return (-versions[key], key)


def _random_order(key: Key, ranks: dict, versions: dict) -> tuple:
    return (zlib.crc32(key.encode("utf-8")), key)


_PRUNING_POLICIES: dict[str, Callable[..., tuple]] = {
    "lru": _lru_order,
    "newest-version": _newest_version_order,
    "random": _random_order,
}

#: Public view of the available pruning policies (the ablation axis).
PRUNING_POLICIES: tuple[str, ...] = tuple(sorted(_PRUNING_POLICIES))


def validate_pruning_policy(policy: str, *, owner: str = "") -> str:
    """Reject unknown pruning policies at configuration time.

    Shared by every config dataclass that carries a policy knob
    (``DatabaseConfig``, ``ColumnConfig``, ``ScenarioSpec``,
    ``BackendSpec``) so a typo fails where it is written, not deep inside
    dependency-list pruning. ``owner`` prefixes the message with the
    offending config's identity. Returns the policy unchanged.
    """
    if policy not in _PRUNING_POLICIES:
        prefix = f"{owner}: " if owner else ""
        raise ConfigurationError(
            f"{prefix}unknown pruning policy {policy!r}; choose from "
            f"{sorted(_PRUNING_POLICIES)}"
        )
    return policy


class DependencyList:
    """An immutable, recency-ordered list of ``(key, version)`` dependencies.

    The first entry is the most recently used. Instances are cheap value
    objects: merging returns a new list, and the hot-path lookup
    :meth:`required_version` is a dict access.
    """

    __slots__ = ("_entries", "_by_key")

    def __init__(self, entries: Iterable[DepEntry] = ()) -> None:
        ordered: list[DepEntry] = []
        by_key: dict[Key, Version] = {}
        for entry in entries:
            known = by_key.get(entry.key)
            if known is None:
                by_key[entry.key] = entry.version
                ordered.append(entry)
            elif entry.version > known:
                # Subsumption: keep the larger version at the *earlier*
                # (more recent) position the key already holds.
                by_key[entry.key] = entry.version
                ordered = [
                    DepEntry(entry.key, entry.version) if e.key == entry.key else e
                    for e in ordered
                ]
        self._entries: tuple[DepEntry, ...] = tuple(ordered)
        self._by_key = by_key

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def merge(
        cls,
        direct: Mapping[Key, Version],
        inherited: Sequence["DependencyList | tuple[DepEntry, ...]"],
        *,
        max_len: int,
        exclude: Key | None = None,
        pinned: frozenset[Key] | set[Key] | None = None,
        policy: str = "lru",
    ) -> "DependencyList":
        """The §III-A commit-time aggregation.

        ``direct`` maps each object the committing transaction accessed to
        the version a dependant must observe (the new version for writes, the
        version read for pure reads). ``inherited`` holds what was stored
        with those objects: dependency lists, or the bare ``deps`` tuples of
        the :class:`~repro.types.VersionedValue` entries read (each the
        entries of a list built at an earlier commit, in recency order), so
        the commit path wraps nothing. ``exclude`` removes the self-entry when
        attaching the list to a particular write-set object — an object need
        not record a dependency on itself, and dropping it frees one of the
        ``k`` slots for useful information.

        ``pinned`` implements the §VII extension: keys the application
        declared semantically important (e.g. an album's ACL) outrank
        everything else and survive pruning as long as any source mentions
        them.

        ``policy`` selects the pruning order (an ablation knob; the paper
        uses LRU):

        * ``"lru"`` — recency: direct entries first ("used now"), inherited
          entries by the best position they held in any source list; ties
          broken by key for determinism.
        * ``"newest-version"`` — keep the entries with the largest versions,
          regardless of recency of use.
        * ``"random"`` — deterministic pseudo-random order (hash of the
          key), the no-information baseline.

        Subsumption keeps the maximum version per key in every policy.
        Finally the list is truncated to ``max_len``.

        A caller that attaches one aggregation to several objects (see
        :meth:`without`) needs ``max_len`` no larger than its largest bound
        plus one: dropping one self-entry from the leading ``b + 1`` entries
        leaves at least ``b``, and the order does not depend on ``max_len``.
        """
        if max_len != UNBOUNDED and max_len < 0:
            raise ConfigurationError(f"max_len must be >= 0 or UNBOUNDED, got {max_len}")
        if policy not in _PRUNING_POLICIES:
            raise ConfigurationError(
                f"unknown pruning policy {policy!r}; choose from {sorted(_PRUNING_POLICIES)}"
            )

        best_rank: dict[Key, int] = {}
        best_version: dict[Key, Version] = {}

        for key, version in direct.items():
            best_rank[key] = -1
            best_version[key] = version

        # The two dicts share their key set, so one probe answers for both.
        for source in inherited:
            for position, (key, version) in enumerate(source):
                rank = best_rank.get(key)
                if rank is None:
                    best_rank[key] = position
                    best_version[key] = version
                    continue
                # Direct entries keep rank -1: no position is below it.
                if position < rank:
                    best_rank[key] = position
                if version > best_version[key]:
                    best_version[key] = version

        if exclude is not None:
            best_rank.pop(exclude, None)
            best_version.pop(exclude, None)

        pinned = pinned or frozenset()
        if not pinned and policy == "lru":
            # Commit hot path (the paper's policy, no pinned keys): the
            # ``k not in pinned`` prefix is constant and the LRU order is
            # plain ``(rank, key)``, so sort tuples instead of calling a
            # key function per entry.
            ordered_keys = [
                key for _, key in sorted(
                    (rank, key) for key, rank in best_rank.items()
                )
            ]
        else:
            sort_key = _PRUNING_POLICIES[policy]
            ordered_keys = sorted(
                best_rank,
                key=lambda k: (k not in pinned, *sort_key(k, best_rank, best_version)),
            )
        if max_len != UNBOUNDED:
            ordered_keys = ordered_keys[:max_len]
        # One entry per key by construction; skip the constructor's dedup.
        return cls.from_trusted(
            [DepEntry(key, best_version[key]) for key in ordered_keys]
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Key, Version]]) -> "DependencyList":
        """Build a list from ``(key, version)`` pairs in recency order."""
        return cls(DepEntry(key, version) for key, version in pairs)

    @classmethod
    def from_trusted(cls, entries: Sequence[DepEntry]) -> "DependencyList":
        """Wrap entries that are *already* deduplicated, skipping subsumption.

        For what :meth:`merge` and :meth:`without` build: one key per entry,
        subsumption already applied (a prefix slice of such a list, or the
        list minus one entry, keeps the invariant). Running the full
        constructor would re-dedupe an input that cannot contain duplicates.
        """
        instance = cls.__new__(cls)
        instance._entries = tuple(entries)
        # Built lazily: a list stored at commit is read through ``entries``
        # and never probed by key.
        instance._by_key = None
        return instance

    def without(self, key: Key, max_len: int) -> "DependencyList":
        """This list minus ``key``'s entry, truncated to ``max_len``.

        What one commit stores with each written object: :meth:`merge` runs
        once per transaction, and pruning order does not depend on which
        entry is left out, so dropping the self-entry from the shared result
        equals merging with ``exclude=key`` (while no key is pinned). Only
        the leading ``max_len + 1`` entries are read, which is why the shared
        merge may itself be capped at the largest bound it serves plus one.
        """
        entries = self._entries
        if max_len == UNBOUNDED:
            return self.from_trusted([e for e in entries if e.key != key])
        kept = [e for e in entries[: max_len + 1] if e.key != key]
        return self.from_trusted(kept[:max_len])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def entries(self) -> tuple[DepEntry, ...]:
        """Entries in recency order, most recent first."""
        return self._entries

    def _mapping(self) -> dict[Key, Version]:
        """Key -> version index, built on first by-key probe."""
        by_key = self._by_key
        if by_key is None:
            by_key = self._by_key = {
                entry.key: entry.version for entry in self._entries
            }
        return by_key

    def required_version(self, key: Key) -> Version | None:
        """The minimum version of ``key`` a dependant must observe, if any."""
        return self._mapping().get(key)

    def keys(self) -> set[Key]:
        """The set of keys this list constrains."""
        return set(self._mapping())

    def as_pairs(self) -> tuple[tuple[Key, Version], ...]:
        """The entries as plain ``(key, version)`` pairs, recency order."""
        return tuple((entry.key, entry.version) for entry in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DepEntry]:
        return iter(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._mapping()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyList):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"({e.key!r}, {e.version})" for e in self._entries)
        return f"DependencyList([{body}])"


#: Shared empty list — dependency lists are immutable, so one instance serves.
EMPTY: DependencyList = DependencyList()
