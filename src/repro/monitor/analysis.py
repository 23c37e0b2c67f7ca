"""Deeper post-hoc analysis of a column run.

The headline metrics (inconsistency ratio, detection ratio) hide structure
that matters when tuning T-Cache in practice:

* **staleness depth** — when a stale value is read, how many versions behind
  the database was it? Shallow staleness (1 version) is what short
  dependency lists catch; deep tails point at cold objects with lost
  invalidations.
* **per-key attribution** — which objects cause the inconsistencies? A
  heavy-tailed attribution suggests per-object dependency-list bounds or
  pinning (§VII) will pay off.
* **abort evidence** — which equation fired, and how far apart were the
  observed and required versions?

The :class:`StalenessProbe` taps the same streams the consistency monitor
uses and costs O(1) per read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.types import CommittedTransaction, Key, ReadOnlyTransactionRecord, Version

__all__ = ["StalenessProbe", "StalenessReport"]


@dataclass(slots=True)
class StalenessReport:
    """Summary of a finished run, produced by :class:`StalenessProbe`."""

    reads_observed: int
    stale_reads: int
    #: Histogram: versions-behind -> count (1 = one missed update).
    depth_histogram: dict[int, int]
    #: The keys most often read stale, with counts, descending.
    worst_keys: list[tuple[Key, int]]

    @property
    def stale_ratio(self) -> float:
        return self.stale_reads / self.reads_observed if self.reads_observed else 0.0

    @property
    def mean_depth(self) -> float:
        total = sum(depth * count for depth, count in self.depth_histogram.items())
        return total / self.stale_reads if self.stale_reads else 0.0

    @property
    def shallow_fraction(self) -> float:
        """Fraction of stale reads exactly one version behind — the regime
        where a single dependency entry suffices for detection."""
        if not self.stale_reads:
            return 0.0
        return self.depth_histogram.get(1, 0) / self.stale_reads


class StalenessProbe:
    """Tracks how far behind the database the cache's served reads are.

    Wire alongside the monitor::

        probe = StalenessProbe()
        database.add_commit_listener(probe.record_update)
        cache.add_transaction_listener(probe.record_read_only)
    """

    def __init__(self, *, worst_keys: int = 10) -> None:
        self._version_index: dict[Key, list[Version]] = {}
        self._current: dict[Key, Version] = {}
        self._stale_by_key: Counter = Counter()
        self._depths: Counter = Counter()
        self._reads = 0
        self._stale_reads = 0
        self._worst_keys = worst_keys

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def record_update(self, txn: CommittedTransaction) -> None:
        for key, version in txn.writes.items():
            self._version_index.setdefault(key, []).append(version)
            self._current[key] = version

    def record_read_only(self, record: ReadOnlyTransactionRecord) -> None:
        for key, version in record.reads.items():
            self._reads += 1
            current = self._current.get(key)
            if current is None or version >= current:
                continue
            self._stale_reads += 1
            self._stale_by_key[key] += 1
            self._depths[self._depth_of(key, version, current)] += 1

    def _depth_of(self, key: Key, seen: Version, current: Version) -> int:
        """Number of committed versions between ``seen`` and ``current``."""
        from bisect import bisect_right

        chain = self._version_index.get(key, [])
        return bisect_right(chain, current) - bisect_right(chain, seen)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> StalenessReport:
        return StalenessReport(
            reads_observed=self._reads,
            stale_reads=self._stale_reads,
            depth_histogram=dict(sorted(self._depths.items())),
            worst_keys=self._stale_by_key.most_common(self._worst_keys),
        )
