"""Open-loop read-only transaction client.

Fires read-only transactions against a cache at a configured aggregate rate.
Each transaction reads its access set through the cache's transactional
interface — ``read(txn_id, key, lastOp)`` (§III-B) — with a small
client-to-cache round-trip gap between operations, so transactions genuinely
interleave with concurrent update commits and invalidations.

A transaction aborted by T-Cache is counted and dropped; §III-B notes the
client *can* retry, and ``retry_aborted=True`` enables that behaviour (used
by one of the examples), but the paper's experiments measure abort rates
without client-side retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cache.base import CacheServer
from repro.errors import TransactionAborted
from repro.sim.core import Simulator
from repro.workloads.base import Workload

__all__ = ["ReadOnlyClient", "ReadClientStats"]


@dataclass(slots=True)
class ReadClientStats:
    """Per-client counters over *logical* transactions.

    ``launched`` counts each logical transaction once, however often it is
    retried; ``attempts`` counts every try. ``committed``/``aborted`` are
    final outcomes, so ``committed + aborted <= launched`` always holds
    (strictly ``==`` once every in-flight transaction finished) and
    ``attempts == launched + retried_transactions``.
    """

    launched: int = 0
    committed: int = 0
    aborted: int = 0
    reads: int = 0
    attempts: int = 0
    retried_transactions: int = 0


class ReadOnlyClient:
    """Drives read-only transactions as a simulation process."""

    def __init__(
        self,
        sim: Simulator,
        cache: CacheServer,
        workload: Workload,
        *,
        rate: float,
        rng: np.random.Generator,
        txn_ids: Iterator[int],
        read_gap: float = 0.001,
        poisson: bool = True,
        retry_aborted: bool = False,
        max_retries: int = 2,
        name: str = "read-client",
    ) -> None:
        self._sim = sim
        self._cache = cache
        self._workload = workload
        self._rate = rate
        # Gaps are slept on (``yield gap``), which takes an exact float.
        self._mean_gap = float(1.0 / rate)
        self._rng = rng
        self._txn_ids = txn_ids
        self._read_gap = float(read_gap)
        self._poisson = poisson
        self._retry_aborted = retry_aborted
        self._max_retries = max_retries
        self.name = name
        self.stats = ReadClientStats()
        self.process = sim.process(self._run())

    def _run(self):
        while True:
            yield self._next_gap()
            keys = self._workload.access_set(self._rng, self._sim.now)
            self._sim.process(self._transaction(keys, attempt=0))

    def _transaction(self, keys: list, attempt: int):
        stats = self.stats
        if attempt == 0:
            stats.launched += 1
        stats.attempts += 1
        txn_id = next(self._txn_ids)
        cache_read = self._cache.read
        last = len(keys) - 1
        read_gap = self._read_gap
        try:
            for position, key in enumerate(keys):
                last_op = position == last
                cache_read(txn_id, key, last_op)
                stats.reads += 1
                if not last_op and read_gap:
                    yield read_gap
        except TransactionAborted:
            if self._retry_aborted and attempt < self._max_retries:
                self.stats.retried_transactions += 1
                yield from self._transaction(keys, attempt + 1)
            else:
                self.stats.aborted += 1
            return
        self.stats.committed += 1

    def _next_gap(self) -> float:
        if self._poisson:
            return float(self._rng.exponential(self._mean_gap))
        return self._mean_gap
