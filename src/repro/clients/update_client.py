"""Open-loop update-transaction client.

Fires update transactions against the database at a configured aggregate
rate with Poisson arrivals. Each transaction reads its whole access set and
overwrites every object with a fresh token value, matching §V-B1: "Update
transactions first read all objects from the database, and then update all
objects at the database."

Transactions wounded by deadlock avoidance are retried a bounded number of
times (fresh transaction, same access set); the paper's workloads produce
only occasional wounds, and retries keep the effective update rate at the
configured value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.errors import TransactionAborted
from repro.sim.core import Event, Simulator
from repro.types import Key
from repro.workloads.base import Workload

__all__ = ["UpdateClient", "UpdateClientStats"]


@dataclass(slots=True)
class UpdateClientStats:
    launched: int = 0
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    #: Transactions dropped after exhausting retries.
    abandoned: int = 0


class UpdateClient:
    """Drives update transactions as a simulation process."""

    def __init__(
        self,
        sim: Simulator,
        database: Database,
        workload: Workload,
        *,
        rate: float,
        rng: np.random.Generator,
        max_retries: int = 3,
        poisson: bool = True,
        name: str = "update-client",
    ) -> None:
        self._sim = sim
        self._database = database
        self._workload = workload
        self._rate = rate
        # Gaps are slept on (``yield gap``), which takes an exact float.
        self._mean_gap = float(1.0 / rate)
        self._rng = rng
        self._max_retries = max_retries
        self._poisson = poisson
        self.name = name
        self.stats = UpdateClientStats()
        self._value_counter = itertools.count(1)
        self.process = sim.process(self._run())

    # ------------------------------------------------------------------
    # Process bodies
    # ------------------------------------------------------------------

    def _run(self):
        while True:
            yield self._next_gap()
            keys = self._workload.access_set(self._rng, self._sim.now)
            self._sim.process(self._transaction(keys, attempt=0))

    def _transaction(self, keys: list[Key], attempt: int):
        self.stats.launched += 1
        writes = {key: f"{self.name}#{next(self._value_counter)}" for key in keys}
        process = self._database.execute_update(read_keys=keys, writes=writes)
        try:
            yield process
        except TransactionAborted:
            self.stats.aborted += 1
            if attempt < self._max_retries:
                self.stats.retries += 1
                # Brief backoff so the wounding transaction can finish.
                yield self._next_gap() * 0.1
                yield from self._transaction(keys, attempt + 1)
            else:
                self.stats.abandoned += 1
            return
        self.stats.committed += 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _next_gap(self) -> float:
        if self._poisson:
            return float(self._rng.exponential(self._mean_gap))
        return self._mean_gap

    def completion_event(self) -> Event:
        """The client process itself (never completes unless killed)."""
        return self.process
