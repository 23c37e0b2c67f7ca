"""The paper's primary contribution: dependency tracking and T-Cache.

* :mod:`repro.core.deplist` — bounded, LRU-pruned dependency lists (§III-A).
* :mod:`repro.core.records` — per-transaction read records kept by the cache.
* :mod:`repro.core.detector` — the Eq. 1 / Eq. 2 inconsistency checks (§III-B).
* :mod:`repro.core.strategies` — ABORT / EVICT / RETRY reactions.
* :mod:`repro.core.tcache` — the T-Cache server tying it all together.
"""

from repro.core.deplist import DependencyList
from repro.core.detector import InconsistencyReport, check_read
from repro.core.records import TransactionContext
from repro.core.strategies import Strategy
from repro.core.tcache import TCache

__all__ = [
    "DependencyList",
    "InconsistencyReport",
    "Strategy",
    "TCache",
    "TransactionContext",
    "check_read",
]
