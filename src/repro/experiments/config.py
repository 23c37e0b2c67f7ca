"""Configuration of one experimental column (Figure 2).

Defaults reproduce §IV: update clients at 100 txn/s against the database,
read-only clients at 500 txn/s against a single cache, 5 objects per
transaction (carried by the workload), 20 % of invalidations dropped
uniformly at random, dependency lists bounded at 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deplist import UNBOUNDED, validate_pruning_policy
from repro.core.strategies import Strategy
from repro.db.database import TimingConfig
from repro.errors import ConfigurationError
from repro.protocols.registry import DEFAULT_PROTOCOL, check_protocol_options

__all__ = ["ColumnConfig"]


@dataclass(slots=True)
class ColumnConfig:
    """All knobs of a single-column run."""

    seed: int = 1
    #: Simulated seconds of measured run (after warm-up).
    duration: float = 30.0
    #: Simulated seconds before measurement starts; the cache fills and the
    #: first dependency lists propagate during warm-up.
    warmup: float = 5.0

    update_rate: float = 100.0
    read_rate: float = 500.0
    #: Client-to-cache round trip between the reads of one transaction.
    read_gap: float = 0.001

    #: The paper's ``k``; UNBOUNDED for the Theorem 1 configuration,
    #: 0 to disable dependency tracking.
    deplist_max: int = 5
    #: Dependency-list pruning order: "lru" (the paper) or the ablation
    #: alternatives "newest-version" / "random".
    pruning_policy: str = "lru"
    strategy: Strategy = Strategy.ABORT
    #: The cache the column runs, by protocol registry name
    #: (:mod:`repro.protocols`) — the same selector an edge spec carries.
    protocol: str = DEFAULT_PROTOCOL
    #: Entry lifetime, for protocols that expire entries.
    ttl: float | None = None
    #: Optional cache capacity (None: everything fits, as in the paper).
    cache_capacity: int | None = None

    #: Fraction of invalidations dropped (§IV: 20 %).
    invalidation_loss: float = 0.2
    #: Mean invalidation delivery latency (exponential), seconds.
    invalidation_latency_mean: float = 0.05

    timing: TimingConfig = field(default_factory=TimingConfig)
    monitor_window: float = 1.0
    #: Retry aborted read-only transactions at the client (off in the paper).
    retry_aborted_reads: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {self.warmup}")
        if self.update_rate < 0 or self.read_rate <= 0:
            raise ConfigurationError("rates must be positive")
        if not 0.0 <= self.invalidation_loss <= 1.0:
            raise ConfigurationError(
                f"invalidation_loss must be in [0, 1], got {self.invalidation_loss}"
            )
        if self.deplist_max != UNBOUNDED and self.deplist_max < 0:
            raise ConfigurationError(
                f"deplist_max must be >= 0 or UNBOUNDED, got {self.deplist_max}"
            )
        validate_pruning_policy(self.pruning_policy)
        check_protocol_options(self.protocol, ttl=self.ttl)

    @property
    def total_time(self) -> float:
        return self.warmup + self.duration
