"""Result records for single edges and whole fleets.

:class:`ColumnResult` — everything an experiment needs from one finished
edge (historically "one column" of a figure) — lives here so that both the
legacy single-column runner and the scenario executor can produce it;
:mod:`repro.experiments.runner` re-exports it under its historical import
path.

:class:`ScenarioResult` adds the fleet view: per-edge results in spec order,
:class:`FleetAggregates` computed from the shared consistency monitor, and —
since the backend became a routed tier — one :class:`BackendAggregates` per
backend (its load, commit counts and the read-only classifications of the
edges placed on it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.cache.base import CacheStats
from repro.clients.read_client import ReadClientStats
from repro.clients.update_client import UpdateClientStats
from repro.db.database import DatabaseStats
from repro.monitor.stats import CLASSES, ClassCounts
from repro.sim.channel import ChannelStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.scenario.spec import EdgeSpec, ScenarioSpec

__all__ = [
    "BackendAggregates",
    "ColumnResult",
    "FleetAggregates",
    "ScenarioResult",
]


@dataclass(slots=True)
class ColumnResult:
    """Everything an experiment needs from one finished edge run."""

    #: Simulated seconds of the whole run, warm-up included.
    total_time: float
    #: Classification counts within the measured window only.
    counts: ClassCounts
    cache_stats: CacheStats
    db_stats: DatabaseStats
    channel_stats: ChannelStats
    update_client_stats: UpdateClientStats
    read_client_stats: ReadClientStats
    #: Per-window rates across the whole run including warm-up (Figs. 4, 5).
    series: list[dict[str, float]] = field(default_factory=list)
    #: T-Cache detection counters (zero for the baselines).
    detections_eq1: int = 0
    detections_eq2: int = 0
    retries_resolved: int = 0
    #: ``repro.telemetry/1`` metrics snapshot, set only for traced points.
    telemetry: dict | None = None
    #: Raw trace records of a traced point (sim-time keyed). Exported as
    #: JSONL by the CLI; never embedded in artifacts, which keeps traced and
    #: untraced artifacts byte-identical modulo the telemetry section.
    trace: list | None = None

    # ------------------------------------------------------------------
    # Figure metrics
    # ------------------------------------------------------------------

    @property
    def inconsistency_ratio(self) -> float:
        """Inconsistent commits / all commits, measured window."""
        return self.counts.inconsistency_ratio

    @property
    def detection_ratio(self) -> float:
        """Detected / potential inconsistencies, measured window."""
        return self.counts.detection_ratio

    @property
    def abort_ratio(self) -> float:
        return self.counts.abort_ratio

    @property
    def hit_ratio(self) -> float:
        return self.cache_stats.hit_ratio

    @property
    def db_access_rate(self) -> float:
        """Cache-originated database reads per measured second.

        Uses whole-run cache counters scaled to the full run time; the
        steady-state rate is what Fig. 7's bottom panels report.
        """
        return self.cache_stats.db_accesses / self.total_time

    def class_shares(self) -> dict[str, float]:
        """Fractions of read-only transactions per class (Figs. 6, 8)."""
        total = self.counts.total or 1
        return {label: getattr(self.counts, label) / total for label in CLASSES}


@dataclass(slots=True)
class BackendAggregates:
    """One backend database's view of the scenario it served.

    ``counts`` classifies the read-only transactions of the edges placed on
    this backend (measured window, from the monitor's per-backend series);
    ``db_stats`` is the backend's own live counters (whole run).
    """

    #: Backend name (= its version namespace).
    name: str
    #: Names of the edges placed on this backend, in spec order.
    edges: list[str]
    #: Read-only classification counts of this backend's edges (measured).
    counts: ClassCounts
    #: The backend database's own counters (whole run).
    db_stats: DatabaseStats
    #: Whole-run cache-originated reads this backend served.
    db_accesses: int
    #: ``db_accesses`` per simulated second — this backend's share of the
    #: tier's cache-miss read load.
    read_load: float

    @property
    def update_commits(self) -> int:
        """Committed update transactions at this backend (whole run)."""
        return self.db_stats.committed

    @property
    def inconsistency_ratio(self) -> float:
        """Inconsistent commits / all commits among this backend's edges."""
        return self.counts.inconsistency_ratio

    @property
    def detection_ratio(self) -> float:
        return self.counts.detection_ratio

    @property
    def abort_ratio(self) -> float:
        return self.counts.abort_ratio

    def as_dict(self) -> dict[str, object]:
        """JSON-safe record including the derived ratios."""
        payload = asdict(self)
        payload["update_commits"] = self.update_commits
        payload["inconsistency_ratio"] = self.inconsistency_ratio
        payload["detection_ratio"] = self.detection_ratio
        payload["abort_ratio"] = self.abort_ratio
        return payload


@dataclass(slots=True)
class FleetAggregates:
    """Fleet-level metrics of one scenario run, measured window only.

    Ratios come from the shared monitor's fleet-wide classification (the
    same numbers as summing the per-edge counts); the variances quantify
    cross-edge heterogeneity (population variance over per-edge ratios).
    """

    #: Fleet-wide classification counts within the measured window.
    counts: ClassCounts
    #: Whole-run cache reads/hits summed over every edge.
    cache_reads: int
    cache_hits: int
    #: Whole-run cache-originated backend reads summed over every edge.
    db_accesses: int
    #: ``db_accesses`` per simulated second (whole run) — the backend load
    #: the fleet generates beyond the update traffic.
    backend_read_rate: float
    #: Committed update transactions at the shared backend (whole run).
    update_commits: int
    #: Population variance of per-edge inconsistency ratios.
    inconsistency_variance: float
    #: Population variance of per-edge cache hit ratios.
    hit_ratio_variance: float
    #: Backend name -> inconsistency ratio of the edges placed on it — the
    #: cross-backend split of the fleet-wide ratio (one entry for
    #: single-backend scenarios).
    inconsistency_by_backend: dict[str, float] = field(default_factory=dict)

    @property
    def inconsistency_ratio(self) -> float:
        """Fleet-wide inconsistent commits / all commits."""
        return self.counts.inconsistency_ratio

    @property
    def detection_ratio(self) -> float:
        """Fleet-wide detected / potential inconsistencies."""
        return self.counts.detection_ratio

    @property
    def abort_ratio(self) -> float:
        return self.counts.abort_ratio

    @property
    def hit_ratio(self) -> float:
        """Fleet-wide cache hit ratio (whole run)."""
        return self.cache_hits / self.cache_reads if self.cache_reads else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-safe record including the derived ratios."""
        payload = asdict(self)
        payload["inconsistency_ratio"] = self.inconsistency_ratio
        payload["detection_ratio"] = self.detection_ratio
        payload["abort_ratio"] = self.abort_ratio
        payload["hit_ratio"] = self.hit_ratio
        return payload


@dataclass(slots=True)
class ScenarioResult:
    """Results of one executed scenario: per-edge, per-backend and fleet
    views."""

    spec: ScenarioSpec
    #: One :class:`ColumnResult` per edge, in spec order. Each carries its
    #: assigned backend's stats as its ``db_stats`` (edges on the same
    #: backend hold the same object).
    edges: list[ColumnResult]
    fleet: FleetAggregates
    #: Tier-wide backend counters. For a single backend this is the
    #: backend's own stats object (the same one every edge result holds);
    #: for a routed tier it is the sum over backends.
    db_stats: DatabaseStats
    #: One :class:`BackendAggregates` per backend, in spec order.
    backends: list[BackendAggregates] = field(default_factory=list)
    #: ``repro.telemetry/1`` metrics snapshot, set only for traced runs.
    telemetry: dict | None = None
    #: Raw trace records of a traced run (see :class:`ColumnResult.trace`).
    trace: list | None = None

    def pairs(self) -> Iterator[tuple[EdgeSpec, ColumnResult]]:
        """``(edge spec, edge result)`` pairs in spec order."""
        return zip(self.spec.edges, self.edges)

    def edge(self, name: str) -> ColumnResult:
        """The result of the edge named ``name``."""
        for edge_spec, result in self.pairs():
            if edge_spec.name == name:
                return result
        raise KeyError(
            f"no edge named {name!r} in scenario {self.spec.name!r}"
        )

    def backend(self, name: str) -> BackendAggregates:
        """The aggregates of the backend named ``name``."""
        for aggregate in self.backends:
            if aggregate.name == name:
                return aggregate
        raise KeyError(
            f"no backend named {name!r} in scenario {self.spec.name!r}"
        )

    def to_artifact(self) -> dict[str, object]:
        """JSON-safe record: topology + per-edge counts/series + per-backend
        + fleet aggregates."""
        payload = self.spec.as_dict()
        payload["edges"] = [
            {
                **edge_spec.as_dict(),
                "backend": self.spec.placement[edge_spec.name],
                "counts": asdict(result.counts),
                "series": result.series,
                "hit_ratio": result.hit_ratio,
                "db_access_rate": result.db_access_rate,
                "detections_eq1": result.detections_eq1,
                "detections_eq2": result.detections_eq2,
                "retries_resolved": result.retries_resolved,
            }
            for edge_spec, result in self.pairs()
        ]
        # Merge each backend's spec (already in the payload) with its
        # aggregates, mirroring the per-edge records; the merged entries
        # still satisfy ScenarioSpec.from_dict, so result artifacts replay.
        payload["backends"] = [
            {**backend_spec.as_dict(), **aggregate.as_dict()}
            for backend_spec, aggregate in zip(self.spec.backends, self.backends)
        ]
        payload["fleet"] = self.fleet.as_dict()
        payload["db_stats"] = asdict(self.db_stats)
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload
