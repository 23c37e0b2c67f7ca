"""Declarative description of a multi-edge, multi-backend topology.

A :class:`ScenarioSpec` is the paper's Figure 2 generalised to a fleet:
one or more transactional backends (:class:`BackendSpec`), one omniscient
consistency monitor, and N edge caches — each an :class:`EdgeSpec` with its
own cache variant, invalidation channel quality, and client populations. A
*placement* maps each edge to the backend that serves its misses, updates
and invalidations; the default places every edge on one default backend,
reproducing the paper's single-backend setting bit for bit. Specs are plain
data validated at construction; building one runs nothing.
:func:`repro.scenario.run_scenario` executes them.

The legacy single-column API (:func:`repro.experiments.runner.run_column`)
is a shim over this layer: a one-edge scenario built with
:meth:`ScenarioSpec.from_column` reproduces the pre-scenario runner's
results bit for bit (see the RNG naming notes in
:mod:`repro.scenario.runner`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.deplist import UNBOUNDED, validate_pruning_policy
from repro.core.strategies import Strategy
from repro.db.database import TimingConfig
from repro.errors import ConfigurationError
from repro.protocols.registry import DEFAULT_PROTOCOL, check_protocol_options
from repro.workloads.base import Workload
from repro.workloads.codec import (
    portable_workload,
    portable_workload_specs,
    workload_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.config import ColumnConfig

__all__ = [
    "BackendSpec",
    "DEFAULT_BACKEND_NAME",
    "EdgeSpec",
    "ScenarioSpec",
    "protocol_from_wire",
    "protocol_to_wire",
]

#: Name of the implicit backend of single-backend scenarios. Matches the
#: historical :class:`~repro.db.database.DatabaseConfig` default so that a
#: spec with no ``backends`` reproduces the pre-backend-tier wiring exactly.
DEFAULT_BACKEND_NAME = "db"

#: The fields an edge shares, name for name, with a single-column
#: :class:`~repro.experiments.config.ColumnConfig` (``deplist_limit`` and the
#: outage windows have no single-column equivalent): what
#: :meth:`ScenarioSpec.from_column` and :meth:`ScenarioSpec.edge_config`
#: copy, in either direction.
_COLUMN_FIELDS = (
    "protocol", "strategy", "ttl", "cache_capacity", "update_rate", "read_rate",
    "read_gap", "retry_aborted_reads", "invalidation_loss",
    "invalidation_latency_mean",
)  # fmt: skip

#: The wire format predates ``protocol`` being the one cache selector: a v1
#: payload spells the four original caches as ``"cache_kind": KIND,
#: "protocol": null`` and every later protocol as ``"cache_kind": "TCACHE",
#: "protocol": name``. Each KIND but the detector's is its protocol's name
#: upper-cased. The two functions below are the only code that knows this;
#: recorded artifacts, sweep fingerprints and journal headers depend on it.
_V1_KINDS = {
    "TCACHE": DEFAULT_PROTOCOL,
    **{kind: kind.lower() for kind in ("PLAIN", "TTL", "MULTIVERSION")},
}


def protocol_to_wire(protocol: str) -> tuple[str, str | None]:
    """The v1 ``(cache_kind, protocol)`` pair that spells ``protocol``."""
    for kind, name in _V1_KINDS.items():
        if name == protocol:
            return kind, None
    return "TCACHE", protocol


def protocol_from_wire(
    kind: str | None, protocol: str | None, *, owner: str
) -> str:
    """The protocol a v1 key pair names. When both keys are set the
    ``protocol`` wins, as it did at run time; a payload with neither names
    the default."""
    if kind is not None and kind not in _V1_KINDS:
        raise ConfigurationError(
            f"{owner}: unknown cache_kind {kind!r}; registered kinds: "
            f"{', '.join(_V1_KINDS)}"
        )
    return _V1_KINDS[kind or "TCACHE"] if protocol is None else protocol


def _present(cls: type, payload: Mapping[str, object]) -> dict[str, object]:
    """Constructor arguments for the fields of dataclass ``cls`` that
    ``payload`` carries. Absent fields take the dataclass default — stated
    once, on the field — and keys that are not fields are ignored."""
    return {f.name: payload[f.name] for f in fields(cls) if f.name in payload}


@dataclass(slots=True)
class BackendSpec:
    """One transactional backend database of a scenario's backend tier.

    ``deplist_max``, ``timing`` and ``pruning_policy`` default to ``None``,
    meaning "inherit the scenario-wide value" — so a fleet can share one
    configuration while individual backends override it (e.g. a regional
    backend with longer dependency lists or slower commit phases).

    Each backend owns an independent version namespace: its commit-sequence
    counter starts at 1 and orders only its own transactions. The runner and
    the consistency monitor key everything version-related by
    ``(backend, version)`` — see :class:`~repro.monitor.monitor.ConsistencyMonitor`.
    """

    #: Unique name within the scenario; becomes the database name, the WAL
    #: and shard name prefix, and the monitor's version namespace.
    name: str
    #: 2PC participants the backend is partitioned over (stable-hash
    #: placement of keys to shards).
    shards: int = 1
    #: Backend-side dependency-list bound; ``None`` inherits the scenario's.
    deplist_max: int | None = None
    #: Transaction phase latencies; ``None`` inherits the scenario's.
    timing: TimingConfig | None = None
    #: Dependency-list pruning order; ``None`` inherits the scenario's.
    pruning_policy: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("backend name must be non-empty")
        if self.shards < 1:
            raise ConfigurationError(
                f"backend {self.name!r}: need at least one shard, got {self.shards}"
            )
        if (
            self.deplist_max is not None
            and self.deplist_max != UNBOUNDED
            and self.deplist_max < 0
        ):
            raise ConfigurationError(
                f"backend {self.name!r}: deplist_max must be >= 0, UNBOUNDED "
                f"or None, got {self.deplist_max}"
            )
        if self.pruning_policy is not None:
            validate_pruning_policy(
                self.pruning_policy, owner=f"backend {self.name!r}"
            )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe description (``None`` marks inherited fields)."""
        return {
            "name": self.name,
            "shards": self.shards,
            "deplist_max": self.deplist_max,
            "timing": None if self.timing is None else asdict(self.timing),
            "pruning_policy": self.pruning_policy,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BackendSpec":
        """Rebuild a backend spec from :meth:`as_dict` output."""
        given = _present(cls, payload)
        timing = given.pop("timing", None)
        if timing is not None:
            given["timing"] = TimingConfig(**timing)
        return cls(**given)


@dataclass(slots=True)
class EdgeSpec:
    """One edge cache plus the client populations it serves.

    Defaults reproduce the paper's §IV column: read-only clients at
    500 txn/s against the cache, update clients at 100 txn/s against the
    shared database, 20 % of invalidations dropped uniformly at random.
    """

    #: Unique name within the scenario; also names the cache, channel and
    #: clients, and keys the per-edge monitor series.
    name: str
    #: Drives this edge's update clients (and, absent ``read_workload``, its
    #: read-only clients). Its key universe is loaded into the database.
    workload: Workload
    #: Separate access distribution for the read-only clients.
    read_workload: Workload | None = None

    #: The one cache selector: the consistency protocol this edge runs, by
    #: registry name (:mod:`repro.protocols`). The runner builds the
    #: protocol's cache and wires its backend-side service, if it has one.
    protocol: str = DEFAULT_PROTOCOL
    strategy: Strategy = Strategy.ABORT
    #: Entry lifetime, for protocols that expire entries.
    ttl: float | None = None
    #: Optional cache capacity (None: everything fits, as in the paper).
    cache_capacity: int | None = None
    #: Per-edge cap on how many dependency entries the cache *consults* when
    #: checking reads (§VII: heterogeneous list bounds). The database still
    #: ships lists bounded by the scenario's ``deplist_max``; an edge with a
    #: smaller limit checks only the freshest ``deplist_limit`` entries.
    #: ``None`` consults the full shipped list.
    deplist_limit: int | None = None

    #: Aggregate update-transaction rate; 0 models a read-only region.
    update_rate: float = 100.0
    read_rate: float = 500.0
    #: Client-to-cache round trip between the reads of one transaction.
    read_gap: float = 0.001
    #: Retry aborted read-only transactions at the client (off in the paper).
    retry_aborted_reads: bool = False

    #: Fraction of this edge's invalidations dropped (§IV: 20 %).
    invalidation_loss: float = 0.2
    #: Mean invalidation delivery latency (exponential), seconds.
    invalidation_latency_mean: float = 0.05
    #: Half-open ``(start, end)`` sim-time windows during which this edge's
    #: invalidation channel drops *everything* — the §II bursty pipeline
    #: failures (config change, buffer saturation), declaratively.  The
    #: runner applies each window via :meth:`~repro.sim.channel.Channel.outage`;
    #: windows compose with the base ``invalidation_loss``.
    invalidation_outages: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("edge name must be non-empty")
        if self.update_rate < 0 or self.read_rate <= 0:
            raise ConfigurationError(
                f"edge {self.name!r}: update_rate must be >= 0 and "
                f"read_rate > 0, got {self.update_rate}/{self.read_rate}"
            )
        if self.read_gap < 0:
            raise ConfigurationError(
                f"edge {self.name!r}: read_gap must be >= 0, got {self.read_gap}"
            )
        if not 0.0 <= self.invalidation_loss <= 1.0:
            raise ConfigurationError(
                f"edge {self.name!r}: invalidation_loss must be in [0, 1], "
                f"got {self.invalidation_loss}"
            )
        if self.invalidation_latency_mean < 0:
            raise ConfigurationError(
                f"edge {self.name!r}: invalidation_latency_mean must be >= 0, "
                f"got {self.invalidation_latency_mean}"
            )
        check_protocol_options(
            self.protocol,
            ttl=self.ttl,
            deplist_limit=self.deplist_limit,
            owner=f"edge {self.name!r}: ",
        )
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ConfigurationError(
                f"edge {self.name!r}: cache_capacity must be >= 1 or None, "
                f"got {self.cache_capacity}"
            )
        # Normalise (JSON round-trips deliver lists) and validate windows.
        self.invalidation_outages = tuple(
            (float(start), float(end)) for start, end in self.invalidation_outages
        )
        for start, end in self.invalidation_outages:
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"edge {self.name!r}: outage window [{start}, {end}) must "
                    "satisfy 0 <= start < end"
                )
        if self.deplist_limit is not None and self.deplist_limit < 0:
            raise ConfigurationError(
                f"edge {self.name!r}: deplist_limit must be >= 0 or None, "
                f"got {self.deplist_limit}"
            )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe description (workloads by class name, enums by name).

        ``workload_spec`` / ``read_workload_spec`` carry full replayable
        workload payloads for the portable synthetic families (``None`` for
        graph/trace workloads, which hold external state) — the inputs
        :meth:`from_dict` rebuilds edges from.
        """
        kind, protocol = protocol_to_wire(self.protocol)
        return {
            "name": self.name,
            "workload": type(self.workload).__name__,
            "read_workload": (
                None
                if self.read_workload is None
                else type(self.read_workload).__name__
            ),
            "workload_spec": portable_workload(self.workload),
            "read_workload_spec": portable_workload(self.read_workload),
            "cache_kind": kind,
            "strategy": self.strategy.name,
            "protocol": protocol,
            "ttl": self.ttl,
            "cache_capacity": self.cache_capacity,
            "deplist_limit": self.deplist_limit,
            "update_rate": self.update_rate,
            "read_rate": self.read_rate,
            "read_gap": self.read_gap,
            "retry_aborted_reads": self.retry_aborted_reads,
            "invalidation_loss": self.invalidation_loss,
            "invalidation_latency_mean": self.invalidation_latency_mean,
            "invalidation_outages": [list(window) for window in self.invalidation_outages],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EdgeSpec":
        """Rebuild an edge spec from :meth:`as_dict` output.

        Requires a portable ``workload_spec`` — an edge whose workload was
        graph- or trace-backed cannot be replayed from JSON.
        """
        workload_spec, read_spec = portable_workload_specs(
            payload, f"edge {payload.get('name')!r}"
        )
        given = _present(cls, payload)
        given["workload"] = workload_from_dict(workload_spec)
        given["read_workload"] = (
            None if read_spec is None else workload_from_dict(read_spec)
        )
        given["protocol"] = protocol_from_wire(
            payload.get("cache_kind"),
            payload.get("protocol"),
            owner=f"edge {payload.get('name')!r}",
        )
        if "strategy" in given:
            try:
                given["strategy"] = Strategy[given["strategy"]]
            except KeyError:
                raise ConfigurationError(
                    f"edge {payload.get('name')!r}: unknown strategy "
                    f"{given['strategy']!r}; registered strategies: "
                    f"{', '.join(s.name for s in Strategy)}"
                ) from None
        return cls(**given)


@dataclass(slots=True)
class ScenarioSpec:
    """A fleet of edge caches in front of a tier of transactional backends.

    By default the tier is one :class:`BackendSpec` named
    :data:`DEFAULT_BACKEND_NAME` and every edge is placed on it — the
    paper's topology, bit-identical to the pre-backend-tier runner. Passing
    several ``backends`` plus a ``placement`` (a mapping from edge name to
    backend name, or a callable ``EdgeSpec -> backend name``) turns the
    scenario into a routed tier: each edge's cache misses, update clients
    and invalidation channel are wired to its assigned backend only, while
    one consistency monitor classifies the whole fleet using per-backend
    version namespaces.
    """

    name: str
    edges: list[EdgeSpec]
    seed: int = 1
    #: Simulated seconds of measured run (after warm-up).
    duration: float = 30.0
    #: Simulated seconds before measurement starts; caches fill and the
    #: first dependency lists propagate during warm-up.
    warmup: float = 5.0
    #: The paper's ``k``: the database-side dependency-list bound shared by
    #: the fleet; :data:`~repro.core.deplist.UNBOUNDED` for Theorem 1,
    #: 0 to disable dependency tracking. Backends may override it.
    deplist_max: int = 5
    #: Dependency-list pruning order: "lru" (the paper) or the ablation
    #: alternatives "newest-version" / "random". Backends may override it.
    pruning_policy: str = "lru"
    timing: TimingConfig = field(default_factory=TimingConfig)
    monitor_window: float = 1.0
    description: str = ""
    #: The backend tier, in build order. Defaults to one default backend.
    backends: list[BackendSpec] = field(default_factory=list)
    #: Edge name -> backend name. Accepts a mapping (possibly partial —
    #: unmapped edges go to the first backend) or a callable
    #: ``EdgeSpec -> backend name``; normalised to a complete dict at
    #: construction so specs stay plain picklable data.
    placement: Mapping[str, str] | Callable[[EdgeSpec], str] | None = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise ConfigurationError(
                f"scenario {self.name!r} needs at least one edge"
            )
        names = [edge.name for edge in self.edges]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"scenario {self.name!r} has duplicate edge names: {duplicates}"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {self.warmup}")
        if self.monitor_window <= 0:
            raise ConfigurationError(
                f"monitor_window must be positive, got {self.monitor_window}"
            )
        if self.deplist_max != UNBOUNDED and self.deplist_max < 0:
            raise ConfigurationError(
                f"deplist_max must be >= 0 or UNBOUNDED, got {self.deplist_max}"
            )
        validate_pruning_policy(self.pruning_policy)
        if not self.backends:
            self.backends = [BackendSpec(name=DEFAULT_BACKEND_NAME)]
        backend_names = [backend.name for backend in self.backends]
        if len(set(backend_names)) != len(backend_names):
            duplicates = sorted(
                {n for n in backend_names if backend_names.count(n) > 1}
            )
            raise ConfigurationError(
                f"scenario {self.name!r} has duplicate backend names: "
                f"{duplicates}"
            )
        self.placement = self._resolve_placement(set(backend_names))

    def _resolve_placement(self, backend_names: set[str]) -> dict[str, str]:
        """Normalise ``placement`` to a complete edge-name -> backend-name map."""
        default = self.backends[0].name
        if callable(self.placement):
            resolved = {edge.name: self.placement(edge) for edge in self.edges}
        else:
            given = dict(self.placement or {})
            unknown_edges = sorted(set(given) - {e.name for e in self.edges})
            if unknown_edges:
                raise ConfigurationError(
                    f"scenario {self.name!r}: placement names unknown edges "
                    f"{unknown_edges}"
                )
            resolved = {
                edge.name: given.get(edge.name, default) for edge in self.edges
            }
        unknown = sorted(set(resolved.values()) - backend_names)
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r}: placement routes edges to unknown "
                f"backends {unknown} (have {sorted(backend_names)})"
            )
        return resolved

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def total_time(self) -> float:
        return self.warmup + self.duration

    def edge(self, name: str) -> EdgeSpec:
        """The edge spec named ``name``."""
        for edge in self.edges:
            if edge.name == name:
                return edge
        raise KeyError(f"no edge named {name!r} in scenario {self.name!r}")

    # ------------------------------------------------------------------
    # Backend tier
    # ------------------------------------------------------------------

    def backend(self, name: str) -> BackendSpec:
        """The backend spec named ``name``."""
        for backend in self.backends:
            if backend.name == name:
                return backend
        raise KeyError(f"no backend named {name!r} in scenario {self.name!r}")

    def backend_for(self, edge_name: str) -> BackendSpec:
        """The backend serving the edge named ``edge_name``."""
        target = self.placement.get(edge_name)
        if target is None:
            raise KeyError(
                f"no edge named {edge_name!r} in scenario {self.name!r}"
            )
        return self.backend(target)

    def edges_on(self, backend_name: str) -> list[EdgeSpec]:
        """Every edge placed on ``backend_name``, in spec order."""
        self.backend(backend_name)  # raise KeyError for unknown backends
        return [
            edge
            for edge in self.edges
            if self.placement[edge.name] == backend_name
        ]

    def backend_deplist_max(self, backend: BackendSpec) -> int:
        """The effective dependency-list bound of ``backend``."""
        return (
            self.deplist_max
            if backend.deplist_max is None
            else backend.deplist_max
        )

    def backend_timing(self, backend: BackendSpec) -> TimingConfig:
        """The effective timing profile of ``backend``."""
        return self.timing if backend.timing is None else backend.timing

    def backend_pruning_policy(self, backend: BackendSpec) -> str:
        """The effective pruning policy of ``backend``."""
        return (
            self.pruning_policy
            if backend.pruning_policy is None
            else backend.pruning_policy
        )

    @classmethod
    def from_column(
        cls,
        config: "ColumnConfig",
        workload: Workload,
        *,
        read_workload: Workload | None = None,
        name: str = "column",
        backends: list[BackendSpec] | None = None,
    ) -> "ScenarioSpec":
        """A one-edge scenario equivalent to a legacy single-column run.

        With the default ``backends`` the resulting spec executes
        bit-identically to the pre-scenario ``run_column`` for the same
        config and workloads (the golden equivalence asserted by the
        integration tests); pass a custom tier (e.g. a sharded
        :class:`BackendSpec`) to re-run a column against it.
        """
        edge = EdgeSpec(
            name="edge0",
            workload=workload,
            read_workload=read_workload,
            **{name: getattr(config, name) for name in _COLUMN_FIELDS},
        )
        return cls(
            name=name,
            edges=[edge],
            seed=config.seed,
            duration=config.duration,
            warmup=config.warmup,
            deplist_max=config.deplist_max,
            pruning_policy=config.pruning_policy,
            timing=config.timing,
            monitor_window=config.monitor_window,
            backends=list(backends) if backends else [],
        )

    def edge_config(self, edge: EdgeSpec) -> "ColumnConfig":
        """The :class:`ColumnConfig` equivalent of one edge of this scenario.

        Used to stamp per-edge results with a self-describing config;
        ``deplist_limit`` has no single-column equivalent and is carried by
        the edge spec only. Backend-level overrides (deplist bound, timing,
        pruning) resolve through the edge's assigned backend.
        """
        from repro.experiments.config import ColumnConfig

        backend = self.backend_for(edge.name)
        return ColumnConfig(
            seed=self.seed,
            duration=self.duration,
            warmup=self.warmup,
            deplist_max=self.backend_deplist_max(backend),
            pruning_policy=self.backend_pruning_policy(backend),
            timing=self.backend_timing(backend),
            monitor_window=self.monitor_window,
            **{name: getattr(edge, name) for name in _COLUMN_FIELDS},
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe description of the whole topology.

        Round-trips through :meth:`from_dict` when every edge workload is
        portable (the synthetic families), so ``--json`` scenario artifacts
        can be replayed from the CLI.
        """
        return {
            "scenario": self.name,
            "description": self.description,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "deplist_max": self.deplist_max,
            "pruning_policy": self.pruning_policy,
            "timing": asdict(self.timing),
            "monitor_window": self.monitor_window,
            "edges": [edge.as_dict() for edge in self.edges],
            "backends": [backend.as_dict() for backend in self.backends],
            "placement": dict(self.placement),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a scenario from :meth:`as_dict` output (the round-trip
        loader behind ``repro-experiments scenario --spec file.json``).

        Payloads from before the backend tier (no ``backends`` key) load
        onto the default single backend.
        """
        given = _present(cls, payload)
        given["name"] = payload.get("scenario") or given.get("name") or "scenario"
        timing = given.pop("timing", None)
        if timing is not None:
            given["timing"] = TimingConfig(**timing)
        given["edges"] = [EdgeSpec.from_dict(edge) for edge in payload["edges"]]
        given["backends"] = [
            BackendSpec.from_dict(backend) for backend in given.get("backends", ())
        ]
        return cls(**given)
