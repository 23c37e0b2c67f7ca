"""Ready-made multi-edge scenarios the single-column API could not express.

Five families, all parameterised and cheap to scale down for smoke tests:

* :func:`heterogeneous_loss_fleet` — N identical edges whose invalidation
  channels degrade progressively (0 % loss at the first edge, ``max_loss``
  at the last). The fleet aggregate shows how one bad region drags global
  inconsistency while the per-edge rows localise it.
* :func:`geo_skewed_scenario` — regions with *disjoint* hot sets (each edge
  updates and mostly reads its own key slice) plus a globally shared,
  globally updated segment that every region occasionally reads — the
  TransEdge/CausalMesh evaluation shape.
* :func:`flash_crowd_scenario` — one edge serving a flash crowd (high read
  rate concentrated on a small hot set) next to quiet edges, all over the
  same catalogue.

Three exercise the routed backend tier:

* :func:`regional_backends_scenario` — one backend database per region,
  several edges per region placed on it (a metro edge with a clean channel,
  outskirts with lossier ones), each region over its own key slice — the
  TransEdge shape of edge nodes over partitioned backends.
* :func:`hot_backend_overload` — a tier where one backend serves a
  flash-crowd edge while its peers idle; the per-backend aggregates expose
  the load imbalance that edge-level views average away.
* :func:`region_failure_drill` — one region's invalidation pipeline blacks
  out mid-run while a share of its users is displaced onto the surviving
  regions' backends; the drill measures both the failed region's stale
  serving and the survivors' absorption cost.

A grid of these fleets is a sweep, so it lives above this layer:
:func:`repro.experiments.scenarios.capacity_planning_sweep` re-runs the
regional tier across load multipliers and shard counts.
"""

from __future__ import annotations

from repro.core.strategies import Strategy
from repro.errors import ConfigurationError
from repro.scenario.spec import BackendSpec, EdgeSpec, ScenarioSpec
from repro.workloads.synthetic import (
    MixtureWorkload,
    OffsetWorkload,
    ParetoClusterWorkload,
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)

__all__ = [
    "flash_crowd_scenario",
    "geo_skewed_scenario",
    "heterogeneous_loss_fleet",
    "hot_backend_overload",
    "region_failure_drill",
    "regional_backends_scenario",
]


def heterogeneous_loss_fleet(
    *,
    edges: int = 3,
    max_loss: float = 0.4,
    n_objects: int = 1000,
    cluster_size: int = 5,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 101,
    read_rate: float = 400.0,
    update_rate: float = 80.0,
    strategy: Strategy = Strategy.ABORT,
) -> ScenarioSpec:
    """N identical edges over one catalogue, loss ramping from 0 to max."""
    if edges < 1:
        raise ConfigurationError(f"need at least one edge, got {edges}")
    workload = PerfectClusterWorkload(n_objects=n_objects, cluster_size=cluster_size)
    specs = [
        EdgeSpec(
            name=f"edge{index}",
            workload=workload,
            strategy=strategy,
            read_rate=read_rate,
            update_rate=update_rate,
            # 0 % at the first edge, max_loss at the last; a one-edge
            # "fleet" degenerates to the clean end of the ramp.
            invalidation_loss=max_loss * index / max(1, edges - 1),
        )
        for index in range(edges)
    ]
    return ScenarioSpec(
        name=f"hetero-loss-{edges}edges",
        description=(
            f"{edges} edges over one catalogue; invalidation loss ramps "
            f"0 -> {max_loss:g}"
        ),
        edges=specs,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def geo_skewed_scenario(
    *,
    regions: int = 3,
    objects_per_region: int = 600,
    shared_objects: int = 200,
    cluster_size: int = 5,
    remote_read_fraction: float = 0.1,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 211,
    read_rate: float = 400.0,
    update_rate: float = 80.0,
    shared_update_rate: float = 40.0,
) -> ScenarioSpec:
    """Regions with disjoint hot sets plus a globally shared segment.

    Each region's updates stay local; its reads are a mixture of the local
    slice and the shared segment (``remote_read_fraction``). The shared
    segment is updated by a dedicated write-heavy "origin" edge, so every
    region's view of it depends on that region's invalidation quality.
    """
    if regions < 2:
        raise ConfigurationError(f"geo skew needs >= 2 regions, got {regions}")
    if not 0.0 <= remote_read_fraction <= 1.0:
        raise ConfigurationError(
            f"remote_read_fraction must be in [0, 1], got {remote_read_fraction}"
        )
    shared = OffsetWorkload(
        PerfectClusterWorkload(
            n_objects=shared_objects, cluster_size=cluster_size
        ),
        offset=regions * objects_per_region,
    )
    specs = []
    for index in range(regions):
        local = OffsetWorkload(
            PerfectClusterWorkload(
                n_objects=objects_per_region, cluster_size=cluster_size
            ),
            offset=index * objects_per_region,
        )
        specs.append(
            EdgeSpec(
                name=f"region{index}",
                workload=local,
                read_workload=MixtureWorkload(
                    [(1.0 - remote_read_fraction, local), (remote_read_fraction, shared)]
                ),
                read_rate=read_rate,
                update_rate=update_rate,
                # Farther regions see progressively worse invalidation paths.
                invalidation_loss=0.1 + 0.2 * index / max(1, regions - 1),
                invalidation_latency_mean=0.05 * (1 + index),
            )
        )
    specs.append(
        EdgeSpec(
            name="origin",
            workload=shared,
            read_rate=100.0,
            update_rate=shared_update_rate,
            invalidation_loss=0.05,
            invalidation_latency_mean=0.01,
        )
    )
    return ScenarioSpec(
        name=f"geo-skew-{regions}regions",
        description=(
            f"{regions} regions with disjoint hot sets + shared segment "
            f"({remote_read_fraction:.0%} remote reads)"
        ),
        edges=specs,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def flash_crowd_scenario(
    *,
    quiet_edges: int = 2,
    n_objects: int = 1000,
    hot_objects: int = 100,
    cluster_size: int = 5,
    crowd_read_rate: float = 1500.0,
    quiet_read_rate: float = 150.0,
    update_rate: float = 100.0,
    hot_alpha: float = 4.0,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 307,
) -> ScenarioSpec:
    """One flash-crowd edge hammering a hot subset next to quiet edges.

    All edges share one catalogue updated at ``update_rate`` from the first
    quiet edge (the steady background traffic); the crowd edge itself is a
    read-only population concentrated on the first ``hot_objects`` keys with
    Pareto skew ``hot_alpha``.
    """
    if quiet_edges < 1:
        raise ConfigurationError(
            f"need at least one quiet edge, got {quiet_edges}"
        )
    if hot_objects > n_objects:
        raise ConfigurationError(
            f"hot_objects {hot_objects} exceeds catalogue size {n_objects}"
        )
    catalogue = PerfectClusterWorkload(n_objects=n_objects, cluster_size=cluster_size)
    hot_set = ParetoClusterWorkload(
        n_objects=hot_objects, cluster_size=cluster_size, alpha=hot_alpha
    )
    specs = [
        EdgeSpec(
            name="crowd",
            workload=catalogue,
            read_workload=hot_set,
            read_rate=crowd_read_rate,
            update_rate=0.0,  # a pure read surge
            strategy=Strategy.EVICT,
            invalidation_loss=0.2,
        )
    ]
    for index in range(quiet_edges):
        specs.append(
            EdgeSpec(
                name=f"quiet{index}",
                workload=catalogue,
                read_workload=UniformWorkload(n_objects=n_objects),
                read_rate=quiet_read_rate,
                # Background update traffic originates at the quiet edges.
                update_rate=update_rate if index == 0 else update_rate / 2,
                invalidation_loss=0.2,
            )
        )
    return ScenarioSpec(
        name=f"flash-crowd-{1 + quiet_edges}edges",
        description=(
            f"read surge ({crowd_read_rate:g}/s on {hot_objects} hot keys) "
            f"next to {quiet_edges} quiet edges"
        ),
        edges=specs,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def regional_backends_scenario(
    *,
    regions: int = 2,
    edges_per_region: int = 2,
    objects_per_region: int = 400,
    cluster_size: int = 5,
    shards: int = 1,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 401,
    read_rate: float = 300.0,
    update_rate: float = 60.0,
    max_loss: float = 0.35,
) -> ScenarioSpec:
    """One backend database per region, several edges placed on each.

    Region ``r`` owns a disjoint key slice served by its own backend
    (optionally sharded); its first edge is the metro site with a clean
    invalidation channel, and each further edge sits farther out with a
    progressively lossier, slower channel. All edges of a region read and
    update the regional slice, so every backend carries its region's full
    update stream while the monitor splits inconsistency per backend.
    """
    if regions < 1:
        raise ConfigurationError(f"need at least one region, got {regions}")
    if edges_per_region < 1:
        raise ConfigurationError(
            f"need at least one edge per region, got {edges_per_region}"
        )
    backends = [
        BackendSpec(name=f"region{index}-db", shards=shards)
        for index in range(regions)
    ]
    edges: list[EdgeSpec] = []
    placement: dict[str, str] = {}
    for region in range(regions):
        slice_workload = OffsetWorkload(
            PerfectClusterWorkload(
                n_objects=objects_per_region, cluster_size=cluster_size
            ),
            offset=region * objects_per_region,
        )
        for rank in range(edges_per_region):
            # rank 0 is the metro edge; channels degrade with distance.
            distance = (
                rank / (edges_per_region - 1) if edges_per_region > 1 else 0.0
            )
            edge = EdgeSpec(
                name=f"region{region}-edge{rank}",
                workload=slice_workload,
                read_rate=read_rate,
                update_rate=update_rate / edges_per_region,
                invalidation_loss=max_loss * distance,
                invalidation_latency_mean=0.02 * (1 + 3 * distance),
            )
            edges.append(edge)
            placement[edge.name] = backends[region].name
    return ScenarioSpec(
        name=f"regional-backends-{regions}x{edges_per_region}",
        description=(
            f"{regions} regional backends ({shards} shard(s) each), "
            f"{edges_per_region} edges per region over disjoint key slices"
        ),
        edges=edges,
        backends=backends,
        placement=placement,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def hot_backend_overload(
    *,
    backends: int = 3,
    n_objects: int = 400,
    hot_objects: int = 100,
    cluster_size: int = 5,
    crowd_read_rate: float = 1200.0,
    quiet_read_rate: float = 150.0,
    update_rate: float = 100.0,
    hot_alpha: float = 4.0,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 503,
) -> ScenarioSpec:
    """One overloaded backend in an otherwise quiet tier.

    Backend 0 serves two edges: a steady updater over its whole slice and a
    read-only crowd edge hammering a small hot subset. Every other backend
    serves a single quiet edge over its own slice. The per-backend
    aggregates expose the skew — read load, update commits and
    inconsistency concentrate on the hot backend — which the fleet-level
    averages alone would hide.
    """
    if backends < 2:
        raise ConfigurationError(
            f"overload needs at least two backends, got {backends}"
        )
    if hot_objects > n_objects:
        raise ConfigurationError(
            f"hot_objects {hot_objects} exceeds slice size {n_objects}"
        )
    tier = [BackendSpec(name=f"backend{index}") for index in range(backends)]
    hot_slice = PerfectClusterWorkload(
        n_objects=n_objects, cluster_size=cluster_size
    )
    hot_set = ParetoClusterWorkload(
        n_objects=hot_objects, cluster_size=cluster_size, alpha=hot_alpha
    )
    edges = [
        EdgeSpec(
            name="hot-updater",
            workload=hot_slice,
            read_workload=UniformWorkload(n_objects=n_objects),
            read_rate=quiet_read_rate,
            update_rate=update_rate,
            invalidation_loss=0.2,
        ),
        EdgeSpec(
            name="hot-crowd",
            workload=hot_slice,
            read_workload=hot_set,
            read_rate=crowd_read_rate,
            update_rate=0.0,  # a pure read surge
            strategy=Strategy.EVICT,
            invalidation_loss=0.2,
        ),
    ]
    placement = {"hot-updater": "backend0", "hot-crowd": "backend0"}
    for index in range(1, backends):
        slice_workload = OffsetWorkload(
            PerfectClusterWorkload(n_objects=n_objects, cluster_size=cluster_size),
            offset=index * n_objects,
        )
        edge = EdgeSpec(
            name=f"quiet{index}",
            workload=slice_workload,
            read_rate=quiet_read_rate,
            update_rate=update_rate / 4,
            invalidation_loss=0.1,
        )
        edges.append(edge)
        placement[edge.name] = f"backend{index}"
    return ScenarioSpec(
        name=f"hot-backend-{backends}backends",
        description=(
            f"backend0 serves a {crowd_read_rate:g}/s crowd on "
            f"{hot_objects} hot keys while {backends - 1} peer backend(s) idle"
        ),
        edges=edges,
        backends=tier,
        placement=placement,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )


def region_failure_drill(
    *,
    regions: int = 3,
    failed_region: int = 0,
    objects_per_region: int = 400,
    cluster_size: int = 5,
    takeover_fraction: float = 0.6,
    fail_at: float | None = None,
    recover_at: float | None = None,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 601,
    read_rate: float = 300.0,
    update_rate: float = 60.0,
) -> ScenarioSpec:
    """One region fails mid-run; the surviving tier absorbs its users.

    Each region has its own backend and one edge over a disjoint key slice.
    At ``fail_at`` (sim time; default 40 % into the measured window) the
    failed region's invalidation pipeline blacks out until ``recover_at``
    (default 70 % in) — the §II bursty failure, so its cache serves
    coherently stale data and the inconsistency bill arrives on recovery.
    Simultaneously ``takeover_fraction`` of the failed region's traffic is
    displaced onto the survivors, split evenly: every surviving edge's
    update *and* read workloads phase-switch at ``fail_at`` from pure-local
    to a mixture that includes a replica of the failed slice on the
    survivor's own backend (backends are independent key namespaces, so the
    replica keys are loaded at build time).  Per-backend rows show the
    surviving backends' commits and read load jump while the failed
    backend's edge drifts stale — failover load *and* consistency cost in
    one drill.
    """
    if regions < 2:
        raise ConfigurationError(
            f"a failure drill needs >= 2 regions, got {regions}"
        )
    if not 0 <= failed_region < regions:
        raise ConfigurationError(
            f"failed_region must be in [0, {regions}), got {failed_region}"
        )
    if not 0.0 <= takeover_fraction <= 1.0:
        raise ConfigurationError(
            f"takeover_fraction must be in [0, 1], got {takeover_fraction}"
        )
    fail_at = warmup + 0.4 * duration if fail_at is None else fail_at
    recover_at = warmup + 0.7 * duration if recover_at is None else recover_at
    if not 0 <= fail_at < recover_at:
        raise ConfigurationError(
            f"need 0 <= fail_at < recover_at, got [{fail_at}, {recover_at})"
        )

    def slice_for(region: int) -> OffsetWorkload:
        return OffsetWorkload(
            PerfectClusterWorkload(
                n_objects=objects_per_region, cluster_size=cluster_size
            ),
            offset=region * objects_per_region,
        )

    failed_slice = slice_for(failed_region)
    displaced_share = takeover_fraction / (regions - 1)
    backends = [
        BackendSpec(name=f"region{index}-db") for index in range(regions)
    ]
    edges: list[EdgeSpec] = []
    placement: dict[str, str] = {}
    for region in range(regions):
        local = slice_for(region)
        if region == failed_region:
            edge = EdgeSpec(
                name=f"region{region}",
                workload=local,
                read_rate=read_rate,
                update_rate=update_rate,
                invalidation_loss=0.1,
                # The failure window: total invalidation blackout.
                invalidation_outages=((fail_at, recover_at),),
            )
        else:
            # PhaseSwitch demands one key universe across phases, so the
            # pre-failure mixture carries the replica at weight zero.
            calm = MixtureWorkload([(1.0, local), (0.0, failed_slice)])
            absorbing = MixtureWorkload(
                [(1.0 - displaced_share, local), (displaced_share, failed_slice)]
            )
            takeover = PhaseSwitchWorkload(calm, absorbing, switch_time=fail_at)
            edge = EdgeSpec(
                name=f"region{region}",
                workload=takeover,
                read_workload=takeover,
                read_rate=read_rate,
                update_rate=update_rate,
                invalidation_loss=0.1,
            )
        edges.append(edge)
        placement[edge.name] = backends[region].name
    return ScenarioSpec(
        name=f"region-failure-{regions}regions",
        description=(
            f"region{failed_region} blacks out over [{fail_at:g}, "
            f"{recover_at:g}) while {takeover_fraction:.0%} of its traffic "
            f"shifts to {regions - 1} surviving backend(s)"
        ),
        edges=edges,
        backends=backends,
        placement=placement,
        seed=seed,
        duration=duration,
        warmup=warmup,
    )

