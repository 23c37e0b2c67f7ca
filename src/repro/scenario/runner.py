"""Build and run a multi-edge, multi-backend scenario.

The executor generalises the historical single-column runner: one simulated
clock, one *tier* of transactional backends, one omniscient consistency
monitor — and one cache + invalidation channel + client population per
:class:`~repro.scenario.spec.EdgeSpec`. Every edge is wired to exactly one
backend (its placement): its cache misses read that backend, its update
clients commit there, and that backend's invalidation stream fans out to the
edge's channel with the edge's own loss and latency. Each backend allocates
versions from its own commit sequence, so the monitor classifies reads per
backend namespace (serialization-graph edges keyed by ``(backend,
version)``), and a cache receiving an invalidation stamped with a foreign
namespace raises — backends never share state.

Determinism and legacy equivalence
----------------------------------

Randomness follows the package's named-stream policy
(:class:`~repro.sim.rng.RngStreams`): each consumer draws from its own
independently seeded generator, so adding edges (or backends — databases
consume no randomness) never perturbs the draws of existing ones. Edge 0
uses the *historical* stream names (``invalidation-channel``,
``update-client``, ``read-client``) and the historical read-transaction id
range (ids from 1); every later edge namespaces its streams by edge name and
gets a disjoint id range. A one-edge scenario on the default single backend
therefore reproduces the pre-scenario ``run_column`` results bit for bit —
the golden-equivalence contract the integration tests enforce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cache.base import CacheServer
from repro.clients.read_client import ReadOnlyClient
from repro.clients.update_client import UpdateClient, UpdateClientStats
from repro.db.database import Database, DatabaseConfig, DatabaseStats
from repro.monitor.monitor import ConsistencyMonitor
from repro.protocols import protocol_for_edge
from repro.monitor.stats import CLASSES, ClassCounts, TimeSeries
from repro.scenario.results import (
    BackendAggregates,
    ColumnResult,
    FleetAggregates,
    ScenarioResult,
)
from repro.scenario.spec import BackendSpec, EdgeSpec, ScenarioSpec
from repro.sim.channel import Channel
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.types import Key

__all__ = [
    "Scenario",
    "ScenarioEdge",
    "build_scenario",
    "collect_column_result",
    "measured_counts",
    "run_scenario",
]

#: Read-transaction id stride between edges: edge ``i`` draws ids from
#: ``1 + i * stride``, keeping ids unique fleet-wide (edge 0 keeps the
#: historical range starting at 1).
TXN_ID_STRIDE = 1_000_000_000


@dataclass(slots=True)
class ScenarioEdge:
    """One wired edge: cache, invalidation channel and client populations."""

    spec: EdgeSpec
    index: int
    cache: CacheServer
    channel: Channel
    #: The backend database this edge is placed on.
    database: Database
    #: ``None`` when the edge's ``update_rate`` is 0 (a read-only region).
    update_client: UpdateClient | None
    read_client: ReadOnlyClient


@dataclass(slots=True)
class Scenario:
    """A fully wired fleet, exposed for integration tests and examples."""

    sim: Simulator
    spec: ScenarioSpec
    #: Backend databases in :attr:`ScenarioSpec.backends` order.
    databases: list[Database]
    monitor: ConsistencyMonitor
    edges: list[ScenarioEdge]

    @property
    def database(self) -> Database:
        """The primary (first) backend — *the* backend of single-backend
        scenarios, kept for the legacy single-column API."""
        return self.databases[0]

    def backend(self, name: str) -> Database:
        """The wired backend database named ``name``."""
        for database in self.databases:
            if database.namespace == name:
                return database
        raise KeyError(
            f"no backend named {name!r} in scenario {self.spec.name!r}"
        )

    def edge(self, name: str) -> ScenarioEdge:
        """The wired edge named ``name``."""
        for edge in self.edges:
            if edge.spec.name == name:
                return edge
        raise KeyError(f"no edge named {name!r} in scenario {self.spec.name!r}")


def _stream_name(index: int, edge_name: str, base: str) -> str:
    """Edge 0 keeps the historical stream names; see the module docstring."""
    return base if index == 0 else f"{edge_name}/{base}"


def _initial_objects(spec: ScenarioSpec, backend: BackendSpec) -> dict[Key, object]:
    """The union key universe of the edges placed on ``backend``, in edge
    order. Backends are independent stores: a key name appearing on two
    backends denotes two unrelated objects."""
    initial: dict[Key, object] = {}
    for edge in spec.edges_on(backend.name):
        for key in edge.workload.all_keys():
            initial.setdefault(key, f"init:{key}")
        if edge.read_workload is not None:
            for key in edge.read_workload.all_keys():
                initial.setdefault(key, f"init:{key}")
    return initial


def _make_cache(
    sim: Simulator,
    database: Database,
    edge: EdgeSpec,
    services: dict[tuple[str, str], object],
) -> CacheServer:
    """Build the edge's cache through the protocol registry.

    Every cache is constructed here, so the registry is the single seam for
    adding consistency protocols. ``services`` memoises one backend-side
    service per ``(protocol, backend namespace)`` pair: edges sharing a
    backend share its lock manager / signer / session registry, which is
    what gives cross-edge protocols their semantics.
    """
    protocol = protocol_for_edge(edge)
    service = None
    if protocol.backend_service is not None:
        service_key = (protocol.name, database.namespace)
        service = services.get(service_key)
        if service is None:
            service = services[service_key] = protocol.backend_service(
                sim, database
            )
    return protocol.build_cache(sim, database, edge, service)


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Wire every component of a fleet without running the clock."""
    sim = Simulator()
    streams = RngStreams(spec.seed)

    databases: list[Database] = []
    by_name: dict[str, Database] = {}
    for backend_spec in spec.backends:
        database = Database(
            sim,
            DatabaseConfig(
                shards=backend_spec.shards,
                deplist_max=spec.backend_deplist_max(backend_spec),
                timing=spec.backend_timing(backend_spec),
                name=backend_spec.name,
                pruning_policy=spec.backend_pruning_policy(backend_spec),
            ),
        )
        database.load(_initial_objects(spec, backend_spec))
        databases.append(database)
        by_name[backend_spec.name] = database

    monitor = ConsistencyMonitor(sim, window=spec.monitor_window)
    for database in databases:
        monitor.bind_backend(database.namespace)
        if len(databases) == 1:
            # The historical hookup: the bound method itself, recording into
            # the default namespace that bind_backend just aliased.
            database.add_commit_listener(monitor.record_update)
        else:
            database.add_commit_listener(
                lambda txn, _backend=database.namespace: monitor.record_update(
                    txn, backend=_backend
                )
            )

    edges: list[ScenarioEdge] = []
    protocol_services: dict[tuple[str, str], object] = {}
    for index, edge_spec in enumerate(spec.edges):
        database = by_name[spec.placement[edge_spec.name]]
        cache = _make_cache(sim, database, edge_spec, protocol_services)
        channel = Channel(
            sim,
            cache.handle_invalidation,
            latency=lambda rng, mean=edge_spec.invalidation_latency_mean: float(
                rng.exponential(mean)
            ),
            loss_probability=edge_spec.invalidation_loss,
            rng=streams.stream(
                _stream_name(index, edge_spec.name, "invalidation-channel")
            ),
            name=f"{edge_spec.name}/invalidations",
        )
        for outage_start, outage_end in edge_spec.invalidation_outages:
            channel.outage(outage_start, outage_end)
        database.register_invalidation_channel(channel)
        cache.add_transaction_listener(
            lambda record, _source=edge_spec.name, _backend=database.namespace: (
                monitor.record_read_only(record, _source, _backend)
            )
        )

        update_client = None
        if edge_spec.update_rate > 0:
            update_client = UpdateClient(
                sim,
                database,
                edge_spec.workload,
                rate=edge_spec.update_rate,
                rng=streams.stream(
                    _stream_name(index, edge_spec.name, "update-client")
                ),
                # Unlike the other component names this one is load-bearing:
                # the client embeds it in every value it writes, so edge 0
                # keeps the historical name for bit-identical stored state.
                name=(
                    "update-client"
                    if index == 0
                    else f"{edge_spec.name}/update-client"
                ),
            )
        read_client = ReadOnlyClient(
            sim,
            cache,
            edge_spec.read_workload or edge_spec.workload,
            rate=edge_spec.read_rate,
            rng=streams.stream(_stream_name(index, edge_spec.name, "read-client")),
            txn_ids=itertools.count(1 + index * TXN_ID_STRIDE),
            read_gap=edge_spec.read_gap,
            retry_aborted=edge_spec.retry_aborted_reads,
            name=f"{edge_spec.name}/read-client",
        )
        edges.append(
            ScenarioEdge(
                spec=edge_spec,
                index=index,
                cache=cache,
                channel=channel,
                database=database,
                update_client=update_client,
                read_client=read_client,
            )
        )

    return Scenario(
        sim=sim, spec=spec, databases=databases, monitor=monitor, edges=edges
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario to completion and collect per-edge + fleet metrics."""
    scenario = build_scenario(spec)
    scenario.sim.run(until=spec.total_time)
    return collect_scenario_result(scenario)


def measured_counts(series: TimeSeries, warmup: float) -> ClassCounts:
    """Classification counts from the windows at or after ``warmup``."""
    measured = ClassCounts()
    for start, counts in series.buckets():
        if start >= warmup:
            for label in CLASSES:
                setattr(measured, label, getattr(measured, label) + getattr(counts, label))
    return measured


def collect_column_result(
    total_time: float,
    series: TimeSeries,
    warmup: float,
    *,
    cache: CacheServer,
    db_stats,
    channel_stats,
    update_client: UpdateClient | None,
    read_client: ReadOnlyClient,
) -> ColumnResult:
    """Assemble one edge's :class:`ColumnResult` from its components.

    Shared by the scenario collector and the single-column shim
    (:func:`repro.experiments.runner.collect_result`) so the two paths can
    never drift in how metrics are extracted.
    """
    return ColumnResult(
        total_time=total_time,
        counts=measured_counts(series, warmup),
        cache_stats=cache.stats,
        db_stats=db_stats,
        channel_stats=channel_stats,
        update_client_stats=(
            update_client.stats
            if update_client is not None
            else UpdateClientStats()
        ),
        read_client_stats=read_client.stats,
        series=series.rates(),
        detections_eq1=getattr(cache, "detections_eq1", 0),
        detections_eq2=getattr(cache, "detections_eq2", 0),
        retries_resolved=getattr(cache, "retries_resolved", 0),
    )


def _variance(values: list[float]) -> float:
    """Population variance; 0.0 for fleets of one."""
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((value - mean) ** 2 for value in values) / len(values)


def _combined_db_stats(databases: list[Database]) -> DatabaseStats:
    """Tier-wide backend counters.

    For a single backend this is the backend's own live stats object
    (preserving the historical identity ``result.db_stats is
    result.edges[0].db_stats``); for a routed tier it is a synthesised sum.
    """
    if len(databases) == 1:
        return databases[0].stats
    total = DatabaseStats()
    for database in databases:
        total.committed += database.stats.committed
        total.aborted += database.stats.aborted
        total.entry_reads += database.stats.entry_reads
        total.invalidations_sent += database.stats.invalidations_sent
    return total


def collect_scenario_result(scenario: Scenario) -> ScenarioResult:
    """Extract a :class:`ScenarioResult` from a finished scenario."""
    spec = scenario.spec
    monitor = scenario.monitor

    edge_results: list[ColumnResult] = []
    for edge in scenario.edges:
        series = monitor.source_series.get(edge.spec.name)
        if series is None:  # edge finished no transaction at all
            series = TimeSeries(window=spec.monitor_window)
        edge_results.append(
            collect_column_result(
                spec.total_time,
                series,
                spec.warmup,
                cache=edge.cache,
                db_stats=edge.database.stats,
                channel_stats=edge.channel.stats,
                update_client=edge.update_client,
                read_client=edge.read_client,
            )
        )

    results_by_edge = {
        edge.spec.name: result
        for edge, result in zip(scenario.edges, edge_results)
    }
    backend_aggregates: list[BackendAggregates] = []
    for backend_spec, database in zip(spec.backends, scenario.databases):
        edge_names = [e.name for e in spec.edges_on(backend_spec.name)]
        series = monitor.backend_series.get(database.namespace)
        counts = (
            measured_counts(series, spec.warmup)
            if series is not None
            else ClassCounts()
        )
        db_accesses = sum(
            results_by_edge[name].cache_stats.db_accesses for name in edge_names
        )
        backend_aggregates.append(
            BackendAggregates(
                name=backend_spec.name,
                edges=edge_names,
                counts=counts,
                db_stats=database.stats,
                db_accesses=db_accesses,
                read_load=db_accesses / spec.total_time,
            )
        )

    cache_reads = sum(result.cache_stats.reads for result in edge_results)
    cache_hits = sum(result.cache_stats.hits for result in edge_results)
    db_accesses = sum(result.cache_stats.db_accesses for result in edge_results)
    fleet = FleetAggregates(
        counts=measured_counts(monitor.series, spec.warmup),
        cache_reads=cache_reads,
        cache_hits=cache_hits,
        db_accesses=db_accesses,
        backend_read_rate=db_accesses / spec.total_time,
        update_commits=sum(
            database.stats.committed for database in scenario.databases
        ),
        inconsistency_variance=_variance(
            [result.inconsistency_ratio for result in edge_results]
        ),
        hit_ratio_variance=_variance(
            [result.hit_ratio for result in edge_results]
        ),
        inconsistency_by_backend={
            aggregate.name: aggregate.inconsistency_ratio
            for aggregate in backend_aggregates
        },
    )
    return ScenarioResult(
        spec=spec,
        edges=edge_results,
        fleet=fleet,
        db_stats=_combined_db_stats(scenario.databases),
        backends=backend_aggregates,
    )
