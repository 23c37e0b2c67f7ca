"""T-Cache: cache serializability for edge transactions.

A full reproduction of *"Cache Serializability: Reducing Inconsistency in
Edge Transactions"* (Eyal, Birman, van Renesse — ICDCS 2015): the T-Cache
protocol, the transactional two-phase-commit backend it runs against, the
lossy invalidation pipeline, the serialization-graph consistency monitor,
and every workload and experiment from the paper's evaluation.

Quickstart::

    from repro import ColumnConfig, PerfectClusterWorkload, Strategy, run_column

    workload = PerfectClusterWorkload(n_objects=1000, cluster_size=5)
    config = ColumnConfig(seed=7, duration=20.0, strategy=Strategy.EVICT)
    result = run_column(config, workload)
    print(f"inconsistency ratio: {result.inconsistency_ratio:.2%}")
    print(f"detection ratio:     {result.detection_ratio:.2%}")

Multi-edge topologies are first-class via the scenario API::

    from repro import EdgeSpec, ScenarioSpec, run_scenario

    spec = ScenarioSpec(name="two-regions", edges=[
        EdgeSpec(name="eu", workload=workload, invalidation_loss=0.05),
        EdgeSpec(name="ap", workload=workload, invalidation_loss=0.40),
    ])
    fleet = run_scenario(spec)
    print(f"fleet inconsistency: {fleet.fleet.inconsistency_ratio:.2%}")
    print(f"worst edge:          {fleet.edge('ap').inconsistency_ratio:.2%}")
"""

from repro.cache.base import CacheServer, CacheStats, CacheStorage
from repro.cache.ttl import TTLCache
from repro.core.deplist import UNBOUNDED, DependencyList
from repro.core.detector import InconsistencyReport, check_read
from repro.core.multiversion import MultiversionTCache
from repro.core.strategies import Strategy
from repro.core.tcache import TCache
from repro.db.database import Database, DatabaseConfig, TimingConfig
from repro.db.invalidation import InvalidationRecord
from repro.errors import (
    ConfigurationError,
    InconsistencyDetected,
    ReproError,
    TransactionAborted,
)
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import ColumnResult, build_column, run_column
from repro.monitor.monitor import ConsistencyMonitor
from repro.protocols import (
    ProtocolSpec,
    get_protocol,
    protocol_for_edge,
    protocol_names,
    register_protocol,
)
from repro.scenario import (
    BackendAggregates,
    BackendSpec,
    EdgeSpec,
    FleetAggregates,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    capacity_planning_sweep,
    flash_crowd_scenario,
    geo_skewed_scenario,
    heterogeneous_loss_fleet,
    hot_backend_overload,
    region_failure_drill,
    regional_backends_scenario,
    run_scenario,
)
from repro.monitor.sgt import SerializationGraphTester
from repro.sim.core import Simulator
from repro.sim.rng import BoundedPareto, RngStreams
from repro.types import DepEntry, ReadResult, VersionedValue
from repro.workloads.graphs import amazon_like_graph, orkut_like_graph, topology_stats
from repro.workloads.sampling import random_walk_sample
from repro.workloads.synthetic import (
    DriftingClusterWorkload,
    ParetoClusterWorkload,
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)
from repro.workloads.walker import RandomWalkWorkload

__version__ = "1.13.0"

__all__ = [
    "BackendAggregates",
    "BackendSpec",
    "BoundedPareto",
    "CacheServer",
    "CacheStats",
    "CacheStorage",
    "ColumnConfig",
    "ColumnResult",
    "ConfigurationError",
    "ConsistencyMonitor",
    "Database",
    "DatabaseConfig",
    "DepEntry",
    "DependencyList",
    "DriftingClusterWorkload",
    "EdgeSpec",
    "FleetAggregates",
    "InconsistencyDetected",
    "InconsistencyReport",
    "InvalidationRecord",
    "MultiversionTCache",
    "ParetoClusterWorkload",
    "PerfectClusterWorkload",
    "PhaseSwitchWorkload",
    "ProtocolSpec",
    "RandomWalkWorkload",
    "ReadResult",
    "ReproError",
    "RngStreams",
    "ScenarioResult",
    "ScenarioSpec",
    "SerializationGraphTester",
    "Simulator",
    "Strategy",
    "TCache",
    "TTLCache",
    "TimingConfig",
    "TransactionAborted",
    "UNBOUNDED",
    "UniformWorkload",
    "VersionedValue",
    "amazon_like_graph",
    "build_column",
    "build_scenario",
    "capacity_planning_sweep",
    "check_read",
    "flash_crowd_scenario",
    "geo_skewed_scenario",
    "get_protocol",
    "heterogeneous_loss_fleet",
    "hot_backend_overload",
    "orkut_like_graph",
    "protocol_for_edge",
    "protocol_names",
    "region_failure_drill",
    "regional_backends_scenario",
    "random_walk_sample",
    "register_protocol",
    "run_column",
    "run_scenario",
    "topology_stats",
]
