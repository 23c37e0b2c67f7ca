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

import importlib

__version__ = "1.19.1"

#: Where each exported name lives.  Nothing is imported until first use
#: (PEP 562), so ``import repro.sim`` loads the simulator, not the sweep
#: engine, the scenario layer or the fleet.
_EXPORTS = {
    "repro.cache.base": ("CacheServer", "CacheStats", "CacheStorage"),
    "repro.cache.ttl": ("TTLCache",),
    "repro.core.deplist": ("UNBOUNDED", "DependencyList"),
    "repro.core.detector": ("InconsistencyReport", "check_read"),
    "repro.core.multiversion": ("MultiversionTCache",),
    "repro.core.strategies": ("Strategy",),
    "repro.core.tcache": ("TCache",),
    "repro.db.database": ("Database", "DatabaseConfig", "TimingConfig"),
    "repro.db.invalidation": ("InvalidationRecord",),
    "repro.errors": (
        "ConfigurationError",
        "InconsistencyDetected",
        "ReproError",
        "TransactionAborted",
    ),
    "repro.experiments.config": ("ColumnConfig",),
    "repro.experiments.runner": ("ColumnResult", "build_column", "run_column"),
    "repro.experiments.scenarios": ("capacity_planning_sweep",),
    "repro.monitor.monitor": ("ConsistencyMonitor",),
    "repro.monitor.sgt": ("SerializationGraphTester",),
    "repro.protocols": (
        "ProtocolSpec",
        "get_protocol",
        "protocol_for_edge",
        "protocol_names",
        "register_protocol",
    ),
    "repro.scenario": (
        "BackendAggregates",
        "BackendSpec",
        "EdgeSpec",
        "FleetAggregates",
        "ScenarioResult",
        "ScenarioSpec",
        "build_scenario",
        "flash_crowd_scenario",
        "geo_skewed_scenario",
        "heterogeneous_loss_fleet",
        "hot_backend_overload",
        "region_failure_drill",
        "regional_backends_scenario",
        "run_scenario",
    ),
    "repro.sim.core": ("Simulator",),
    "repro.sim.rng": ("BoundedPareto", "RngStreams"),
    "repro.types": ("DepEntry", "ReadResult", "VersionedValue"),
    "repro.workloads.graphs": (
        "amazon_like_graph",
        "orkut_like_graph",
        "topology_stats",
    ),
    "repro.workloads.sampling": ("random_walk_sample",),
    "repro.workloads.synthetic": (
        "DriftingClusterWorkload",
        "ParetoClusterWorkload",
        "PerfectClusterWorkload",
        "PhaseSwitchWorkload",
        "UniformWorkload",
    ),
    "repro.workloads.walker": ("RandomWalkWorkload",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
