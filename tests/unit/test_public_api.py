"""Tests for the package's public surface: everything advertised importable,
documented, and wired to the same objects the submodules export."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro


#: Every name ``repro`` exports, mapped to the module ``repro/__init__.py``
#: takes it from (not ``__module__``: constants such as ``UNBOUNDED`` have
#: none).
FACADE = {
    "BackendAggregates": "repro.scenario",
    "BackendSpec": "repro.scenario",
    "BoundedPareto": "repro.sim.rng",
    "CacheServer": "repro.cache.base",
    "CacheStats": "repro.cache.base",
    "CacheStorage": "repro.cache.base",
    "ColumnConfig": "repro.experiments.config",
    "ColumnResult": "repro.experiments.runner",
    "ConfigurationError": "repro.errors",
    "ConsistencyMonitor": "repro.monitor.monitor",
    "Database": "repro.db.database",
    "DatabaseConfig": "repro.db.database",
    "DepEntry": "repro.types",
    "DependencyList": "repro.core.deplist",
    "DriftingClusterWorkload": "repro.workloads.synthetic",
    "EdgeSpec": "repro.scenario",
    "FleetAggregates": "repro.scenario",
    "InconsistencyDetected": "repro.errors",
    "InconsistencyReport": "repro.core.detector",
    "InvalidationRecord": "repro.db.invalidation",
    "MultiversionTCache": "repro.core.multiversion",
    "ParetoClusterWorkload": "repro.workloads.synthetic",
    "PerfectClusterWorkload": "repro.workloads.synthetic",
    "PhaseSwitchWorkload": "repro.workloads.synthetic",
    "ProtocolSpec": "repro.protocols",
    "RandomWalkWorkload": "repro.workloads.walker",
    "ReadResult": "repro.types",
    "ReproError": "repro.errors",
    "RngStreams": "repro.sim.rng",
    "ScenarioResult": "repro.scenario",
    "ScenarioSpec": "repro.scenario",
    "SerializationGraphTester": "repro.monitor.sgt",
    "Simulator": "repro.sim.core",
    "Strategy": "repro.core.strategies",
    "TCache": "repro.core.tcache",
    "TTLCache": "repro.cache.ttl",
    "TimingConfig": "repro.db.database",
    "TransactionAborted": "repro.errors",
    "UNBOUNDED": "repro.core.deplist",
    "UniformWorkload": "repro.workloads.synthetic",
    "VersionedValue": "repro.types",
    "amazon_like_graph": "repro.workloads.graphs",
    "build_column": "repro.experiments.runner",
    "build_scenario": "repro.scenario",
    "capacity_planning_sweep": "repro.experiments.scenarios",
    "check_read": "repro.core.detector",
    "flash_crowd_scenario": "repro.scenario",
    "geo_skewed_scenario": "repro.scenario",
    "get_protocol": "repro.protocols",
    "heterogeneous_loss_fleet": "repro.scenario",
    "hot_backend_overload": "repro.scenario",
    "orkut_like_graph": "repro.workloads.graphs",
    "protocol_for_edge": "repro.protocols",
    "protocol_names": "repro.protocols",
    "random_walk_sample": "repro.workloads.sampling",
    "region_failure_drill": "repro.scenario",
    "regional_backends_scenario": "repro.scenario",
    "register_protocol": "repro.protocols",
    "run_column": "repro.experiments.runner",
    "run_scenario": "repro.scenario",
    "topology_stats": "repro.workloads.graphs",
}


class TestFacade:
    def test_exports_exactly_the_recorded_names(self) -> None:
        assert sorted(repro.__all__) == sorted(FACADE)

    @pytest.mark.parametrize("name", sorted(FACADE))
    def test_each_name_is_its_module_attribute(self, name: str) -> None:
        module = importlib.import_module(FACADE[name])
        assert getattr(repro, name) is getattr(module, name)

    def test_star_import_binds_exactly_all(self) -> None:
        namespace: dict[str, object] = {}
        exec("from repro import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(repro.__all__)


class TestPublicAPI:
    def test_all_names_resolve(self) -> None:
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ advertises missing {name!r}"

    def test_version_is_set(self) -> None:
        assert repro.__version__

    def test_reexports_are_canonical(self) -> None:
        from repro.core.tcache import TCache
        from repro.experiments.runner import run_column
        from repro.monitor.sgt import SerializationGraphTester

        assert repro.TCache is TCache
        assert repro.run_column is run_column
        assert repro.SerializationGraphTester is SerializationGraphTester

    def test_historical_paths_still_canonical_after_moves(self) -> None:
        """The scenario redesign moved these; old import paths must keep
        resolving to the same objects."""
        from repro.experiments.runner import ColumnResult as LegacyColumnResult
        from repro.scenario.results import ColumnResult

        assert LegacyColumnResult is ColumnResult
        assert repro.ColumnResult is ColumnResult

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.sim",
            "repro.db",
            "repro.core",
            "repro.cache",
            "repro.monitor",
            "repro.workloads",
            "repro.clients",
            "repro.experiments",
            "repro.scenario",
            "repro.dispatch",
        ],
    )
    def test_subpackages_have_docstrings(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_dispatch_exports_one_server(self) -> None:
        """One dispatch stack: what ``--dispatch`` needs is importable (the
        retired one-shot ``Coordinator`` is a row of ``retired.json``)."""
        import repro.dispatch as dispatch

        for name in dispatch.__all__:
            assert hasattr(dispatch, name), f"__all__ advertises missing {name!r}"
        assert {"DispatchSpec", "WorkQueue", "run_dispatched", "FleetDaemon"} <= set(
            dispatch.__all__
        )

    def test_one_way_to_run_an_experiment(self) -> None:
        """1.10.0 removed the per-figure ``run*`` wrappers: a figure module
        exposes its grid, its table and its CLI row, and every caller writes
        ``rows(run_sweep(spec(...)))``.  The only ``run`` functions left in
        ``repro.experiments`` are the engine's two (``ColumnConfig.as_scenario``
        is a row of ``tests/data/retired.json``)."""
        import pkgutil

        import repro.experiments

        runners = []
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            for name, member in inspect.getmembers(module, inspect.isfunction):
                own = member.__module__ == module.__name__
                if own and (name == "run" or name.startswith("run_")):
                    runners.append(f"{info.name}.{name}")
        assert sorted(runners) == ["runner.run_column", "sweep.run_sweep"]

    def test_counters_are_a_view_of_the_records(self) -> None:
        """1.11.0 removed the second book of counters: a ``Tracer`` records
        and derives its snapshot from the records; it counts nothing itself
        (its retired counting methods are rows of ``tests/data/retired.json``)."""
        from repro.telemetry import Tracer

        tracer = Tracer()
        assert set(Tracer.__slots__) == {"point", "records"}
        for name in ("emit", "records", "record_dicts", "snapshot"):
            assert hasattr(tracer, name)

    def test_the_race_writes_one_artifact(self) -> None:
        """1.11.0 removed the never-written ``repro.protocol-race/1``
        payload: the race's artifact is its ``repro.experiments/v1``
        sections, and ``report`` returns their rows and ranking (the retired
        names are rows of ``tests/data/retired.json``)."""
        from repro.experiments import protocol_race

        assert inspect.signature(protocol_race.report).return_annotation == (
            "tuple[Rows, Rows]"
        )

    def test_one_worker_ledger_and_no_trace_global(self) -> None:
        """1.12.0 removed the second worker registry, its three chunk-size
        options, the ``--trace`` process global and the per-result
        ``ColumnConfig`` (each a row of ``tests/data/retired.json``): chunk
        sizing is module constants, and a result carries its run's
        ``total_time`` only."""
        import dataclasses

        from repro import dispatch
        from repro.dispatch import fleet
        from repro.scenario.results import ColumnResult

        assert len(dataclasses.fields(dispatch.FleetConfig)) == 8
        assert (
            fleet.TARGET_CHUNK_SECONDS,
            fleet.PROBE_CHUNK_POINTS,
            fleet.MAX_CHUNK_POINTS,
        ) == (5.0, 1, 64)
        result_fields = [field.name for field in dataclasses.fields(ColumnResult)]
        assert "total_time" in result_fields

    def test_importing_the_package_leaves_networkx_out(self) -> None:
        """Only the Fig. 7 topologies need networkx (~0.1 s to import); every
        CLI start, pool worker and fleet worker would otherwise pay for it."""
        probe = (
            "import sys, repro, repro.experiments.runner, repro.dispatch; "
            "sys.exit('networkx' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_public_classes_are_documented(self) -> None:
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_class_methods_are_documented(self) -> None:
        """Every public method on the headline classes carries a docstring."""
        from repro import CacheServer, Database, DependencyList, TCache

        undocumented = []
        for cls in (Database, TCache, CacheServer, DependencyList):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not getattr(member, "__doc__", None):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"
