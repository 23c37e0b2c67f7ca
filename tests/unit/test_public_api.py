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

    def test_cache_kind_is_gone(self) -> None:
        """1.6.0 removed the second cache selector outright: no enum, no
        module, no re-export — ``protocol`` is the one way to pick a cache."""
        import repro.experiments

        assert "CacheKind" not in repro.__all__
        assert "CacheKind" not in repro.experiments.__all__
        assert not hasattr(repro, "CacheKind")
        assert not hasattr(repro.experiments, "CacheKind")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.cache.kinds")

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
        """One dispatch stack: the one-shot ``Coordinator`` and its ``Chunk``
        are gone; what ``--dispatch`` needs is still importable."""
        import repro.dispatch as dispatch

        for name in dispatch.__all__:
            assert hasattr(dispatch, name), f"__all__ advertises missing {name!r}"
        assert not {"Coordinator", "Chunk"} & set(dispatch.__all__)
        assert not hasattr(dispatch, "Coordinator")
        assert {"DispatchSpec", "WorkQueue", "run_dispatched", "FleetDaemon"} <= set(
            dispatch.__all__
        )
        assert "chunk_size" not in dispatch.DispatchSpec.__dataclass_fields__

    def test_journal_index_is_gone(self) -> None:
        """1.7.0 removed the derived journal cache: journals are the only
        state, replayed by restarts and ``fleet status --journal-dir`` alike,
        and ``--journal-expiry`` archives inside the restart's replay."""
        import repro.dispatch as dispatch
        import repro.dispatch.journal as journal

        gone = {"JournalIndexEntry", "compact_finished", "journal_index"}
        assert not gone & set(dispatch.__all__)
        for name in gone | {"INDEX_FILENAME", "ARCHIVE_DIRNAME"}:
            assert not hasattr(dispatch, name)
            assert not hasattr(journal, name)

    def test_bench_is_gone(self, capsys) -> None:
        """1.8.0 removed the in-package perf suite and its ``bench`` verb:
        ``perf/`` is the one speed harness, and the two layer probes it
        lacks live in ``benchmarks/test_micro_overhead.py``."""
        from repro.experiments.__main__ import main

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(".bench", package="repro")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    def test_one_way_to_run_an_experiment(self) -> None:
        """1.10.0 removed the per-figure ``run*`` wrappers: a figure module
        exposes its grid, its table and its CLI row, and every caller writes
        ``rows(run_sweep(spec(...)))``.  The only ``run`` functions left in
        ``repro.experiments`` are the engine's two."""
        import pkgutil

        import repro.experiments
        from repro.experiments.config import ColumnConfig

        runners = []
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            for name, member in inspect.getmembers(module, inspect.isfunction):
                own = member.__module__ == module.__name__
                if own and (name == "run" or name.startswith("run_")):
                    runners.append(f"{info.name}.{name}")
        assert sorted(runners) == ["runner.run_column", "sweep.run_sweep"]
        assert not hasattr(ColumnConfig, "as_scenario")

    def test_counters_are_a_view_of_the_records(self) -> None:
        """1.11.0 removed the second book of counters: a ``Tracer`` records
        and derives its snapshot from the records; it counts nothing itself."""
        from repro.telemetry import Tracer

        tracer = Tracer()
        assert set(Tracer.__slots__) == {"point", "records"}
        for name in ("metrics", "count", "observe", "gauge"):
            assert not hasattr(tracer, name)
        for name in ("emit", "records", "record_dicts", "snapshot"):
            assert hasattr(tracer, name)

    def test_the_race_writes_one_artifact(self) -> None:
        """1.11.0 removed the never-written ``repro.protocol-race/1``
        payload: the race's artifact is its ``repro.experiments/v1``
        sections, and ``report`` returns their rows and ranking."""
        from repro.experiments import protocol_race

        for name in ("artifact", "validate_artifact", "RACE_SCHEMA"):
            assert not hasattr(protocol_race, name)
            assert name not in protocol_race.__all__
        assert inspect.signature(protocol_race.report).return_annotation == (
            "tuple[Rows, Rows]"
        )

    def test_one_worker_ledger_and_no_trace_global(self) -> None:
        """1.12.0 removed the second worker registry, its three chunk-size
        options, the ``--trace`` process global and the per-result
        ``ColumnConfig``: the daemon books each worker once, chunk sizing is
        module constants, a point traces by its own ``trace`` flag, and a
        result carries its run's ``total_time`` only."""
        import dataclasses

        from repro import dispatch, telemetry
        from repro.dispatch import daemon
        from repro.scenario.results import ColumnResult
        from repro.scenario.spec import ScenarioSpec

        for name in ("HealthTracker", "WorkerHealth"):
            assert not hasattr(dispatch, name)
            assert name not in dispatch.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.dispatch.health")
        fields = [field.name for field in dataclasses.fields(dispatch.FleetConfig)]
        assert len(fields) == 8
        for name in ("target_chunk_seconds", "probe_chunk_points", "max_chunk_points"):
            assert name not in fields
        assert (
            daemon.TARGET_CHUNK_SECONDS,
            daemon.PROBE_CHUNK_POINTS,
            daemon.MAX_CHUNK_POINTS,
        ) == (5.0, 1, 64)
        for name in ("enable", "disable", "enabled", "_ENABLED"):
            assert not hasattr(telemetry, name)
            assert name not in telemetry.__all__
        result_fields = [field.name for field in dataclasses.fields(ColumnResult)]
        assert "config" not in result_fields and "total_time" in result_fields
        assert not hasattr(ScenarioSpec, "edge_config")

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
