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
