"""Unit tests for the experiments command-line interface."""

from __future__ import annotations

import json
import logging
import pstats

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main

UNREACHABLE = ["--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]


class TestCli:
    def test_experiment_registry_covers_every_figure(self) -> None:
        assert set(EXPERIMENTS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7ab", "fig7c", "fig7d",
            "fig8", "theorem1", "sensitivity", "scenario", "protocol-race",
        }

    def test_unknown_experiment_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2

    def test_fig7ab_runs_and_prints(self, capsys) -> None:
        assert main(["fig7ab"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7ab" in out
        assert "amazon" in out and "orkut" in out
        assert "done in" in out

    def test_duration_flag_parsed(self, capsys) -> None:
        # fig7ab ignores duration but must accept the flag.
        assert main(["fig7ab", "--duration", "5"]) == 0

    def test_jobs_flag_parsed(self, capsys) -> None:
        assert main(["fig7ab", "--jobs", "2"]) == 0

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_invalid_jobs_rejected_as_usage_error(self, value, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--jobs", value])
        assert excinfo.value.code == 2

    def test_worker_requires_connect(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2
        assert "--connect" in capsys.readouterr().err

    def test_connect_rejected_outside_worker(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--connect", "localhost:7643"])
        assert excinfo.value.code == 2

    def test_fault_rejected_outside_worker(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--fault", "crash:1"])
        assert excinfo.value.code == 2

    def test_worker_rejects_dispatch_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "localhost:1", "--dispatch", "h:2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["nocolon", "host:", "host:notaport", "h:70000"])
    def test_bad_hostport_rejected_as_usage_error(self, value, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--dispatch", value])
        assert excinfo.value.code == 2

    def test_dispatch_port_zero_rejected(self, capsys) -> None:
        # Port 0 would bind an ephemeral port nobody is told about.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--dispatch", "0.0.0.0:0"])
        assert excinfo.value.code == 2
        assert "ephemeral" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "crash", "explode:1", "stall:1:0"])
    def test_bad_fault_rejected_as_usage_error(self, value, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "localhost:1", "--fault", value])
        assert excinfo.value.code == 2

    def test_worker_with_no_coordinator_exits_nonzero(self, caplog) -> None:
        # Port 1 is never listening; the worker must give up after the
        # connect timeout and report failure (it served nothing).
        with caplog.at_level(logging.ERROR, logger="repro.dispatch.worker"):
            assert (
                main(
                    [
                        "worker",
                        "--connect",
                        "127.0.0.1:1",
                        "--connect-timeout",
                        "0.2",
                    ]
                )
                == 1
            )
        assert "could not reach a daemon" in caplog.text

    def test_json_artifact_written_and_loadable(self, tmp_path, capsys) -> None:
        path = tmp_path / "fig7ab.json"
        assert main(["fig7ab", "--json", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out

        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == "repro.experiments/v1"
        assert payload["jobs"] >= 1
        (experiment,) = payload["experiments"]
        assert experiment["experiment"] == "fig7ab"
        assert experiment["wall_clock_seconds"] >= 0.0
        (section,) = experiment["sections"]
        assert section["title"] == "Figure 7ab: topology statistics"
        workloads = {row["workload"] for row in section["rows"]}
        assert workloads == {"amazon", "orkut"}
        # fig7ab is pure graph analysis: no simulation grid behind it.
        assert experiment["sweep_specs"] == []

    def test_scenario_experiment_emits_per_edge_and_aggregate_json(
        self, tmp_path, capsys
    ) -> None:
        """A >=3-edge heterogeneous-loss fleet, end to end from the CLI."""
        path = tmp_path / "scenario.json"
        assert main(
            ["scenario", "--duration", "1", "--edges", "3", "--jobs", "2",
             "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "per-edge view" in out and "fleet aggregates" in out
        assert "per-backend view" in out

        import json as json_module

        with open(path) as handle:
            payload = json_module.load(handle)
        (experiment,) = payload["experiments"]
        per_edge, per_backend, per_fleet = experiment["sections"]
        fleet_rows = [
            row for row in per_edge["rows"] if row["scenario"] == "hetero-loss"
        ]
        assert len(fleet_rows) == 3
        losses = [row["loss_pct"] for row in fleet_rows]
        assert losses == sorted(losses) and losses[0] != losses[-1]
        aggregate = next(
            row for row in per_fleet["rows"] if row["scenario"] == "hetero-loss"
        )
        assert aggregate["edges"] == 3
        assert "backend_reads_per_s" in aggregate
        # The routed-tier scenarios run by default (--backends 2) and show
        # per-backend rows with distinct backends.
        regional = [
            row for row in per_backend["rows"]
            if row["scenario"] == "regional-backends"
        ]
        assert len(regional) == 2
        assert {row["backend"] for row in regional} == {
            "region0-db", "region1-db",
        }
        # The sweep spec records the whole topology per point.
        spec = experiment["sweep_specs"][0]
        scenario_column = spec["columns"][0]
        assert len(scenario_column["scenario"]["edges"]) == 3

    def test_invalid_edges_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--edges", "0"])
        assert excinfo.value.code == 2

    def test_invalid_backends_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--backends", "0"])
        assert excinfo.value.code == 2

    def test_spec_flag_only_for_scenario(self, tmp_path, capsys) -> None:
        path = tmp_path / "spec.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--spec", str(path)])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--spec", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2

    def test_spec_replay_round_trips_a_saved_scenario(
        self, tmp_path, capsys
    ) -> None:
        """`scenario --spec file.json` replays a ScenarioSpec.as_dict file."""
        from repro.scenario import regional_backends_scenario

        spec = regional_backends_scenario(
            regions=2,
            edges_per_region=2,
            objects_per_region=100,
            duration=1.0,
            warmup=0.5,
        )
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(spec.as_dict()))
        out_path = tmp_path / "replay.json"
        assert main(
            ["scenario", "--spec", str(path), "--json", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "per-backend view" in out
        with open(out_path) as handle:
            payload = json.load(handle)
        (experiment,) = payload["experiments"]
        per_edge, per_backend, _ = experiment["sections"]
        assert len(per_edge["rows"]) == 4
        assert {row["backend"] for row in per_backend["rows"]} == {
            "region0-db", "region1-db",
        }

    def test_spec_replay_honours_explicit_duration(self, tmp_path) -> None:
        """--duration overrides the recorded duration; omitting it keeps
        the spec file's value."""
        from repro.experiments.scenarios import replay_spec
        from repro.scenario import heterogeneous_loss_fleet

        spec = heterogeneous_loss_fleet(
            edges=2, n_objects=100, duration=2.0, warmup=0.5
        )
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(spec.as_dict()))
        recorded = replay_spec(str(path))
        assert recorded.points[0].scenario.duration == 2.0
        overridden = replay_spec(str(path), duration=1.0)
        assert overridden.points[0].scenario.duration == 1.0
        assert main(
            ["scenario", "--spec", str(path), "--duration", "1", "--jobs", "1"]
        ) == 0

    def test_spec_replay_artifact_records_actual_duration(
        self, tmp_path
    ) -> None:
        """Without --duration the artifact metadata must report the spec
        file's recorded duration, not the global default of 30."""
        from repro.scenario import heterogeneous_loss_fleet

        spec = heterogeneous_loss_fleet(
            edges=2, n_objects=100, duration=2.0, warmup=0.5
        )
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(spec.as_dict()))
        out_path = tmp_path / "out.json"
        assert main(
            ["scenario", "--spec", str(path), "--jobs", "1",
             "--json", str(out_path)]
        ) == 0
        with open(out_path) as handle:
            assert json.load(handle)["duration"] == 2.0

    def test_worker_rejects_fleet_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "localhost:1", "--fleet", "h:2"])
        assert excinfo.value.code == 2

    def test_dispatch_and_fleet_are_mutually_exclusive(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--dispatch", "h:1", "--fleet", "h:2"])
        assert excinfo.value.code == 2

    def test_fleet_port_zero_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--fleet", "localhost:0"])
        assert excinfo.value.code == 2

    def test_fleet_priority_requires_fleet(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--fleet-priority", "3"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--fleet-wait-timeout", "10"])
        assert excinfo.value.code == 2

    def test_max_idle_only_for_worker(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--max-idle", "5"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "localhost:1", "--max-idle", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["fig7ab"], 0),
            (["fleet", "status", "--journal-dir", "."], 0),
            # Port 1 is never listening: the verb fails, the dump still lands.
            (["fleet", "status", *UNREACHABLE], 1),
            (["fleet", "cancel", "some-sweep", *UNREACHABLE], 1),
        ],
        ids=["fig7ab", "status-offline", "status-unreachable", "cancel-unreachable"],
    )
    def test_profile_writes_stats_file(
        self, argv, code, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        assert main([*argv, "--profile", "verb.prof"]) == code
        assert pstats.Stats("verb.prof").total_calls > 0

    def test_fleet_requires_a_subcommand(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet"])
        assert excinfo.value.code == 2

    def test_fleet_submit_requires_connect(self, capsys, tmp_path) -> None:
        path = tmp_path / "spec.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "submit", str(path)])
        assert excinfo.value.code == 2
        assert "--connect" in capsys.readouterr().err

    def test_fleet_submit_rejects_non_sweep_payload(
        self, capsys, tmp_path
    ) -> None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "submit", str(path), "--connect", "localhost:1"])
        assert excinfo.value.code == 2
        assert "columns" in capsys.readouterr().err

    def test_fleet_status_with_no_daemon_fails_cleanly(self, capsys) -> None:
        # Port 1 is never listening: a clean error, not a traceback.
        assert main(
            ["fleet", "status", "--connect", "127.0.0.1:1",
             "--connect-timeout", "0.2"]
        ) == 1
        assert "fleet status:" in capsys.readouterr().err

    def test_fleet_status_needs_connect_or_journal_dir(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "status"])
        assert excinfo.value.code == 2
        assert "--journal-dir" in capsys.readouterr().err

    def test_fleet_status_rejects_connect_plus_journal_dir(
        self, capsys, tmp_path
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "status", "--connect", "127.0.0.1:1",
                  "--journal-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fleet_status_offline_reads_a_journal_dir(
        self, capsys, tmp_path
    ) -> None:
        from dataclasses import replace

        from repro.dispatch.journal import SweepJournal, sweep_fingerprint
        from repro.experiments.config import ColumnConfig
        from repro.experiments.sweep import (
            SweepPoint,
            SweepSpec,
            derive_seed,
            spec_artifact,
        )
        from repro.workloads.synthetic import PerfectClusterWorkload

        workload = PerfectClusterWorkload(n_objects=40, cluster_size=4)
        config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
        spec = SweepSpec(
            name="offline",
            root_seed=1,
            points=[
                SweepPoint(
                    label=f"c{i}",
                    config=replace(config, seed=derive_seed(1, i)),
                    workload=workload,
                    params={"i": i},
                )
                for i in range(2)
            ],
        )
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["fleet", "status", "--journal-dir", str(empty)]) == 0
        assert "offline-sweep" not in capsys.readouterr().out

        for name, points in (("offline-sweep", 1), ("offline-done", 2)):
            with SweepJournal.create(
                str(tmp_path),
                spec_artifact(spec),
                name=name,
                fingerprint=sweep_fingerprint(spec),
                priority=1,
            ) as journal:
                for index in range(points):
                    journal.record(index, {"kind": "column", "payload": {}})
        assert main(["fleet", "status", "--journal-dir", str(tmp_path)]) == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("offline-")
        ]
        # One row per journal, sorted by file name: sweep, state, completed,
        # total, priority, fingerprint.
        assert [row[:5] for row in rows] == [
            ["offline-done", "done", "2", "2", "1"],
            ["offline-sweep", "partial", "1", "2", "1"],
        ]
        assert not (tmp_path / ".index.json").exists()

    def test_json_artifact_embeds_sweep_configs(self, tmp_path) -> None:
        path = tmp_path / "fig3.json"
        assert main(["fig3", "--duration", "1", "--jobs", "2",
                     "--json", str(path)]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        (experiment,) = payload["experiments"]
        (spec,) = experiment["sweep_specs"]
        assert spec["spec"] == "fig3"
        assert len(spec["columns"]) == 8
        first = spec["columns"][0]
        assert first["params"]["alpha"] == pytest.approx(1 / 32)
        assert first["config"]["seed"] == 11
        assert first["config"]["strategy"] == "ABORT"
        # Rows and spec columns line up one-to-one.
        (section,) = experiment["sections"]
        assert len(section["rows"]) == len(spec["columns"])
