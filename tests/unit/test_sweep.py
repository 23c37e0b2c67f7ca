"""Unit tests for the parallel sweep engine.

The load-bearing property: a sweep's results are a pure function of its
spec — the executor (serial or process pool) must never show through.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import (
    SweepPoint,
    SweepSpec,
    config_as_dict,
    config_from_dict,
    derive_seed,
    ordered_results,
    resolve_jobs,
    run_sweep,
    spec_artifact,
)
from repro.workloads.synthetic import PerfectClusterWorkload, UniformWorkload


def tiny_spec(n_points: int = 3, duration: float = 1.0) -> SweepSpec:
    workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
    config = ColumnConfig(seed=1, duration=duration, warmup=0.5)
    return SweepSpec(
        name="tiny",
        root_seed=1,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(1, index)),
                workload=workload,
                params={"index": index},
            )
            for index in range(n_points)
        ],
    )


class TestPointValidation:
    def test_column_point_requires_config_and_workload(self) -> None:
        with pytest.raises(ConfigurationError):
            SweepPoint(label="bare")
        with pytest.raises(ConfigurationError):
            SweepPoint(label="no-workload", config=ColumnConfig(seed=1))

    def test_scenario_point_excludes_column_fields(self) -> None:
        from repro.scenario import heterogeneous_loss_fleet

        scenario = heterogeneous_loss_fleet(edges=2, duration=1.0)
        point = SweepPoint(label="fleet", scenario=scenario)
        assert point.scenario is scenario
        with pytest.raises(ConfigurationError):
            SweepPoint(
                label="both",
                scenario=scenario,
                config=ColumnConfig(seed=1),
                workload=PerfectClusterWorkload(n_objects=100, cluster_size=5),
            )


class TestScenarioPoints:
    def test_mixed_sweep_executes_both_point_kinds(self) -> None:
        from repro.scenario import ScenarioResult, heterogeneous_loss_fleet
        from repro.experiments.runner import ColumnResult

        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        spec = SweepSpec(
            name="mixed",
            points=[
                SweepPoint(
                    label="column",
                    config=ColumnConfig(seed=1, duration=1.0, warmup=0.5),
                    workload=workload,
                ),
                SweepPoint(
                    label="fleet",
                    scenario=heterogeneous_loss_fleet(
                        edges=2, n_objects=100, duration=1.0, warmup=0.5
                    ),
                ),
            ],
        )
        sweep = run_sweep(spec, jobs=1)
        assert isinstance(sweep.result_for("column"), ColumnResult)
        assert isinstance(sweep.result_for("fleet"), ScenarioResult)

        artifact = json.loads(json.dumps(sweep.to_artifact()))
        column, fleet = artifact["columns"]
        assert "counts" in column and "config" in column
        assert "result" in fleet and "scenario" in fleet
        assert len(fleet["result"]["edges"]) == 2


class TestSpecValidation:
    def test_duplicate_labels_rejected(self) -> None:
        point = tiny_spec(1).points[0]
        with pytest.raises(ConfigurationError):
            SweepSpec(name="dup", points=[point, replace(point)])

    def test_len_counts_points(self) -> None:
        assert len(tiny_spec(3)) == 3

    def test_derive_seed_is_deterministic_and_distinct(self) -> None:
        seeds = [derive_seed(11, index) for index in range(8)]
        assert seeds == [derive_seed(11, index) for index in range(8)]
        assert len(set(seeds)) == 8

    def test_derive_seed_rejects_negative_index(self) -> None:
        with pytest.raises(ConfigurationError):
            derive_seed(1, -1)


class TestResolveJobs:
    def test_none_means_all_cpus(self) -> None:
        assert resolve_jobs(None) >= 1

    def test_explicit_value_passes_through(self) -> None:
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_non_positive_rejected(self, jobs) -> None:
        with pytest.raises(ConfigurationError):
            resolve_jobs(jobs)


class TestExecution:
    def test_serial_results_in_spec_order(self) -> None:
        sweep = run_sweep(tiny_spec(3), jobs=1)
        assert [point.label for point, _ in sweep.pairs()] == [
            "col0", "col1", "col2",
        ]
        assert len(sweep.results) == 3
        assert sweep.jobs == 1
        assert sweep.wall_clock_seconds > 0.0
        for result in sweep.results:
            assert result.counts.total > 0

    def test_parallel_matches_serial_byte_for_byte(self) -> None:
        spec = tiny_spec(3)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(tiny_spec(3), jobs=4)
        for left, right in zip(serial.results, parallel.results):
            assert json.dumps(left.series) == json.dumps(right.series)
            assert left.counts == right.counts
            assert left.cache_stats == right.cache_stats

    def test_result_for_label(self) -> None:
        sweep = run_sweep(tiny_spec(2), jobs=1)
        assert sweep.result_for("col1") is sweep.results[1]
        with pytest.raises(KeyError):
            sweep.result_for("missing")

    def test_empty_spec_runs_to_empty_result(self) -> None:
        sweep = run_sweep(SweepSpec(name="empty", points=[]), jobs=4)
        assert sweep.results == []


class OpaqueWorkload:
    """A workload outside the portable synthetic families."""

    def access_set(self, rng, now):  # pragma: no cover - never executed
        return []

    def all_keys(self):
        return ["o%06d" % index for index in range(10)]


class TestOrderedResults:
    def test_restores_index_order(self) -> None:
        assert ordered_results(3, {2: "c", 0: "a", 1: "b"}) == ["a", "b", "c"]
        assert ordered_results(0, {}) == []

    def test_missing_indices_fail_loudly(self) -> None:
        with pytest.raises(DispatchError, match=r"\[1\]"):
            ordered_results(2, {0: "a"})


class TestSpecRoundTrip:
    def test_column_spec_round_trips_through_json(self) -> None:
        spec = tiny_spec(3)
        payload = json.loads(json.dumps(spec.as_dict()))
        back = SweepSpec.from_dict(payload)
        assert back.as_dict() == spec.as_dict()
        assert [p.label for p in back.points] == [p.label for p in spec.points]
        assert back.points[1].config == spec.points[1].config

    def test_rebuilt_spec_runs_identically(self) -> None:
        spec = tiny_spec(2)
        back = SweepSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        original = run_sweep(spec, jobs=1)
        replayed = run_sweep(back, jobs=1)
        for left, right in zip(original.results, replayed.results):
            assert json.dumps(left.series) == json.dumps(right.series)
            assert left.counts == right.counts

    def test_scenario_point_round_trips(self) -> None:
        from repro.scenario import heterogeneous_loss_fleet

        point = SweepPoint(
            label="fleet",
            scenario=heterogeneous_loss_fleet(edges=2, duration=1.0),
            params={"edges": 2},
        )
        back = SweepPoint.from_dict(json.loads(json.dumps(point.as_dict())))
        assert back.scenario.as_dict() == point.scenario.as_dict()
        assert back.params == {"edges": 2}

    def test_read_workload_travels(self) -> None:
        point = SweepPoint(
            label="split",
            config=ColumnConfig(seed=1, duration=1.0),
            workload=PerfectClusterWorkload(n_objects=100, cluster_size=5),
            read_workload=UniformWorkload(n_objects=100),
        )
        back = SweepPoint.from_dict(json.loads(json.dumps(point.as_dict())))
        assert isinstance(back.read_workload, UniformWorkload)
        assert back.read_workload.n_objects == 100

    def test_non_portable_workload_recorded_as_null(self) -> None:
        point = SweepPoint(
            label="opaque",
            config=ColumnConfig(seed=1, duration=1.0),
            workload=OpaqueWorkload(),
        )
        payload = point.as_dict()
        assert payload["workload"] == "OpaqueWorkload"
        assert payload["workload_spec"] is None
        json.dumps(payload)  # still a valid, descriptive artifact

    def test_non_portable_point_fails_loudly_on_rebuild(self) -> None:
        point = SweepPoint(
            label="opaque",
            config=ColumnConfig(seed=1, duration=1.0),
            workload=OpaqueWorkload(),
        )
        with pytest.raises(ConfigurationError, match="portable"):
            SweepPoint.from_dict(point.as_dict())
        spec = SweepSpec(name="s", points=[point])
        with pytest.raises(ConfigurationError, match="portable"):
            SweepSpec.from_dict(spec_artifact(spec))

    def test_non_portable_read_workload_fails_loudly(self) -> None:
        point = SweepPoint(
            label="opaque-read",
            config=ColumnConfig(seed=1, duration=1.0),
            workload=PerfectClusterWorkload(n_objects=100, cluster_size=5),
            read_workload=OpaqueWorkload(),
        )
        payload = point.as_dict()
        assert payload["read_workload_spec"] is None
        with pytest.raises(ConfigurationError, match="read_workload_spec"):
            SweepPoint.from_dict(payload)

    def test_rebuilt_points_share_one_workload_per_distinct_spec(self) -> None:
        config = ColumnConfig(seed=1, duration=0.5, warmup=0.2)
        clustered = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        uniform = UniformWorkload(n_objects=100)
        spec = SweepSpec(
            name="shared",
            points=[
                SweepPoint(
                    label=f"col{index}",
                    config=replace(config, seed=derive_seed(1, index)),
                    workload=clustered if index < 3 else uniform,
                    read_workload=uniform if index == 0 else None,
                )
                for index in range(5)
            ],
        )
        back = SweepSpec.from_dict(spec_artifact(spec))
        workloads = [point.workload for point in back.points]
        assert workloads[0] is workloads[1] is workloads[2]
        assert workloads[3] is workloads[4] is back.points[0].read_workload
        assert workloads[0] is not workloads[3]
        original = run_sweep(spec, jobs=1).to_artifact()
        replayed = run_sweep(back, jobs=1).to_artifact()
        del original["wall_clock_seconds"], replayed["wall_clock_seconds"]
        assert json.dumps(replayed) == json.dumps(original)

    def test_payload_without_columns_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="columns"):
            SweepSpec.from_dict({"spec": "x"})


class TestConfigRoundTrip:
    def test_defaults_and_enums_round_trip(self) -> None:
        from repro.core.strategies import Strategy

        config = ColumnConfig(
            seed=5, duration=3.0, strategy=Strategy.EVICT, deplist_max=7
        )
        back = config_from_dict(json.loads(json.dumps(config_as_dict(config))))
        assert back == config

    def test_unknown_enum_name_rejected(self) -> None:
        payload = config_as_dict(ColumnConfig(seed=1))
        payload["strategy"] = "PANIC"
        with pytest.raises(ConfigurationError, match="enum"):
            config_from_dict(payload)

    def test_misspelled_field_rejected(self) -> None:
        payload = config_as_dict(ColumnConfig(seed=1))
        payload["seeed"] = 3
        with pytest.raises(ConfigurationError, match="seeed"):
            config_from_dict(payload)


class TestArtifacts:
    def test_config_as_dict_is_json_safe(self) -> None:
        payload = config_as_dict(ColumnConfig(seed=3, duration=2.0))
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["seed"] == 3
        assert back["strategy"] == "ABORT"
        assert back["cache_kind"] == "TCACHE"
        assert isinstance(back["timing"], dict)

    def test_artifact_round_trips_through_json(self) -> None:
        sweep = run_sweep(tiny_spec(2), jobs=1)
        artifact = sweep.to_artifact()
        back = json.loads(json.dumps(artifact))
        assert back["spec"] == "tiny"
        assert back["jobs"] == 1
        assert len(back["columns"]) == 2
        column = back["columns"][0]
        assert column["label"] == "col0"
        assert column["params"] == {"index": 0}
        assert column["config"]["seed"] == 1
        assert isinstance(column["series"], list)
        assert column["counts"]["consistent"] >= 0
