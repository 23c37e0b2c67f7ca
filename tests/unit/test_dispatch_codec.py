"""Unit tests for the result wire codec and the worker fault plans."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.dispatch.codec import decode_result, decode_results, encode_result
from repro.dispatch.faults import FaultPlan
from repro.errors import ConfigurationError, DispatchError, ProtocolError
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import run_column
from repro.experiments.sweep import SweepPoint
from repro.scenario import run_scenario
from repro.scenario.library import heterogeneous_loss_fleet, region_failure_drill
from repro.workloads.synthetic import PerfectClusterWorkload


def wire_round_trip(payload: dict) -> dict:
    """What the protocol does to a result payload: JSON there and back."""
    return json.loads(json.dumps(payload))


class TestColumnResults:
    def test_column_result_survives_the_wire(self) -> None:
        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        config = ColumnConfig(seed=3, duration=1.0, warmup=0.5)
        point = SweepPoint(label="col", config=config, workload=workload)
        result = run_column(config, workload)

        decoded = decode_result(
            wire_round_trip(encode_result(result)), point
        )
        assert decoded.config is config  # reattached, not rebuilt
        assert decoded.counts == result.counts
        assert decoded.cache_stats == result.cache_stats
        assert decoded.db_stats == result.db_stats
        assert decoded.channel_stats == result.channel_stats
        assert decoded.update_client_stats == result.update_client_stats
        assert decoded.read_client_stats == result.read_client_stats
        assert json.dumps(decoded.series) == json.dumps(result.series)
        assert decoded.detections_eq1 == result.detections_eq1
        assert decoded.detections_eq2 == result.detections_eq2

    def test_kind_mismatch_rejected(self) -> None:
        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        config = ColumnConfig(seed=3, duration=1.0, warmup=0.5)
        column_point = SweepPoint(label="col", config=config, workload=workload)
        scenario_point = SweepPoint(
            label="fleet",
            scenario=heterogeneous_loss_fleet(edges=2, n_objects=100, duration=1.0),
        )
        result = run_column(config, workload)
        payload = wire_round_trip(encode_result(result))
        with pytest.raises(ProtocolError, match="column result"):
            decode_result(payload, scenario_point)
        payload["kind"] = "scenario"
        # A forged kind still cannot decode against a column point.
        with pytest.raises(ProtocolError, match="scenario result"):
            decode_result(payload, column_point)

    def test_unknown_kind_rejected(self) -> None:
        point = SweepPoint(
            label="col",
            config=ColumnConfig(seed=1),
            workload=PerfectClusterWorkload(n_objects=100, cluster_size=5),
        )
        with pytest.raises(ProtocolError, match="kind"):
            decode_result({"kind": "mystery"}, point)
        with pytest.raises(ProtocolError, match="kind"):
            decode_result({}, point)

    def test_whole_sweep_decodes_in_spec_order_and_polices_indices(self) -> None:
        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        points = [
            SweepPoint(
                label=f"col{seed}",
                config=ColumnConfig(seed=seed, duration=0.6, warmup=0.3),
                workload=workload,
            )
            for seed in (1, 2)
        ]
        wire = [
            wire_round_trip(encode_result(run_column(point.config, workload)))
            for point in points
        ]
        decoded = decode_results(points, [(1, wire[1]), (0, wire[0])])
        assert [result.config for result in decoded] == [p.config for p in points]
        for bad in (2, -1, True, "0"):
            with pytest.raises(ProtocolError, match="outside the sweep"):
                decode_results(points, [(bad, wire[0])])
        with pytest.raises(DispatchError, match="sweep incomplete"):
            decode_results(points, [(0, wire[0])])


class TestScenarioResults:
    def test_scenario_result_artifact_is_byte_identical(self) -> None:
        spec = region_failure_drill(
            regions=2, objects_per_region=100, duration=2.0, warmup=0.5
        )
        point = SweepPoint(label="drill", scenario=spec)
        result = run_scenario(spec)

        decoded = decode_result(wire_round_trip(encode_result(result)), point)
        assert decoded.spec is spec  # the coordinator's own spec object
        assert json.dumps(decoded.to_artifact()) == json.dumps(
            result.to_artifact()
        )
        assert asdict(decoded.fleet) == asdict(result.fleet)
        assert [asdict(b) for b in decoded.backends] == [
            asdict(b) for b in result.backends
        ]

    def test_edge_count_mismatch_rejected(self) -> None:
        spec = heterogeneous_loss_fleet(edges=2, n_objects=100, duration=1.0)
        point = SweepPoint(label="fleet", scenario=spec)
        result = run_scenario(spec)
        payload = wire_round_trip(encode_result(result))
        payload["edges"] = payload["edges"][:1]
        with pytest.raises(ProtocolError, match="edges"):
            decode_result(payload, point)


class TestFaultPlans:
    def test_parse_forms(self) -> None:
        plan = FaultPlan.parse("crash:3")
        assert (plan.kind, plan.after_points) == ("crash", 3)
        plan = FaultPlan.parse("stall:1:7.5")
        assert (plan.kind, plan.after_points, plan.stall_seconds) == (
            "stall", 1, 7.5,
        )
        assert FaultPlan.parse("disconnect:0").kind == "disconnect"

    @pytest.mark.parametrize(
        "text",
        ["", "crash", "crash:x", "explode:1", "crash:-1", "stall:1:0", "a:1:2:3"],
    )
    def test_bad_specs_rejected(self, text: str) -> None:
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_trigger_threshold(self) -> None:
        plan = FaultPlan(kind="crash", after_points=2)
        assert not plan.triggers_after(1)
        assert plan.triggers_after(2)
        assert plan.triggers_after(3)
