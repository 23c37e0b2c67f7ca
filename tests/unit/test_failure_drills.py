"""Unit tests for declarative invalidation outages and the drill fleets."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import capacity_planning_sweep
from repro.scenario import (
    EdgeSpec,
    ScenarioSpec,
    region_failure_drill,
    run_scenario,
)
from repro.workloads.synthetic import PerfectClusterWorkload


def one_edge_spec(**edge_overrides) -> ScenarioSpec:
    return ScenarioSpec(
        name="outage-test",
        seed=3,
        duration=6.0,
        warmup=0.0,
        edges=[
            EdgeSpec(
                name="edge0",
                workload=PerfectClusterWorkload(n_objects=120, cluster_size=5),
                **edge_overrides,
            )
        ],
    )


class TestInvalidationOutages:
    def test_windows_validated(self) -> None:
        with pytest.raises(ConfigurationError, match="outage window"):
            one_edge_spec(invalidation_outages=((3.0, 2.0),))
        with pytest.raises(ConfigurationError, match="outage window"):
            one_edge_spec(invalidation_outages=((-1.0, 2.0),))
        spec = one_edge_spec(invalidation_outages=((1.0, 2.0), (4.0, 5.0)))
        assert spec.edges[0].invalidation_outages == ((1.0, 2.0), (4.0, 5.0))

    def test_round_trips_through_json(self) -> None:
        spec = one_edge_spec(invalidation_outages=((1.5, 2.5),))
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert back.edges[0].invalidation_outages == ((1.5, 2.5),)
        assert back.as_dict() == spec.as_dict()

    def test_runner_applies_windows_to_the_channel(self) -> None:
        # Lossless channel + full-run outage window: nothing may deliver.
        blacked_out = run_scenario(
            one_edge_spec(
                invalidation_loss=0.0, invalidation_outages=((0.0, 6.0),)
            )
        )
        clean = run_scenario(one_edge_spec(invalidation_loss=0.0))
        assert blacked_out.edges[0].channel_stats.delivered == 0
        assert blacked_out.edges[0].channel_stats.dropped > 0
        assert clean.edges[0].channel_stats.dropped == 0

    def test_window_outside_run_changes_nothing(self) -> None:
        base = run_scenario(one_edge_spec())
        gated = run_scenario(one_edge_spec(invalidation_outages=((100.0, 200.0),)))
        assert gated.edges[0].counts == base.edges[0].counts
        assert gated.edges[0].channel_stats == base.edges[0].channel_stats


class TestRegionFailureDrill:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError, match="2 regions"):
            region_failure_drill(regions=1)
        with pytest.raises(ConfigurationError, match="failed_region"):
            region_failure_drill(regions=2, failed_region=2)
        with pytest.raises(ConfigurationError, match="takeover_fraction"):
            region_failure_drill(takeover_fraction=1.5)
        with pytest.raises(ConfigurationError, match="fail_at"):
            region_failure_drill(fail_at=10.0, recover_at=5.0)

    def test_topology_shape(self) -> None:
        spec = region_failure_drill(regions=3, duration=10.0, warmup=2.0)
        assert len(spec.backends) == 3
        assert len(spec.edges) == 3
        assert spec.placement == {
            "region0": "region0-db",
            "region1": "region1-db",
            "region2": "region2-db",
        }
        # Only the failed region's channel blacks out; the default window
        # sits inside the measured part of the run.
        (window,) = spec.edge("region0").invalidation_outages
        assert 2.0 <= window[0] < window[1] <= 12.0
        assert spec.edge("region1").invalidation_outages == ()

    def test_spec_is_portable(self) -> None:
        spec = region_failure_drill(
            regions=2, objects_per_region=80, duration=2.0, warmup=0.5
        )
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert back.as_dict() == spec.as_dict()

    def test_survivors_absorb_displaced_load(self) -> None:
        """After the failure the surviving backend serves reads of the
        failed region's replica keys, so its key universe must include them
        and its commits keep flowing."""
        from repro.scenario.runner import _initial_objects

        spec = region_failure_drill(
            regions=2,
            objects_per_region=60,
            duration=4.0,
            warmup=0.5,
            takeover_fraction=0.8,
        )
        # Replica slice (keys o000000..o000059 belong to region0) loaded on
        # the survivor's independent namespace at build time.
        survivor_keys = _initial_objects(spec, spec.backend("region1-db"))
        assert "o000000" in survivor_keys  # failed region's replica
        assert "o000060" in survivor_keys  # its own slice
        result = run_scenario(spec)
        for aggregate in result.backends:
            assert aggregate.update_commits > 0
        assert result.fleet.counts.total > 0


class TestCapacityPlanningSweep:
    def test_grid_shape_and_labels(self) -> None:
        sweep = capacity_planning_sweep(
            load_factors=(0.5, 1.0), shard_options=(1, 2), duration=2.0
        )
        assert len(sweep) == 4
        labels = [point.label for point in sweep.points]
        assert labels == [
            "load0.5x-shards1",
            "load0.5x-shards2",
            "load1x-shards1",
            "load1x-shards2",
        ]
        assert sweep.points[0].params == {"load_factor": 0.5, "shards": 1}
        # One shared seed: capacity comparisons hold the randomness fixed.
        assert len({point.scenario.seed for point in sweep.points}) == 1

    def test_load_factor_scales_rates(self) -> None:
        sweep = capacity_planning_sweep(
            load_factors=(1.0, 2.0), shard_options=(1,), base_read_rate=100.0
        )
        low, high = sweep.points
        assert high.scenario.edges[0].read_rate == 2 * low.scenario.edges[0].read_rate

    def test_shards_reach_the_backend_spec(self) -> None:
        sweep = capacity_planning_sweep(load_factors=(1.0,), shard_options=(3,))
        (point,) = sweep.points
        assert all(backend.shards == 3 for backend in point.scenario.backends)

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            capacity_planning_sweep(load_factors=())
        with pytest.raises(ConfigurationError):
            capacity_planning_sweep(shard_options=())
        with pytest.raises(ConfigurationError):
            capacity_planning_sweep(load_factors=(0.0,))

    def test_points_are_dispatchable(self) -> None:
        """The capacity grid is advertised as a natural dispatch workload —
        every point must be portable."""
        from repro.experiments.sweep import SweepSpec

        sweep = capacity_planning_sweep(load_factors=(1.0,), shard_options=(1,))
        back = SweepSpec.from_dict(json.loads(json.dumps(sweep.as_dict())))
        assert back.points[0].scenario.as_dict() == (
            sweep.points[0].scenario.as_dict()
        )
