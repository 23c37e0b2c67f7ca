"""Unit tests for the scenario API: specs, wiring, results, library fleets."""

from __future__ import annotations

import pytest

from repro.core.strategies import Strategy
from repro.errors import ConfigurationError
from repro.experiments.config import ColumnConfig
from repro.scenario import (
    DEFAULT_BACKEND_NAME,
    BackendSpec,
    EdgeSpec,
    ScenarioSpec,
    build_scenario,
    flash_crowd_scenario,
    geo_skewed_scenario,
    heterogeneous_loss_fleet,
    hot_backend_overload,
    regional_backends_scenario,
    run_scenario,
)
from repro.scenario.runner import TXN_ID_STRIDE
from repro.scenario.spec import _COLUMN_FIELDS
from repro.workloads.synthetic import PerfectClusterWorkload, UniformWorkload

WORKLOAD = PerfectClusterWorkload(n_objects=100, cluster_size=5)


def edge(name: str = "edge0", **overrides) -> EdgeSpec:
    defaults = dict(name=name, workload=WORKLOAD)
    defaults.update(overrides)
    return EdgeSpec(**defaults)


def tiny_scenario(*edges_: EdgeSpec, **overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        edges=list(edges_) or [edge()],
        seed=3,
        duration=1.5,
        warmup=0.5,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_minimal_spec_builds(self) -> None:
        spec = tiny_scenario()
        assert len(spec) == 1
        assert spec.total_time == 2.0

    def test_empty_fleet_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="empty", edges=[])

    def test_duplicate_edge_names_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="duplicate edge names"):
            tiny_scenario(edge("same"), edge("same"))

    def test_bad_rates_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            edge(read_rate=0.0)
        with pytest.raises(ConfigurationError):
            edge(update_rate=-1.0)

    def test_loss_out_of_range_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            edge(invalidation_loss=1.5)

    def test_ttl_kind_requires_ttl(self) -> None:
        with pytest.raises(ConfigurationError):
            edge(protocol="ttl")
        assert edge(protocol="ttl", ttl=0.5).ttl == 0.5

    def test_deplist_limit_only_for_checking_caches(self) -> None:
        assert edge(deplist_limit=3).deplist_limit == 3
        with pytest.raises(ConfigurationError):
            edge(protocol="plain", deplist_limit=3)
        with pytest.raises(ConfigurationError):
            edge(deplist_limit=-1)

    def test_tcache_rejects_negative_deplist_limit_directly(self) -> None:
        """The cache validates too — not only the edge spec."""
        from repro.core.tcache import TCache
        from repro.sim.core import Simulator
        from tests.helpers import FakeBackend

        with pytest.raises(ConfigurationError):
            TCache(Simulator(), FakeBackend({"a": "a0"}), deplist_limit=-1)

    def test_edge_lookup(self) -> None:
        spec = tiny_scenario(edge("a"), edge("b"))
        assert spec.edge("b").name == "b"
        with pytest.raises(KeyError):
            spec.edge("missing")

    def test_from_column_round_trips_the_knobs(self) -> None:
        config = ColumnConfig(
            seed=9,
            duration=2.0,
            warmup=0.5,
            strategy=Strategy.RETRY,
            invalidation_loss=0.3,
            update_rate=42.0,
        )
        spec = ScenarioSpec.from_column(config, WORKLOAD)
        assert len(spec) == 1
        assert spec.seed == 9
        only = spec.edges[0]
        assert only.strategy is Strategy.RETRY
        assert only.invalidation_loss == 0.3
        assert only.update_rate == 42.0
        for name in _COLUMN_FIELDS:
            assert getattr(only, name) == getattr(config, name), name

    def test_as_dict_is_json_shaped(self) -> None:
        import json

        payload = tiny_scenario(edge("a"), edge("b", protocol="plain")).as_dict()
        text = json.loads(json.dumps(payload))
        assert [e["name"] for e in text["edges"]] == ["a", "b"]
        assert text["edges"][1]["cache_kind"] == "PLAIN"


class TestBackendTier:
    def test_default_tier_is_one_default_backend(self) -> None:
        spec = tiny_scenario(edge("a"), edge("b"))
        assert [b.name for b in spec.backends] == [DEFAULT_BACKEND_NAME]
        assert spec.placement == {"a": "db", "b": "db"}
        assert spec.backend_for("a").name == "db"

    def test_backend_spec_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            BackendSpec(name="")
        with pytest.raises(ConfigurationError):
            BackendSpec(name="b", shards=0)
        with pytest.raises(ConfigurationError):
            BackendSpec(name="b", deplist_max=-2)
        with pytest.raises(ConfigurationError, match="pruning policy"):
            BackendSpec(name="b", pruning_policy="oldest")

    def test_duplicate_backend_names_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="duplicate backend"):
            tiny_scenario(
                backends=[BackendSpec(name="b"), BackendSpec(name="b")]
            )

    def test_placement_mapping_resolved_and_validated(self) -> None:
        backends = [BackendSpec(name="eu"), BackendSpec(name="us")]
        spec = tiny_scenario(
            edge("a"), edge("b"), edge("c"),
            backends=backends,
            placement={"b": "us"},
        )
        # Unmapped edges land on the first backend.
        assert spec.placement == {"a": "eu", "b": "us", "c": "eu"}
        assert [e.name for e in spec.edges_on("eu")] == ["a", "c"]
        assert spec.backend_for("b").name == "us"
        with pytest.raises(ConfigurationError, match="unknown backends"):
            tiny_scenario(
                edge("a"), backends=backends, placement={"a": "ap"}
            )
        with pytest.raises(ConfigurationError, match="unknown edges"):
            tiny_scenario(
                edge("a"), backends=backends, placement={"ghost": "eu"}
            )

    def test_placement_callable_resolved_to_mapping(self) -> None:
        backends = [BackendSpec(name="eu"), BackendSpec(name="us")]
        spec = tiny_scenario(
            edge("a"), edge("b"),
            backends=backends,
            placement=lambda e: "us" if e.name == "b" else "eu",
        )
        assert spec.placement == {"a": "eu", "b": "us"}

    def test_backend_overrides_resolve_through_scenario(self) -> None:
        backend = BackendSpec(name="big", deplist_max=9, pruning_policy="random")
        spec = tiny_scenario(edge("a"), backends=[backend], deplist_max=3)
        assert spec.backend_deplist_max(backend) == 9
        assert spec.backend_pruning_policy(backend) == "random"
        assert spec.backend_timing(backend) is spec.timing

    def test_unknown_pruning_policy_rejected_at_spec_level(self) -> None:
        with pytest.raises(ConfigurationError, match="pruning policy"):
            tiny_scenario(pruning_policy="fifo")

    def test_two_backends_wire_independent_databases(self) -> None:
        spec = tiny_scenario(
            edge("a"), edge("b"),
            backends=[BackendSpec(name="eu"), BackendSpec(name="us", shards=2)],
            placement={"a": "eu", "b": "us"},
        )
        scenario = build_scenario(spec)
        assert [db.namespace for db in scenario.databases] == ["eu", "us"]
        assert scenario.backend("us") is not scenario.backend("eu")
        assert len(scenario.backend("us").participants) == 2
        # Each backend fans invalidations out to its own edges only.
        assert len(scenario.backend("eu")._invalidation_channels) == 1
        assert len(scenario.backend("us")._invalidation_channels) == 1
        assert scenario.edge("a").database is scenario.backend("eu")
        assert scenario.edge("b").database is scenario.backend("us")
        # Each backend loads only its own edges' key universe.
        for wired in scenario.edges:
            for key in wired.spec.workload.all_keys():
                assert wired.database.read_entry(key).version == 0

    def test_version_namespaces_keep_overlapping_versions_apart(self) -> None:
        """Two backends both allocate versions 1, 2, 3, ... — the run must
        classify without tripping the monitor's duplicate detection."""
        spec = tiny_scenario(
            edge("a"), edge("b"),
            backends=[BackendSpec(name="eu"), BackendSpec(name="us")],
            placement={"a": "eu", "b": "us"},
            duration=1.0,
            warmup=0.5,
        )
        result = run_scenario(spec)
        assert result.db_stats.committed > 0
        eu = result.backend("eu")
        us = result.backend("us")
        assert eu.update_commits > 0 and us.update_commits > 0
        assert (
            result.db_stats.committed == eu.update_commits + us.update_commits
        )

    def test_per_backend_aggregates_sum_to_fleet(self) -> None:
        spec = tiny_scenario(
            edge("a"), edge("b"), edge("c", read_rate=200.0),
            backends=[BackendSpec(name="eu"), BackendSpec(name="us")],
            placement={"a": "eu", "b": "us", "c": "us"},
            duration=2.0,
            warmup=0.5,
        )
        result = run_scenario(spec)
        assert [a.name for a in result.backends] == ["eu", "us"]
        assert sum(a.counts.total for a in result.backends) == (
            result.fleet.counts.total
        )
        assert sum(a.db_accesses for a in result.backends) == (
            result.fleet.db_accesses
        )
        assert result.fleet.update_commits == sum(
            a.update_commits for a in result.backends
        )
        assert set(result.fleet.inconsistency_by_backend) == {"eu", "us"}
        # Edges on the same backend share its stats object; the tier total
        # is a synthesised sum.
        assert result.edge("b").db_stats is result.edge("c").db_stats
        assert result.edge("a").db_stats is not result.edge("b").db_stats

    def test_single_backend_keeps_identity_contract(self) -> None:
        result = run_scenario(tiny_scenario(edge("a"), edge("b")))
        assert result.db_stats is result.edges[0].db_stats
        assert len(result.backends) == 1
        assert result.backends[0].name == DEFAULT_BACKEND_NAME
        assert result.backends[0].counts.total == result.fleet.counts.total


class TestSpecRoundTrip:
    def test_as_dict_from_dict_round_trip_runs_identically(self) -> None:
        import json

        spec = tiny_scenario(
            edge("a"), edge("b", protocol="plain"),
            backends=[BackendSpec(name="eu"), BackendSpec(name="us", shards=2)],
            placement={"b": "us"},
            duration=1.0,
            warmup=0.5,
        )
        payload = json.loads(json.dumps(spec.as_dict()))
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt.placement == spec.placement
        assert [b.name for b in rebuilt.backends] == ["eu", "us"]
        assert run_scenario(rebuilt).to_artifact() == run_scenario(spec).to_artifact()

    def test_result_artifact_replays_as_spec(self) -> None:
        """The merged backend records in a result artifact still load."""
        import json

        result = run_scenario(
            tiny_scenario(
                edge("a"),
                backends=[BackendSpec(name="solo", deplist_max=7)],
                duration=1.0,
                warmup=0.5,
            )
        )
        payload = json.loads(json.dumps(result.to_artifact()))
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt.backends[0].name == "solo"
        assert rebuilt.backends[0].deplist_max == 7

    def test_pre_backend_payloads_load_onto_default_tier(self) -> None:
        payload = tiny_scenario(edge("a")).as_dict()
        payload.pop("backends")
        payload.pop("placement")
        rebuilt = ScenarioSpec.from_dict(payload)
        assert [b.name for b in rebuilt.backends] == [DEFAULT_BACKEND_NAME]

    def test_non_portable_workload_rejected_with_clear_error(self) -> None:
        class Opaque:
            def access_set(self, rng, now):  # pragma: no cover - unused
                return []

            def all_keys(self):
                return ["o000000"]

        spec = tiny_scenario(edge("a", workload=Opaque()))
        payload = spec.as_dict()
        assert payload["edges"][0]["workload_spec"] is None
        with pytest.raises(ConfigurationError, match="workload_spec"):
            ScenarioSpec.from_dict(payload)

    def test_non_portable_read_workload_rejected_not_dropped(self) -> None:
        """An edge whose read workload can't serialise must fail replay
        loudly — rebuilding with read_workload=None would silently drive
        reads from the update workload instead."""

        class Opaque:
            def access_set(self, rng, now):  # pragma: no cover - unused
                return []

            def all_keys(self):
                return ["o000000"]

        spec = tiny_scenario(edge("a", read_workload=Opaque()))
        payload = spec.as_dict()
        assert payload["edges"][0]["workload_spec"] is not None
        assert payload["edges"][0]["read_workload_spec"] is None
        with pytest.raises(ConfigurationError, match="read workload"):
            ScenarioSpec.from_dict(payload)


class TestWiring:
    def test_build_wires_one_channel_and_cache_per_edge(self) -> None:
        scenario = build_scenario(tiny_scenario(edge("a"), edge("b"), edge("c")))
        assert len(scenario.edges) == 3
        assert len(scenario.database._invalidation_channels) == 3
        names = {wired.cache.name for wired in scenario.edges}
        assert len(names) == 3  # distinct cache names fleet-wide

    def test_read_txn_ids_disjoint_across_edges(self) -> None:
        spec = tiny_scenario(edge("a"), edge("b"))
        result_scenario = build_scenario(spec)
        records: list = []
        for wired in result_scenario.edges:
            wired.cache.add_transaction_listener(records.append)
        result_scenario.sim.run(until=spec.total_time)
        ids = [record.txn_id for record in records]
        assert len(ids) == len(set(ids))
        assert any(txn_id >= TXN_ID_STRIDE for txn_id in ids)

    def test_zero_update_rate_means_no_update_client(self) -> None:
        scenario = build_scenario(tiny_scenario(edge(update_rate=0.0)))
        assert scenario.edges[0].update_client is None
        result = run_scenario(tiny_scenario(edge(update_rate=0.0)))
        assert result.edges[0].update_client_stats.launched == 0
        assert result.db_stats.committed == 0

    def test_per_source_monitor_views_sum_to_fleet(self) -> None:
        spec = tiny_scenario(edge("a"), edge("b", read_rate=200.0))
        scenario = build_scenario(spec)
        scenario.sim.run(until=spec.total_time)
        monitor = scenario.monitor
        total = monitor.summary.read_only.total
        per_source = sum(
            summary.read_only.total
            for summary in monitor.source_summaries.values()
        )
        assert total > 0
        assert per_source == total
        assert set(monitor.source_series) == {"a", "b"}


class TestResults:
    def test_per_edge_results_in_spec_order_with_aggregates(self) -> None:
        spec = tiny_scenario(
            edge("clean", invalidation_loss=0.0),
            edge("lossy", invalidation_loss=0.9, deplist_limit=0),
        )
        result = run_scenario(spec)
        assert [e.name for e, _ in result.pairs()] == ["clean", "lossy"]
        fleet = result.fleet
        assert fleet.counts.total == sum(e.counts.total for e in result.edges)
        assert fleet.cache_reads == sum(e.cache_stats.reads for e in result.edges)
        assert 0.0 <= fleet.hit_ratio <= 1.0
        assert fleet.backend_read_rate > 0
        # Heterogeneous loss must show up as cross-edge spread.
        assert result.edge("lossy").counts.total > 0
        assert fleet.inconsistency_variance >= 0.0

    def test_result_artifact_round_trips_json(self) -> None:
        import json

        result = run_scenario(tiny_scenario(edge("a"), edge("b")))
        artifact = json.loads(json.dumps(result.to_artifact()))
        assert [e["name"] for e in artifact["edges"]] == ["a", "b"]
        assert "fleet" in artifact and "counts" in artifact["fleet"]
        assert artifact["db_stats"]["committed"] >= 0

    def test_shared_backend_stats_on_every_edge(self) -> None:
        result = run_scenario(tiny_scenario(edge("a"), edge("b")))
        assert result.edges[0].db_stats is result.edges[1].db_stats
        assert result.edges[0].db_stats is result.db_stats

    def test_deplist_limit_weakens_detection(self) -> None:
        """An edge that consults fewer dependency entries misses more."""
        full = run_scenario(
            tiny_scenario(edge("full"), duration=4.0, warmup=1.0, seed=11)
        )
        limited = run_scenario(
            tiny_scenario(
                edge("full", deplist_limit=0), duration=4.0, warmup=1.0, seed=11
            )
        )
        full_detections = full.edges[0].detections_eq1 + full.edges[0].detections_eq2
        limited_detections = (
            limited.edges[0].detections_eq1 + limited.edges[0].detections_eq2
        )
        assert limited_detections < full_detections


class TestLibrary:
    def test_heterogeneous_loss_fleet_ramps_loss(self) -> None:
        spec = heterogeneous_loss_fleet(edges=4, max_loss=0.6)
        losses = [e.invalidation_loss for e in spec.edges]
        assert losses[0] == 0.0
        assert losses[-1] == pytest.approx(0.6)
        assert losses == sorted(losses)

    def test_geo_skew_has_disjoint_local_slices(self) -> None:
        spec = geo_skewed_scenario(regions=3, objects_per_region=100, shared_objects=50)
        local_keysets = [set(e.workload.all_keys()) for e in spec.edges[:-1]]
        for i, left in enumerate(local_keysets):
            for right in local_keysets[i + 1:]:
                assert not left & right
        shared = set(spec.edges[-1].workload.all_keys())
        for local in local_keysets:
            assert not shared & local

    def test_geo_skew_runs_end_to_end(self) -> None:
        result = run_scenario(
            geo_skewed_scenario(
                regions=2,
                objects_per_region=100,
                shared_objects=50,
                duration=1.5,
                warmup=0.5,
            )
        )
        assert all(e.counts.total > 0 for e in result.edges)

    def test_flash_crowd_concentrates_reads(self) -> None:
        result = run_scenario(
            flash_crowd_scenario(
                quiet_edges=2,
                n_objects=200,
                hot_objects=50,
                duration=1.5,
                warmup=0.5,
                crowd_read_rate=600.0,
            )
        )
        crowd = result.edge("crowd")
        quiet = result.edge("quiet0")
        assert crowd.counts.total > quiet.counts.total
        # The crowd's hot set fits the cache: far better hit ratio.
        assert crowd.hit_ratio > quiet.hit_ratio

    def test_library_specs_validate(self) -> None:
        with pytest.raises(ConfigurationError):
            heterogeneous_loss_fleet(edges=0)
        with pytest.raises(ConfigurationError):
            geo_skewed_scenario(regions=1)
        with pytest.raises(ConfigurationError):
            flash_crowd_scenario(hot_objects=500, n_objects=100)
        with pytest.raises(ConfigurationError):
            regional_backends_scenario(regions=0)
        with pytest.raises(ConfigurationError):
            regional_backends_scenario(edges_per_region=0)
        with pytest.raises(ConfigurationError):
            hot_backend_overload(backends=1)
        with pytest.raises(ConfigurationError):
            hot_backend_overload(hot_objects=500, n_objects=100)

    def test_regional_backends_routes_each_region_to_its_backend(self) -> None:
        spec = regional_backends_scenario(
            regions=3, edges_per_region=2, objects_per_region=100
        )
        assert len(spec.backends) == 3
        assert len(spec) == 6
        for edge_spec in spec.edges:
            region = edge_spec.name.split("-")[0]
            assert spec.placement[edge_spec.name] == f"{region}-db"
        # Regions own disjoint slices.
        slices = [
            set(e.workload.all_keys()) for e in spec.edges if "edge0" in e.name
        ]
        for i, left in enumerate(slices):
            for right in slices[i + 1:]:
                assert not left & right

    def test_hot_backend_overload_concentrates_load(self) -> None:
        result = run_scenario(
            hot_backend_overload(
                backends=2,
                n_objects=200,
                hot_objects=50,
                crowd_read_rate=600.0,
                duration=1.5,
                warmup=0.5,
            )
        )
        hot = result.backend("backend0")
        quiet = result.backend("backend1")
        assert hot.counts.total > quiet.counts.total
        assert hot.update_commits > quiet.update_commits


class TestMixedWorkloadWrappers:
    def test_offset_workload_shifts_keys(self) -> None:
        import numpy as np

        from repro.workloads.synthetic import OffsetWorkload

        inner = UniformWorkload(n_objects=10)
        shifted = OffsetWorkload(inner, offset=100)
        assert shifted.all_keys()[0] == "o000100"
        rng = np.random.default_rng(1)
        assert set(shifted.access_set(rng, 0.0)) <= set(shifted.all_keys())

    def test_mixture_workload_draws_from_components(self) -> None:
        import numpy as np

        from repro.workloads.synthetic import MixtureWorkload, OffsetWorkload

        a = UniformWorkload(n_objects=10)
        b = OffsetWorkload(UniformWorkload(n_objects=10), offset=1000)
        mixture = MixtureWorkload([(0.5, a), (0.5, b)])
        rng = np.random.default_rng(2)
        seen_a = seen_b = False
        for _ in range(200):
            keys = set(mixture.access_set(rng, 0.0))
            if keys <= set(a.all_keys()):
                seen_a = True
            if keys <= set(b.all_keys()):
                seen_b = True
        assert seen_a and seen_b
        assert set(mixture.all_keys()) == set(a.all_keys()) | set(b.all_keys())
