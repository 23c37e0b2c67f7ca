"""Golden equivalence: the scenario layer reproduces the seed runner.

The scenario redesign rebuilt ``run_column``/``build_column`` as one-edge
shims over ``run_scenario``. These tests pin the contract that made that
safe: a hand-wired column using the *seed* wiring (the pre-scenario
``build_column`` body, inlined here) produces bit-identical results to a
one-edge :class:`ScenarioSpec` — for every cache kind and strategy — and
scenario sweeps are deterministic across executors.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict

import pytest

from repro.cache.base import CacheServer
from repro.cache.ttl import TTLCache
from repro.clients.read_client import ReadOnlyClient
from repro.clients.update_client import UpdateClient
from repro.core.multiversion import MultiversionTCache
from repro.core.strategies import Strategy
from repro.core.tcache import TCache
from repro.db.database import Database, DatabaseConfig
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec, run_sweep
from repro.monitor.monitor import ConsistencyMonitor
from repro.monitor.stats import CLASSES, ClassCounts
from repro.scenario import (
    BackendSpec,
    ScenarioSpec,
    heterogeneous_loss_fleet,
    run_scenario,
)
from repro.sim.channel import Channel
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.workloads.synthetic import PerfectClusterWorkload

WORKLOAD = PerfectClusterWorkload(n_objects=200, cluster_size=5)


def legacy_run_column(config: ColumnConfig, workload) -> dict[str, object]:
    """The seed repo's ``run_column`` wiring, inlined verbatim.

    Kept as the golden reference: if the scenario layer's single-edge path
    ever drifts from this wiring (stream names, component order, id
    ranges), these tests fail.
    """
    sim = Simulator()
    streams = RngStreams(config.seed)
    database = Database(
        sim,
        DatabaseConfig(
            deplist_max=config.deplist_max,
            timing=config.timing,
            pruning_policy=config.pruning_policy,
        ),
    )
    database.load({key: f"init:{key}" for key in workload.all_keys()})

    if config.protocol == "tcache-detector":
        cache = TCache(
            sim, database, strategy=config.strategy, capacity=config.cache_capacity
        )
    elif config.protocol == "multiversion":
        cache = MultiversionTCache(sim, database, capacity=config.cache_capacity)
    elif config.protocol == "ttl":
        cache = TTLCache(sim, database, ttl=config.ttl, capacity=config.cache_capacity)
    else:
        cache = CacheServer(sim, database, capacity=config.cache_capacity)

    channel = Channel(
        sim,
        cache.handle_invalidation,
        latency=lambda rng: float(rng.exponential(config.invalidation_latency_mean)),
        loss_probability=config.invalidation_loss,
        rng=streams.stream("invalidation-channel"),
        name="invalidations",
    )
    database.register_invalidation_channel(channel)

    monitor = ConsistencyMonitor(sim, window=config.monitor_window)
    database.add_commit_listener(monitor.record_update)
    cache.add_transaction_listener(monitor.record_read_only)

    update_client = UpdateClient(
        sim,
        database,
        workload,
        rate=config.update_rate,
        rng=streams.stream("update-client"),
    )
    read_client = ReadOnlyClient(
        sim,
        cache,
        workload,
        rate=config.read_rate,
        rng=streams.stream("read-client"),
        txn_ids=itertools.count(1),
        read_gap=config.read_gap,
        retry_aborted=config.retry_aborted_reads,
    )
    sim.run(until=config.total_time)

    measured = ClassCounts()
    for start, counts in monitor.series.buckets():
        if start >= config.warmup:
            for label in CLASSES:
                setattr(measured, label, getattr(measured, label) + getattr(counts, label))
    return {
        "counts": measured.as_dict(),
        "series": monitor.series.rates(),
        "cache_stats": asdict(cache.stats),
        "db_stats": asdict(database.stats),
        "channel_stats": asdict(channel.stats),
        "update_client_stats": asdict(update_client.stats),
        "read_client_stats": asdict(read_client.stats),
        "detections": (
            getattr(cache, "detections_eq1", 0),
            getattr(cache, "detections_eq2", 0),
            getattr(cache, "retries_resolved", 0),
        ),
    }


def scenario_view(config: ColumnConfig, workload) -> dict[str, object]:
    """The same metrics via a one-edge scenario's per-edge result."""
    result = run_scenario(ScenarioSpec.from_column(config, workload))
    edge = result.edges[0]
    return {
        "counts": edge.counts.as_dict(),
        "series": edge.series,
        "cache_stats": asdict(edge.cache_stats),
        "db_stats": asdict(edge.db_stats),
        "channel_stats": asdict(edge.channel_stats),
        "update_client_stats": asdict(edge.update_client_stats),
        "read_client_stats": asdict(edge.read_client_stats),
        "detections": (
            edge.detections_eq1,
            edge.detections_eq2,
            edge.retries_resolved,
        ),
    }


def quick_config(**overrides) -> ColumnConfig:
    defaults = dict(seed=42, duration=3.0, warmup=1.0)
    defaults.update(overrides)
    return ColumnConfig(**defaults)


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(
                {
                    "protocol": protocol,
                    "strategy": strategy,
                    **({"ttl": 0.5} if protocol == "ttl" else {}),
                },
                id=f"{label}-{strategy.name.lower()}",
            )
            # The four caches of the paper's evaluation; the ids keep the
            # labels they were recorded under.
            for label, protocol in (
                ("tcache", "tcache-detector"),
                ("plain", "plain"),
                ("ttl", "ttl"),
                ("multiversion", "multiversion"),
            )
            for strategy in Strategy
            # Only the detector consumes the strategy knob (multiversion
            # pins RETRY, plain/ttl never abort); one strategy value covers
            # each of the others.
            if protocol == "tcache-detector" or strategy is Strategy.ABORT
        ],
    )
    def test_one_edge_scenario_matches_seed_runner(self, overrides) -> None:
        config = quick_config(**overrides)
        golden = legacy_run_column(config, WORKLOAD)
        scenario = scenario_view(config, WORKLOAD)
        assert json.dumps(golden, sort_keys=True) == json.dumps(
            scenario, sort_keys=True
        )

    def test_quickstart_config_matches_seed_runner(self) -> None:
        """The README/quickstart configuration, at reduced duration."""
        workload = PerfectClusterWorkload(n_objects=1000, cluster_size=5)
        config = ColumnConfig(
            seed=7,
            duration=5.0,
            warmup=1.0,
            deplist_max=5,
            strategy=Strategy.EVICT,
            invalidation_loss=0.2,
        )
        golden = legacy_run_column(config, workload)
        scenario = scenario_view(config, workload)
        assert golden == scenario

    def test_explicit_default_backend_matches_seed_runner(self) -> None:
        """The backend-tier acceptance contract: a spec with one explicitly
        passed default ``BackendSpec`` (and an explicit placement) is
        bit-identical to the seed wiring — the tier refactor changed no
        observable behaviour of the single-backend path."""
        config = quick_config(strategy=Strategy.RETRY)
        golden = legacy_run_column(config, WORKLOAD)

        explicit = ScenarioSpec.from_column(
            config, WORKLOAD, backends=[BackendSpec(name="db")]
        )
        result = run_scenario(explicit)
        edge = result.edges[0]
        via_backends = {
            "counts": edge.counts.as_dict(),
            "series": edge.series,
            "cache_stats": asdict(edge.cache_stats),
            "db_stats": asdict(edge.db_stats),
            "channel_stats": asdict(edge.channel_stats),
            "update_client_stats": asdict(edge.update_client_stats),
            "read_client_stats": asdict(edge.read_client_stats),
            "detections": (
                edge.detections_eq1,
                edge.detections_eq2,
                edge.retries_resolved,
            ),
        }
        assert json.dumps(golden, sort_keys=True) == json.dumps(
            via_backends, sort_keys=True
        )
        # The per-backend view of the one-backend run agrees with the fleet.
        assert result.backends[0].counts.as_dict() == golden["counts"]
        assert result.fleet.inconsistency_by_backend == {
            "db": result.fleet.inconsistency_ratio
        }


class TestKernelEventOrderGolden:
    """The immediate-queue kernel reproduces the seed kernel's event order.

    The simulator replaced pure-heap zero-delay scheduling with a FIFO
    immediate queue merged by ``(time, sequence)``; these tests pin that the
    executed order — and therefore every derived artifact — is unchanged.
    """

    #: SHA-256 of the reference column's full result under the seed repo's
    #: pure-heap kernel (recorded before the immediate-queue change landed).
    #: Every per-window rate, counter and detection feeds this digest, so
    #: any event-order drift in the kernel fails here.
    SEED_KERNEL_DIGEST = (
        "feb4a8bb03f5df22a66590887c87074f6b9b0998d24b6d22d56afc14ae31efe7"
    )

    def test_reference_column_matches_seed_kernel_digest(self) -> None:
        import hashlib

        config = quick_config(strategy=Strategy.RETRY)
        golden = legacy_run_column(config, WORKLOAD)
        digest = hashlib.sha256(
            json.dumps(golden, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.SEED_KERNEL_DIGEST

    def test_chunked_run_matches_single_run(self) -> None:
        """run(until=...) in several chunks crosses the immediate/heap
        boundary repeatedly and must land on identical results."""
        from repro.scenario.runner import build_scenario, collect_column_result

        config = quick_config(strategy=Strategy.EVICT)
        single = legacy_run_column(config, WORKLOAD)

        scenario = build_scenario(ScenarioSpec.from_column(config, WORKLOAD))
        for fraction in (0.25, 0.5, 0.75, 1.0):
            scenario.sim.run(until=config.total_time * fraction)
        edge = scenario.edges[0]
        column = collect_column_result(
            config,
            scenario.monitor.series,
            config.warmup,
            cache=edge.cache,
            db_stats=scenario.database.stats,
            channel_stats=edge.channel.stats,
            update_client=edge.update_client,
            read_client=edge.read_client,
        )
        assert column.counts.as_dict() == single["counts"]
        assert column.series == single["series"]
        assert asdict(column.cache_stats) == single["cache_stats"]


class TestScenarioSweepDeterminism:
    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            name="fleet-grid",
            root_seed=5,
            points=[
                SweepPoint(
                    label=f"loss={loss:g}",
                    scenario=heterogeneous_loss_fleet(
                        edges=3,
                        max_loss=loss,
                        n_objects=200,
                        duration=1.5,
                        warmup=0.5,
                        seed=5,
                        read_rate=200.0,
                        update_rate=50.0,
                    ),
                    params={"max_loss": loss},
                )
                for loss in (0.2, 0.6)
            ],
        )

    def test_serial_and_parallel_sweeps_identical(self) -> None:
        serial = run_sweep(self.sweep_spec(), jobs=1)
        parallel = run_sweep(self.sweep_spec(), jobs=2)
        left = [result.to_artifact() for result in serial.results]
        right = [result.to_artifact() for result in parallel.results]
        assert json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)

    def test_rerun_is_deterministic(self) -> None:
        first = run_scenario(
            heterogeneous_loss_fleet(
                edges=3, n_objects=200, duration=1.5, warmup=0.5
            )
        )
        second = run_scenario(
            heterogeneous_loss_fleet(
                edges=3, n_objects=200, duration=1.5, warmup=0.5
            )
        )
        assert first.to_artifact() == second.to_artifact()
