"""A finished run is freed by reference counting, and closing it changes no result.

Every sweep point builds a whole simulation — simulator, databases, caches,
channels, clients and the processes still suspended when the clock stops —
and drops it once its result is collected. ``run_scenario`` and
``run_column`` close the scenario right after collecting, so that drop
frees the graph at once: nothing is left that only the cyclic collector
could free.

The pin holds weak references to the graph's main objects and runs with the
collector disabled (restored in ``finally``), so only reference counting can
free them. It does not count ``gc.collect()``'s unreachable objects under
``DEBUG_SAVEALL``: a cycle through a suspended generator is broken by the
collector's finalizer pass, and that count never includes it, so it reads 0
for a graph that is still alive.
"""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import asdict

import pytest

from repro import protocol_names
from repro.core.strategies import Strategy
from repro.dispatch.codec import encode_result
from repro.experiments import protocol_race, scenarios
from repro.experiments import runner as column_runner
from repro.experiments.config import ColumnConfig
from repro.scenario import runner as scenario_runner
from repro.scenario.runner import build_scenario, run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.workloads.synthetic import PerfectClusterWorkload

#: The CI smoke scale of the race and scenario verbs.
SMOKE = 2.0
WORKLOAD = PerfectClusterWorkload(n_objects=200, cluster_size=5)

COLUMNS = {
    "abort": ColumnConfig(seed=7, duration=1.5, warmup=0.5, strategy=Strategy.ABORT),
    "evict": ColumnConfig(seed=7, duration=1.5, warmup=0.5, strategy=Strategy.EVICT),
    "retry": ColumnConfig(seed=7, duration=1.5, warmup=0.5, strategy=Strategy.RETRY),
    "ttl-capacity": ColumnConfig(
        seed=7,
        duration=1.5,
        warmup=0.5,
        protocol="ttl",
        ttl=0.5,
        cache_capacity=50,
    ),
}


@pytest.fixture
def collector_off():
    """Only reference counts may free anything while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _weak_graph(scenario) -> dict[str, weakref.ref]:
    """Weak references to the simulator and every database, cache, channel
    and client of ``scenario``, by a readable name."""
    objects = {"simulator": scenario.sim}
    for database in scenario.databases:
        objects[f"database {database.namespace}"] = database
    for edge in scenario.edges:
        name = edge.spec.name
        objects[f"{name} cache"] = edge.cache
        objects[f"{name} channel"] = edge.channel
        objects[f"{name} read client"] = edge.read_client
        if edge.update_client is not None:
            objects[f"{name} update client"] = edge.update_client
    return {name: weakref.ref(obj) for name, obj in objects.items()}


def _spy_on_build(monkeypatch, module) -> list[dict[str, weakref.ref]]:
    """Record the weak graph of every scenario ``module`` builds."""
    graphs: list[dict[str, weakref.ref]] = []
    build = module.build_scenario

    def recording_build(spec):
        scenario = build(spec)
        graphs.append(_weak_graph(scenario))
        return scenario

    monkeypatch.setattr(module, "build_scenario", recording_build)
    return graphs


def _still_alive(graph: dict[str, weakref.ref]) -> list[str]:
    return [name for name, ref in graph.items() if ref() is not None]


def _race_scenario(protocol: str) -> ScenarioSpec:
    return protocol_race.spec(protocols=(protocol,), duration=SMOKE).points[0].scenario


def _encoded(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


@pytest.mark.usefixtures("collector_off")
class TestFreedByReferenceCount:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_run_scenario_frees_every_protocol(self, monkeypatch, protocol) -> None:
        graphs = _spy_on_build(monkeypatch, scenario_runner)
        result = run_scenario(_race_scenario(protocol))
        assert result.fleet.cache_reads > 0
        [graph] = graphs
        assert _still_alive(graph) == []

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_run_column_frees_the_column(self, monkeypatch, column) -> None:
        graphs = _spy_on_build(monkeypatch, column_runner)
        result = column_runner.run_column(COLUMNS[column], WORKLOAD)
        assert result.counts.total > 0
        [graph] = graphs
        assert _still_alive(graph) == []

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_a_closed_scenario_is_freed_mid_run(self, protocol) -> None:
        """Stopped halfway, with transactions in flight on every edge."""
        spec = _race_scenario(protocol)
        scenario = build_scenario(spec)
        scenario.sim.run(until=spec.total_time / 2)
        graph = _weak_graph(scenario)
        scenario.close()
        del scenario
        assert _still_alive(graph) == []


class TestCloseChangesNoResult:
    """``ColumnResult`` shares the live stats objects, so anything ``close``
    counted would move a result that was already collected."""

    @pytest.mark.parametrize(
        "point",
        [
            *protocol_race.spec(duration=SMOKE).points,
            *scenarios.spec(duration=SMOKE).points,
        ],
        ids=lambda point: point.label,
    )
    def test_scenario_point(self, monkeypatch, point) -> None:
        collected: list[str] = []
        collect = scenario_runner.collect_scenario_result

        def recording_collect(scenario):
            result = collect(scenario)
            collected.append(_encoded(result))
            return result

        monkeypatch.setattr(
            scenario_runner, "collect_scenario_result", recording_collect
        )
        result = run_scenario(point.scenario)
        assert collected == [_encoded(result)]

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_column_point(self, monkeypatch, column) -> None:
        collected: list[str] = []
        collect = column_runner.collect_result

        def recording_collect(wired):
            result = collect(wired)
            collected.append(_encoded(result))
            return result

        monkeypatch.setattr(column_runner, "collect_result", recording_collect)
        result = column_runner.run_column(COLUMNS[column], WORKLOAD)
        assert collected == [_encoded(result)]

    def test_a_transaction_in_flight_is_neither_committed_nor_aborted(self) -> None:
        config = ColumnConfig(
            seed=3, duration=1.0, warmup=0.2, read_rate=100.0, update_rate=600.0
        )
        scenario = build_scenario(ScenarioSpec.from_column(config, WORKLOAD))
        scenario.sim.run(until=config.total_time)
        database = scenario.database
        updates = scenario.edges[0].update_client.stats
        in_flight = updates.launched - updates.committed - updates.aborted
        assert in_flight > 0
        before = (asdict(database.stats), asdict(updates))
        scenario.close()
        assert (asdict(database.stats), asdict(updates)) == before
