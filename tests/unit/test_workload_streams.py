"""Every workload's draws, held against a recording of the ``Generator.integers`` form.

``tests/data/access_sets_v1.json`` was recorded at commit 550addd — the last
one whose workloads called ``Generator.integers`` — and holds, for each
workload family, the first 200 access sets drawn from
``RngStreams(21).stream("w")``, each followed by one ``rng.exponential(0.01)``
the way the clients interleave them, and the generator's final
``bit_generator.state``. Every ``sim_digest``, golden trace and figure number
sits downstream of these draws, so the fixture is not regenerated: a change
that moves it moves every recorded result in the repository, and has to say so.

Beside the recording, the numpy form of each rewritten ``access_set`` stays
here as the reference it must equal, draw for draw and state for state.
"""

from __future__ import annotations

import json
import os

import networkx as nx
import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workloads.sampling import random_walk_sample
from repro.workloads.synthetic import (
    DriftingClusterWorkload,
    MixtureWorkload,
    OffsetWorkload,
    ParetoClusterWorkload,
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)
from repro.workloads.walker import RandomWalkWorkload, node_key

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "access_sets_v1.json")
SEED = 21
DRAWS = 200
MEAN_GAP = 0.01


def walk_graph() -> nx.Graph:
    """Two triangles, a bridge, a pendant node (degree 1) and an isolated one."""
    graph = nx.Graph()
    graph.add_nodes_from(range(8))
    graph.add_edges_from(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]
    )
    return graph


def clique_ring(cliques: int = 8, size: int = 5) -> nx.Graph:
    """A ring of cliques with one pendant node, built edge by edge.

    Spelled out rather than taken from a networkx generator so the node and
    neighbour order — which the sampler indexes into — cannot move with the
    networkx version.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(cliques * size + 1))
    for clique in range(cliques):
        members = range(clique * size, (clique + 1) * size)
        graph.add_edges_from((a, b) for a in members for b in members if a < b)
        graph.add_edge(clique * size + size - 1, ((clique + 1) % cliques) * size)
    graph.add_edge(0, cliques * size)
    return graph


def at(now: float):
    return lambda index: now


#: name -> (workload factory, simulation time of the index-th transaction).
CASES = {
    "uniform": (lambda: UniformWorkload(50), at(0.0)),
    "perfect": (lambda: PerfectClusterWorkload(200, 5), at(0.0)),
    "pareto-1/32": (lambda: ParetoClusterWorkload(2000, 5, 1 / 32), at(0.0)),
    "pareto-1": (lambda: ParetoClusterWorkload(2000, 5, 1.0), at(0.0)),
    "pareto-4": (lambda: ParetoClusterWorkload(2000, 5, 4.0), at(0.0)),
    "drifting@0": (
        lambda: DriftingClusterWorkload(100, 5, shift_interval=1.0),
        at(0.0),
    ),
    "drifting@7.5": (
        lambda: DriftingClusterWorkload(100, 5, shift_interval=1.0),
        at(7.5),
    ),
    # 100 uniform transactions, then 100 clustered ones.
    "phase-switch": (
        lambda: PhaseSwitchWorkload(
            UniformWorkload(100), PerfectClusterWorkload(100, 5), switch_time=5.0
        ),
        lambda index: index * 0.05,
    ),
    "mixture": (
        lambda: MixtureWorkload(
            [
                (0.75, PerfectClusterWorkload(100, 5)),
                (0.25, OffsetWorkload(UniformWorkload(50), 100)),
            ]
        ),
        at(0.0),
    ),
    "offset": (lambda: OffsetWorkload(PerfectClusterWorkload(200, 5), 200), at(0.0)),
    "random-walk": (lambda: RandomWalkWorkload(walk_graph()), at(0.0)),
}


def draw_case(name: str) -> dict:
    factory, now_of = CASES[name]
    workload = factory()
    rng = RngStreams(SEED).stream("w")
    sets, gaps = [], []
    for index in range(DRAWS):
        sets.append(workload.access_set(rng, now_of(index)))
        gaps.append(float(rng.exponential(MEAN_GAP)))
    return {"sets": sets, "gaps": gaps, "state": rng.bit_generator.state}


def draw_sample() -> dict:
    rng = RngStreams(SEED).stream("w")
    sample = random_walk_sample(clique_ring(), 30, rng)
    return {
        "nodes": sorted(sample.nodes()),
        "gap": float(rng.exponential(MEAN_GAP)),
        "state": rng.bit_generator.state,
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


class TestRecordedDraws:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_access_sets_gaps_and_final_state(self, recorded, name) -> None:
        drawn = draw_case(name)
        expected = recorded["workloads"][name]
        assert drawn["sets"] == expected["sets"]
        assert drawn["gaps"] == expected["gaps"]
        assert drawn["state"] == expected["state"]

    def test_every_recorded_case_is_replayed(self, recorded) -> None:
        assert sorted(recorded["workloads"]) == sorted(CASES)

    def test_walk_reaches_the_degree_one_node(self, recorded) -> None:
        """So a ``bound == 1`` draw, which consumes nothing, is in the recording."""
        walks = recorded["workloads"]["random-walk"]["sets"]
        assert any(
            node_key(6) in walk and walk.index(node_key(6)) < len(walk) - 1
            for walk in walks
        )

    def test_random_walk_sample(self, recorded) -> None:
        assert draw_sample() == recorded["random_walk_sample"]


class TestNumpyFormIsTheReference:
    """``Generator.integers``, as the workloads spelled it before, draw for draw."""

    def twins(self) -> tuple[np.random.Generator, np.random.Generator]:
        return np.random.default_rng(11), np.random.default_rng(11)

    def assert_same_stream(self, left, right) -> None:
        assert left.bit_generator.state == right.bit_generator.state

    def test_perfect_cluster(self) -> None:
        workload = PerfectClusterWorkload(200, 5)
        keys = workload.all_keys()
        reference_rng, rng = self.twins()
        for _ in range(DRAWS):
            head = int(reference_rng.integers(0, 40)) * 5
            offsets = reference_rng.integers(0, 5, size=5)
            expected = [keys[head + int(offset)] for offset in offsets]
            assert workload.access_set(rng, 0.0) == expected
        self.assert_same_stream(reference_rng, rng)

    def test_uniform(self) -> None:
        workload = UniformWorkload(50, txn_size=4)
        keys = workload.all_keys()
        reference_rng, rng = self.twins()
        for _ in range(DRAWS):
            expected = [keys[i] for i in reference_rng.integers(0, 50, size=4)]
            assert workload.access_set(rng, 0.0) == expected
        self.assert_same_stream(reference_rng, rng)

    def test_drifting(self) -> None:
        workload = DriftingClusterWorkload(100, 5, shift_interval=1.0)
        keys = workload.all_keys()
        reference_rng, rng = self.twins()
        for index in range(DRAWS):
            now = index * 0.5
            head = int(reference_rng.integers(0, 20)) * 5 + int(now / 1.0)
            offsets = reference_rng.integers(0, 5, size=5)
            expected = [keys[(head + int(offset)) % 100] for offset in offsets]
            assert workload.access_set(rng, now) == expected
        self.assert_same_stream(reference_rng, rng)

    def test_random_walk(self) -> None:
        graph = walk_graph()
        workload = RandomWalkWorkload(graph)
        nodes = list(graph.nodes())
        reference_rng, rng = self.twins()
        for _ in range(DRAWS):
            current = nodes[int(reference_rng.integers(0, len(nodes)))]
            visited = {current: None}
            for _ in range(4):
                neighbors = list(graph.neighbors(current))
                if not neighbors:
                    break
                current = neighbors[int(reference_rng.integers(0, len(neighbors)))]
                visited.setdefault(current, None)
            expected = [node_key(node) for node in visited]
            assert workload.access_set(rng, 0.0) == expected
        self.assert_same_stream(reference_rng, rng)
