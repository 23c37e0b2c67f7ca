"""Shared construction of the realistic workloads (§V-B1).

Builds the Amazon-like and Orkut-like parent topologies, down-samples each
to 1000 nodes with the paper's random-walk sampler (15 % restart), and wraps
the samples in 5-node random-walk transaction generators. Graphs are cached
per process because several figures share them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.report import Experiment, section
from repro.workloads.graphs import amazon_like_graph, orkut_like_graph, topology_stats
from repro.workloads.sampling import random_walk_sample
from repro.workloads.walker import RandomWalkWorkload

if TYPE_CHECKING:  # annotations only: importing networkx costs ~0.1 s
    import networkx as nx

__all__ = [
    "AMAZON",
    "EXPERIMENT",
    "ORKUT",
    "WORKLOAD_NAMES",
    "sampled_topology",
    "realistic_workload",
    "topology_rows",
]

AMAZON = "amazon"
ORKUT = "orkut"
WORKLOAD_NAMES = (AMAZON, ORKUT)

#: Paper parameters: parents down-sampled to 1000 nodes.
SAMPLE_NODES = 1000
PARENT_NODES = 4000


@lru_cache(maxsize=8)
def sampled_topology(
    name: str, *, sample_nodes: int = SAMPLE_NODES, seed: int = 1
) -> nx.Graph:
    """The down-sampled topology for a workload name ('amazon' / 'orkut')."""
    if name == AMAZON:
        parent = amazon_like_graph(PARENT_NODES, seed=seed)
    elif name == ORKUT:
        parent = orkut_like_graph(PARENT_NODES, seed=seed + 1)
    else:
        raise ValueError(f"unknown realistic workload {name!r}")
    rng = np.random.default_rng(seed + 77)
    return random_walk_sample(parent, sample_nodes, rng)


def realistic_workload(
    name: str, *, sample_nodes: int = SAMPLE_NODES, seed: int = 1
) -> RandomWalkWorkload:
    return RandomWalkWorkload(
        sampled_topology(name, sample_nodes=sample_nodes, seed=seed), txn_size=5
    )


def topology_rows(
    *, sample_nodes: int = SAMPLE_NODES, seed: int = 1
) -> list[dict[str, object]]:
    """Fig. 7(a)/(b) stand-in: statistics of both sampled topologies."""
    rows = []
    for name in WORKLOAD_NAMES:
        graph = sampled_topology(name, sample_nodes=sample_nodes, seed=seed)
        row: dict[str, object] = {"workload": name}
        row.update(topology_stats(graph).as_row())
        rows.append(row)
    return rows


#: Fig. 7(a)/(b) is pure graph analysis: no simulation grid, so no sweeps
#: to run, dispatch or trace — the sections come straight from the graphs.
EXPERIMENT = Experiment(
    "Figure 7ab: topology statistics",
    lambda args: [],
    lambda sweeps: [section(EXPERIMENT.help, topology_rows())],
)
