"""Random-walk down-sampling of large topologies (§V-B1).

"We down-sample both graphs to 1000 nodes. We use a technique based on
random walks that maintains important properties of the original graph [16],
specifically clustering ... We start by choosing a node uniformly at random
and start a random walk from that location. In every step, with probability
15%, the walk reverts back to the first node and starts again. This is
repeated until the target number of nodes have been visited."

The standard escape hatch from Leskovec & Faloutsos applies: if the walk
stagnates inside a small region (no new node for a long stretch), it restarts
from a fresh uniformly chosen node, so the sampler terminates on any graph.

Anchors and steps are drawn through :func:`repro.sim.rng.integers_below`,
stream-identical to the scalar ``Generator.integers`` form it replaces, so a
seed samples the same nodes it always did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import integers_below

if TYPE_CHECKING:  # annotations only: importing networkx costs ~0.1 s
    import networkx as nx

__all__ = ["random_walk_sample"]


def random_walk_sample(
    graph: nx.Graph,
    target_nodes: int,
    rng: np.random.Generator,
    *,
    restart_probability: float = 0.15,
    stall_limit: int = 10_000,
) -> nx.Graph:
    """Induced subgraph on ``target_nodes`` nodes visited by a random walk.

    ``restart_probability`` is the per-step chance of reverting to the walk's
    anchor node (the paper's 15 %). ``stall_limit`` bounds the number of
    consecutive steps without discovering a new node before the anchor is
    re-drawn uniformly — the anti-stagnation rule of [16].
    """
    if target_nodes < 1:
        raise ConfigurationError(f"target_nodes must be positive, got {target_nodes}")
    if graph.number_of_nodes() < target_nodes:
        raise ConfigurationError(
            f"graph has {graph.number_of_nodes()} nodes, cannot sample {target_nodes}"
        )
    if not 0.0 <= restart_probability < 1.0:
        raise ConfigurationError(
            f"restart_probability must be in [0, 1), got {restart_probability}"
        )

    nodes = list(graph.nodes())
    anchor = nodes[integers_below(rng, len(nodes), 1)[0]]
    current = anchor
    visited: set = {anchor}
    stalled = 0

    while len(visited) < target_nodes:
        if stalled >= stall_limit:
            anchor = nodes[integers_below(rng, len(nodes), 1)[0]]
            current = anchor
            stalled = 0
            if anchor not in visited:
                visited.add(anchor)
                continue
        if rng.random() < restart_probability:
            current = anchor
            continue
        neighbors = list(graph.neighbors(current))
        if not neighbors:
            # Isolated node: re-anchor immediately.
            stalled = stall_limit
            continue
        current = neighbors[integers_below(rng, len(neighbors), 1)[0]]
        if current in visited:
            stalled += 1
        else:
            visited.add(current)
            stalled = 0

    sample = graph.subgraph(visited).copy()
    sample.graph["name"] = f"{graph.graph.get('name', 'graph')}-sample{target_nodes}"
    return sample
