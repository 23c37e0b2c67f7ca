"""Random-walk transaction generation over a topology (§V-B1).

"Each transaction starts by picking a node uniformly at random and takes 5
steps of a random walk. The nodes visited by the random walk are the objects
the transaction accesses." — transactions therefore access objects that are
topologically close, which is exactly the clustering T-Cache exploits.

The walk takes exactly ``txn_size - 1`` steps from a uniformly chosen start
node, so a transaction *visits* ``txn_size`` nodes; revisits collapse, which
means the distinct access set is often smaller than ``txn_size`` — exactly as
in the paper, where a 5-object transaction is the trace of a 5-node walk,
not 5 independent draws. This keeps the access sets tight around the start
node's neighbourhood, which is what makes short dependency lists effective.

The start node and every step are drawn through
:func:`repro.sim.rng.integers_below`, stream-identical to the
scalar ``Generator.integers`` form it replaces; a step out of a node of degree 1
consumes nothing from the stream, exactly as numpy's draw below 1 does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import integers_below
from repro.types import Key

if TYPE_CHECKING:  # annotations only: importing networkx costs ~0.1 s
    import networkx as nx

__all__ = ["RandomWalkWorkload", "node_key"]


def node_key(node: object) -> Key:
    """Stable object key for a graph node."""
    return f"n{node}"


class RandomWalkWorkload:
    """Transactions as the trace of a short random walk over a topology."""

    def __init__(self, graph: nx.Graph, txn_size: int = 5) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("workload graph is empty")
        if txn_size < 1:
            raise ConfigurationError(f"txn_size must be positive, got {txn_size}")
        self.graph = graph
        self.txn_size = txn_size
        self._nodes = list(graph.nodes())
        self._neighbors = {node: list(graph.neighbors(node)) for node in self._nodes}
        self._keys = [node_key(node) for node in self._nodes]

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        start = self._nodes[integers_below(rng, len(self._nodes), 1)[0]]
        visited: dict[object, None] = {start: None}
        current = start
        for _ in range(self.txn_size - 1):
            neighbors = self._neighbors[current]
            if not neighbors:
                break
            current = neighbors[integers_below(rng, len(neighbors), 1)[0]]
            visited.setdefault(current, None)
        return [node_key(node) for node in visited]

    def all_keys(self) -> Sequence[Key]:
        return self._keys
