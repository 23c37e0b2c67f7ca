"""Stand-in topologies for the paper's Amazon and Orkut snapshots (§V-B1).

The paper builds workloads from two real graphs: Amazon's 2003 product
co-purchase snapshot [15] (~260k nodes) and Orkut's 2006 friendship snapshot
[21] (~3M nodes). Neither dataset is available in this offline environment,
so we synthesize parents with the properties the experiment actually
exercises, then apply the paper's own random-walk down-sampling unchanged
(:mod:`repro.workloads.sampling`).

What matters for T-Cache on these workloads is *co-update locality*: an
inconsistency is detectable when the object a transaction reads stale was
recently co-written with an object it reads fresh, which happens when
random walks revisit the same small neighbourhood. That is governed by
community structure:

* **Amazon-like** — co-purchase graphs are built from shopping sessions,
  which yields many small, dense product communities. We use a relaxed
  caveman graph (cliques of 8, 12 % of edges rewired): mean local
  clustering ≈ 0.6, like the original snapshot's strongly clustered
  structure, "the Amazon topology more so than the Orkut one".
* **Orkut-like** — friendship communities are larger and fuzzier. We use a
  Gaussian random partition graph (mean community 18, p_in = 0.4,
  p_out = 0.003): visibly clustered but an order of magnitude weaker, and
  denser, matching the paper's description of Fig. 7(b).

With dependency lists of length 3 these stand-ins reproduce the paper's
headline detection ratios (≈70 % Amazon, ≈43 % Orkut: claims
``fig8-detection-amazon`` and ``fig8-detection-orkut`` in
``benchmarks/test_claims.py``) and the direction, though not the size, of
the EVICT/RETRY improvements (see :mod:`repro.experiments.fig8_strategies`),
which is the validation that the substitution preserves the relevant
behaviour. Known divergence: degree distributions
here are more homogeneous than the real snapshots' power laws; T-Cache is
insensitive to that (dependencies arise "from the topology of the object
graph", §IV, via co-access locality, not from degree tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # the generators import networkx when called (~0.1 s)
    import networkx as nx

__all__ = ["amazon_like_graph", "orkut_like_graph", "topology_stats", "GraphStats"]

#: Community sizes chosen so 5-node walks usually stay inside one community.
_AMAZON_CLIQUE = 8
_AMAZON_REWIRE = 0.12
_ORKUT_COMMUNITY_MEAN = 18
_ORKUT_COMMUNITY_SHAPE = 6
_ORKUT_P_IN = 0.4
_ORKUT_P_OUT = 0.003


@dataclass(frozen=True, slots=True)
class GraphStats:
    """Topology statistics reported next to Fig. 7(a)/(b)."""

    nodes: int
    edges: int
    mean_degree: float
    max_degree: int
    #: Average local clustering coefficient — the headline difference
    #: between the two stand-ins.
    mean_clustering: float
    connected: bool
    components: int

    def as_row(self) -> dict[str, object]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "mean_degree": round(self.mean_degree, 2),
            "max_degree": self.max_degree,
            "mean_clustering": round(self.mean_clustering, 3),
            "connected": self.connected,
            "components": self.components,
        }


def amazon_like_graph(n_nodes: int = 4000, seed: int = 1) -> nx.Graph:
    """A product-affinity-like parent graph: small dense communities.

    Built as a relaxed caveman graph of ``n_nodes // 8`` cliques of 8 with
    12 % of edges rewired across cliques — strongly clustered yet connected
    enough for random-walk sampling and transaction walks to traverse it.
    """
    import networkx as nx

    if n_nodes < 2 * _AMAZON_CLIQUE:
        raise ConfigurationError(f"need at least {2 * _AMAZON_CLIQUE} nodes, got {n_nodes}")
    cliques = n_nodes // _AMAZON_CLIQUE
    graph = nx.relaxed_caveman_graph(cliques, _AMAZON_CLIQUE, _AMAZON_REWIRE, seed=seed)
    graph.graph["name"] = "amazon-like"
    return graph


def orkut_like_graph(n_nodes: int = 4000, seed: int = 2) -> nx.Graph:
    """A friendship-like parent graph: larger, fuzzier communities.

    Built as a Gaussian random partition graph: community sizes drawn around
    18, intra-community edge probability 0.4, inter-community 0.003 — denser
    and an order of magnitude less clustered than the Amazon stand-in,
    matching the relative structure the paper describes.
    """
    import networkx as nx

    if n_nodes < 2 * _ORKUT_COMMUNITY_MEAN:
        raise ConfigurationError(
            f"need at least {2 * _ORKUT_COMMUNITY_MEAN} nodes, got {n_nodes}"
        )
    graph = nx.gaussian_random_partition_graph(
        n_nodes,
        _ORKUT_COMMUNITY_MEAN,
        _ORKUT_COMMUNITY_SHAPE,
        _ORKUT_P_IN,
        _ORKUT_P_OUT,
        seed=seed,
    )
    graph.graph["name"] = "orkut-like"
    return graph


def topology_stats(graph: nx.Graph) -> GraphStats:
    """Summary statistics for a topology (used by tests and Fig. 7ab)."""
    import networkx as nx

    degrees = [degree for _, degree in graph.degree()]
    components = nx.number_connected_components(graph)
    return GraphStats(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        max_degree=max(degrees) if degrees else 0,
        mean_clustering=nx.average_clustering(graph),
        connected=components == 1,
        components=components,
    )
