#!/usr/bin/env python
"""The protocol zoo: race consistency protocols, then register your own.

Part one runs the ``protocol-race`` experiment at demo scale: every
default competitor — the paper's T-Cache detector, CausalMesh-style
session floors, TransEdge-style signed read proofs, and wound-wait lock
coherence — over the same three library fleets, ranked on inconsistency
rate vs a read-latency proxy vs backend load. The ranking *is* the
paper's argument, now measured instead of asserted: locking buys zero
inconsistency with a backend round trip per read; the optimistic designs
trade a little inconsistency for an order of magnitude less latency.

Part two registers a brand-new protocol in ~20 lines — a "pessimistic
TTL" that serves only entries younger than a hard staleness bound — and
immediately runs it through a scenario, no harness changes required.

Run:  python examples/protocol_zoo.py
"""

from repro import (
    EdgeSpec,
    PerfectClusterWorkload,
    ProtocolSpec,
    ScenarioSpec,
    protocol_names,
    register_protocol,
    run_scenario,
)
from repro.cache.base import CacheServer
from repro.experiments import protocol_race, run_sweep
from repro.experiments.report import print_table


def run_the_race() -> None:
    print(f"registered protocols: {', '.join(protocol_names())}\n")
    rows, ranking = protocol_race.report(
        run_sweep(protocol_race.spec(duration=6.0), jobs=2)
    )
    print_table(
        rows,
        title="per (scenario, protocol) point",
    )
    print()
    print_table(
        ranking,
        title="ranking: fewest inconsistencies, then cheapest reads",
    )
    print()


class BoundedStalenessCache(CacheServer):
    """Serve a cached entry only while it is younger than ``bound``."""

    def __init__(self, sim, backend, *, bound, name):
        super().__init__(sim, backend, name=name)
        self.bound = bound
        self._fetched_at = {}

    def _fetch(self, key):
        entry = super()._fetch(key)
        self._fetched_at[key] = self._sim.now
        return entry

    def _check_read(self, txn_id, record, entry):
        if self._sim.now - self._fetched_at.get(entry.key, 0.0) > self.bound:
            self.stats.retries += 1
            entry = self._fetch(entry.key)
        return entry, False


def register_and_run_bounded_staleness() -> None:
    register_protocol(
        ProtocolSpec(
            name="bounded-staleness",
            family="example",
            description="refetch anything older than 100ms",
            build_cache=lambda sim, db, edge, service: BoundedStalenessCache(
                sim, db, bound=0.1, name=edge.name
            ),
        )
    )
    workload = PerfectClusterWorkload(n_objects=500, cluster_size=5)
    spec = ScenarioSpec(
        name="bounded-demo",
        duration=10.0,
        warmup=2.0,
        edges=[
            EdgeSpec(name="paper", workload=workload),
            EdgeSpec(
                name="bounded", workload=workload, protocol="bounded-staleness"
            ),
        ],
    )
    result = run_scenario(spec)
    rows = []
    for edge_spec in spec.edges:
        edge = result.edge(edge_spec.name)
        rows.append(
            {
                "edge": edge_spec.name,
                "protocol": edge_spec.protocol or "tcache-detector",
                "inconsistency": f"{edge.inconsistency_ratio:.2%}",
                "hit_ratio": f"{edge.hit_ratio:.1%}",
                "db_reads_per_s": round(edge.db_access_rate, 1),
            }
        )
    print_table(
        rows,
        title="a just-registered protocol racing the paper's detector",
    )


def main() -> None:
    run_the_race()
    register_and_run_bounded_staleness()
    print()
    print("Any ProtocolSpec races in every scenario, sweep and fleet run —")
    print("see the 'Protocol zoo' section of the README.")


if __name__ == "__main__":
    main()
