"""The protocol ``examples/protocol_zoo.py`` registers actually serves reads.

Its cache once read attributes that do not exist; every read-only
transaction process died on the first read, nobody was waiting on those
processes, and the example printed a 0.00 % inconsistency rate over zero
committed transactions. The kernel now raises such a failure out of the run,
and this runs the example's cache for one simulated second.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import EdgeSpec, PerfectClusterWorkload, ScenarioSpec, run_scenario
from repro.protocols import ProtocolSpec, registry

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "protocol_zoo.py"


def test_bounded_staleness_cache_commits_transactions(monkeypatch) -> None:
    loader = importlib.util.spec_from_file_location("protocol_zoo_example", EXAMPLE)
    example = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(example)
    monkeypatch.setitem(
        registry._REGISTRY,
        "bounded-staleness",
        ProtocolSpec(
            name="bounded-staleness",
            family="example",
            description="refetch anything older than 100ms",
            build_cache=lambda sim, db, edge, service: example.BoundedStalenessCache(
                sim, db, bound=0.1, name=edge.name
            ),
        ),
    )
    result = run_scenario(
        ScenarioSpec(
            name="bounded-one-second",
            seed=3,
            duration=1.0,
            warmup=0.0,
            edges=[
                EdgeSpec(
                    name="bounded",
                    workload=PerfectClusterWorkload(n_objects=100, cluster_size=5),
                    protocol="bounded-staleness",
                )
            ],
        )
    )
    stats = result.edge("bounded").cache_stats
    assert stats.transactions_committed > 0
    assert stats.retries > 0  # entries older than the bound were refetched
