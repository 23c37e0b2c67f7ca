#!/usr/bin/env python
"""A routed backend tier: regional databases behind regional edge fleets.

PR 2 made the *edge* side declarative; this example shows the backend side
catching up. A ``ScenarioSpec`` now carries a tier of ``BackendSpec``s plus
a placement from edge to backend: two regional databases (one of them
sharded), each serving a metro edge with a clean invalidation channel and
an outskirts edge with a lossy one. Versions are only ordered within a
backend, so the consistency monitor classifies each region against its own
backend's serialization graph while still reporting one fleet-wide view.

The same spec round-trips through JSON — ``spec.as_dict()`` written to a
file replays with ``python -m repro.experiments scenario --spec file.json``.

Run:  python examples/multi_backend.py
"""

import json
import tempfile

from repro import run_scenario
from repro.experiments.report import print_table
from repro.scenario import regional_backends_scenario


def main() -> None:
    spec = regional_backends_scenario(
        regions=2,
        edges_per_region=2,
        objects_per_region=400,
        shards=2,
        duration=20.0,
        warmup=5.0,
        max_loss=0.4,
    )
    print(f"running scenario {spec.name!r}: {spec.description}")
    print(
        f"  {len(spec)} edges on {len(spec.backends)} backends, "
        f"{spec.total_time:g}s simulated"
    )
    for edge in spec.edges:
        print(f"    {edge.name} -> {spec.placement[edge.name]}")
    print()

    result = run_scenario(spec)

    print_table(
        [
            {
                "edge": edge_spec.name,
                "backend": spec.placement[edge_spec.name],
                "loss": f"{edge_spec.invalidation_loss:.0%}",
                "read_txns": edge.counts.total,
                # T-Cache's ABORT strategy turns would-be inconsistencies
                # into detections + aborts; lossier channels abort more.
                "detections": edge.detections_eq1 + edge.detections_eq2,
                "abort_ratio": f"{edge.abort_ratio:.2%}",
                "hit_ratio": f"{edge.hit_ratio:.1%}",
            }
            for edge_spec, edge in result.pairs()
        ],
        title="per-edge view (each region pays for its own channels)",
    )
    print()
    print_table(
        [
            {
                "backend": aggregate.name,
                "edges": len(aggregate.edges),
                "shards": spec.backend(aggregate.name).shards,
                "update_commits": aggregate.update_commits,
                "read_load_per_s": round(aggregate.read_load, 1),
                "abort_ratio": f"{aggregate.abort_ratio:.2%}",
            }
            for aggregate in result.backends
        ],
        title="per-backend view (independent version namespaces)",
    )
    print()
    fleet = result.fleet
    print_table(
        [
            {
                "read_txns": fleet.counts.total,
                "inconsistency": f"{fleet.inconsistency_ratio:.2%}",
                "update_commits": fleet.update_commits,
                "backend_reads_per_s": round(fleet.backend_read_rate, 1),
            }
        ],
        title="fleet aggregates (one monitor across the whole tier)",
    )

    # The spec is data: write it out and point the CLI at it to replay.
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as handle:
        json.dump(spec.as_dict(), handle, indent=2)
    print()
    print("replay this exact topology with:")
    print(f"  python -m repro.experiments scenario --spec {handle.name}")


if __name__ == "__main__":
    main()
