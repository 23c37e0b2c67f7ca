"""Multi-edge scenario experiments for the CLI (``scenario`` experiment).

Runs the library fleets — a heterogeneous-loss fleet sized by ``--edges``,
the geo-skewed regions, the flash-crowd surge, and (with ``--backends >=
2``) the routed backend tiers (regional backends, hot-backend overload,
the region-failure drill and the capacity-planning grid) — as one sweep of
scenario points, then reports three views: per-edge rows (which edge hurts
and why), per-backend rows (which backend carries the load), and fleet
aggregates (what the whole deployment looks like).

:func:`capacity_planning_sweep` builds the capacity-planning grid; it is a
sweep of library fleets, so it lives here rather than in the library.

``replay_spec`` rebuilds a single scenario from a JSON artifact
(``repro-experiments scenario --spec file.json``) — the round-trip partner
of :meth:`~repro.scenario.spec.ScenarioSpec.as_dict`.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.errors import ConfigurationError
from repro.experiments.report import Experiment, section
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.scenario.library import (
    flash_crowd_scenario,
    geo_skewed_scenario,
    heterogeneous_loss_fleet,
    hot_backend_overload,
    region_failure_drill,
    regional_backends_scenario,
)
from repro.scenario.results import ScenarioResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "EXPERIMENT",
    "capacity_planning_sweep",
    "spec",
    "replay_spec",
    "rows",
    "backend_rows",
    "edge_rows",
    "fleet_rows",
]


def capacity_planning_sweep(
    *,
    regions: int = 2,
    edges_per_region: int = 2,
    load_factors: tuple[float, ...] = (0.5, 1.0, 2.0),
    shard_options: tuple[int, ...] = (1, 2),
    objects_per_region: int = 400,
    base_read_rate: float = 300.0,
    base_update_rate: float = 60.0,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 701,
) -> SweepSpec:
    """A capacity-planning grid over the regional tier, as a sweep spec.

    Re-runs :func:`~repro.scenario.library.regional_backends_scenario`
    across every ``(load factor, shard count)`` combination on one shared
    seed, so rows differ only by the knob under study: how does the tier's
    per-backend read load, commit throughput and inconsistency move as
    client traffic multiplies, and how much of it does sharding buy back?
    Returns a :class:`SweepSpec` whose points are whole scenarios — exactly
    the independent, chunkable units the dispatch tier
    (``run_sweep(spec, dispatch=...)``) fans out across hosts.
    """
    if not load_factors:
        raise ConfigurationError("need at least one load factor")
    if not shard_options:
        raise ConfigurationError("need at least one shard count")
    if any(factor <= 0 for factor in load_factors):
        raise ConfigurationError(f"load factors must be positive, got {load_factors}")
    points = [
        SweepPoint(
            label=f"load{factor:g}x-shards{shards}",
            scenario=regional_backends_scenario(
                regions=regions,
                edges_per_region=edges_per_region,
                objects_per_region=objects_per_region,
                shards=shards,
                duration=duration,
                warmup=warmup,
                seed=seed,
                read_rate=base_read_rate * factor,
                update_rate=base_update_rate * factor,
            ),
            params={"load_factor": factor, "shards": shards},
        )
        for factor in load_factors
        for shards in shard_options
    ]
    return SweepSpec(
        name="capacity-planning",
        description=(
            f"{regions}-region tier under load x{list(load_factors)} with "
            f"{list(shard_options)} shard option(s), one shared seed"
        ),
        root_seed=seed,
        points=points,
    )


def spec(
    *,
    edges: int = 3,
    backends: int = 2,
    duration: float = 30.0,
    seed: int = 101,
) -> SweepSpec:
    """One sweep over the library fleets (scenario points).

    ``backends >= 2`` adds the routed-tier scenarios — regional backends
    and hot-backend overload (each sized by ``backends``), the
    region-failure drill, and the capacity-planning grid (load x1/x2 at 1
    and 2 shards, labels prefixed ``capacity/``); ``backends=1`` keeps the
    historical single-backend grid.
    """
    warmup = max(1.0, duration / 6.0)
    points = [
        SweepPoint(
            label="hetero-loss",
            scenario=heterogeneous_loss_fleet(
                edges=edges, duration=duration, warmup=warmup, seed=seed
            ),
            params={"edges": edges},
        ),
        SweepPoint(
            label="geo-skew",
            scenario=geo_skewed_scenario(
                duration=duration, warmup=warmup, seed=seed + 1
            ),
            params={"regions": 3},
        ),
        SweepPoint(
            label="flash-crowd",
            scenario=flash_crowd_scenario(
                duration=duration, warmup=warmup, seed=seed + 2
            ),
            params={"quiet_edges": 2},
        ),
    ]
    if backends >= 2:
        points.append(
            SweepPoint(
                label="regional-backends",
                scenario=regional_backends_scenario(
                    regions=backends,
                    edges_per_region=max(2, edges // backends),
                    duration=duration,
                    warmup=warmup,
                    seed=seed + 3,
                ),
                params={"backends": backends},
            )
        )
        points.append(
            SweepPoint(
                label="hot-backend",
                scenario=hot_backend_overload(
                    backends=backends,
                    duration=duration,
                    warmup=warmup,
                    seed=seed + 4,
                ),
                params={"backends": backends},
            )
        )
        points.append(
            SweepPoint(
                label="region-failure",
                scenario=region_failure_drill(
                    regions=max(2, backends),
                    duration=duration,
                    warmup=warmup,
                    seed=seed + 5,
                ),
                params={"regions": max(2, backends)},
            )
        )
        points.extend(
            replace(point, label=f"capacity/{point.label}")
            for point in capacity_planning_sweep(
                regions=backends,
                load_factors=(1.0, 2.0),
                shard_options=(1, 2),
                duration=duration,
                warmup=warmup,
                seed=seed + 6,
            ).points
        )
    return SweepSpec(
        name="scenarios",
        description=(
            "multi-edge topologies: loss ramp, geo skew, flash crowd"
            + (
                ", regional backends, hot backend, region failure, capacity grid"
                if backends >= 2
                else ""
            )
        ),
        root_seed=seed,
        points=points,
    )


def edge_rows(label: str, result: ScenarioResult) -> list[dict[str, object]]:
    """One row per edge: channel quality in, consistency metrics out."""
    rows = []
    for edge_spec, edge in result.pairs():
        rows.append(
            {
                "scenario": label,
                "edge": edge_spec.name,
                "backend": result.spec.placement[edge_spec.name],
                "loss_pct": round(100.0 * edge_spec.invalidation_loss, 1),
                "read_rate": edge_spec.read_rate,
                "update_rate": edge_spec.update_rate,
                "inconsistency_pct": round(100.0 * edge.inconsistency_ratio, 2),
                "detection_pct": round(100.0 * edge.detection_ratio, 1),
                "hit_pct": round(100.0 * edge.hit_ratio, 1),
                "db_reads_per_s": round(edge.db_access_rate, 1),
            }
        )
    return rows


def backend_rows(label: str, result: ScenarioResult) -> list[dict[str, object]]:
    """One row per backend: its share of the tier's load and staleness."""
    return [
        {
            "scenario": label,
            "backend": aggregate.name,
            "edges": len(aggregate.edges),
            "shards": result.spec.backend(aggregate.name).shards,
            "update_commits": aggregate.update_commits,
            "read_load_per_s": round(aggregate.read_load, 1),
            "invalidations_sent": aggregate.db_stats.invalidations_sent,
            "inconsistency_pct": round(100.0 * aggregate.inconsistency_ratio, 2),
            "detection_pct": round(100.0 * aggregate.detection_ratio, 1),
        }
        for aggregate in result.backends
    ]


def fleet_rows(label: str, result: ScenarioResult) -> list[dict[str, object]]:
    """One aggregate row per scenario: the tier's view of the fleet."""
    fleet = result.fleet
    return [
        {
            "scenario": label,
            "edges": len(result.spec),
            "backends": len(result.spec.backends),
            "inconsistency_pct": round(100.0 * fleet.inconsistency_ratio, 2),
            "detection_pct": round(100.0 * fleet.detection_ratio, 1),
            "hit_pct": round(100.0 * fleet.hit_ratio, 1),
            "backend_reads_per_s": round(fleet.backend_read_rate, 1),
            "update_commits": fleet.update_commits,
            "inconsistency_var": round(fleet.inconsistency_variance, 6),
            "hit_ratio_var": round(fleet.hit_ratio_variance, 6),
        }
    ]


Rows = list[dict[str, object]]


def rows(sweep: SweepResult) -> tuple[Rows, Rows, Rows]:
    """The three views of a scenario sweep: (per-edge, per-backend, fleet)."""
    per_edge: Rows = []
    per_backend: Rows = []
    per_fleet: Rows = []
    for point, result in sweep.pairs():
        per_edge.extend(edge_rows(point.label, result))
        per_backend.extend(backend_rows(point.label, result))
        per_fleet.extend(fleet_rows(point.label, result))
    return per_edge, per_backend, per_fleet


def replay_spec(path: str, *, duration: float | None = None) -> SweepSpec:
    """The one-point sweep replaying a scenario JSON spec/artifact file.

    The file holds :meth:`ScenarioSpec.as_dict` output (also embedded in
    ``--json`` artifacts under ``sweep_specs[].columns[].scenario`` and in
    scenario results). ``duration`` optionally overrides the recorded
    duration.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if duration is not None:
        payload = {**payload, "duration": duration}
    scenario = ScenarioSpec.from_dict(payload)
    return SweepSpec(
        name="scenario-replay",
        description=f"replay of {scenario.name!r} from {path}",
        root_seed=scenario.seed,
        points=[
            SweepPoint(
                label=scenario.name,
                scenario=scenario,
                params={"spec_file": path},
            )
        ],
    )


def _cli_specs(args) -> list[SweepSpec]:
    if args.spec_path is not None:
        # An explicit --duration overrides the recorded one; without it
        # (None) the replay honours what the spec file says.
        return [replay_spec(args.spec_path, duration=args.duration)]
    return [spec(edges=args.edges, backends=args.backends, duration=args.duration)]


def _cli_sections(sweeps: list[SweepResult]) -> list[dict[str, object]]:
    per_edge, per_backend, per_fleet = rows(sweeps[0])
    return [
        section("Scenarios: per-edge view", per_edge),
        section("Scenarios: per-backend view", per_backend),
        section("Scenarios: fleet aggregates", per_fleet),
    ]


EXPERIMENT = Experiment(
    "multi-edge library fleets (or, with --spec, one saved scenario): "
    "per-edge, per-backend and fleet views",
    _cli_specs,
    _cli_sections,
)
