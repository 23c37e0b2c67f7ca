"""The protocol race: every registered consistency protocol, same scenarios.

The paper evaluates one protocol. The protocol zoo (:mod:`repro.protocols`)
makes alternatives first-class, and this experiment races them: each racing
protocol runs the same three library fleets (heterogeneous loss, geo skew,
flash crowd) under identical seeds and workloads — only the per-edge
``protocol`` differs — and the artifact ranks them on the three axes the
designs actually trade against each other:

* **inconsistency rate** — committed read-only transactions the omniscient
  monitor classifies as inconsistent;
* **read latency proxy** — cache round trip plus the protocol's backend
  round trips per read (validation, causal refresh, proof re-signing),
  weighted by nominal RTTs (:data:`EDGE_RTT_MS` / :data:`BACKEND_RTT_MS`);
* **backend load** — cache-originated backend reads per simulated second.

Ranking is lexicographic: fewest inconsistencies first, then cheapest
reads. That places the pessimistic ``locking`` bound at one end (zero
inconsistency, a backend round trip per read) and the best-effort caches at
the other, with the paper's detector and the causal/verified designs
competing in between — the figure-style deliverable of the ROADMAP's
protocol-zoo item.

The sweep is an ordinary :class:`~repro.experiments.sweep.SweepSpec` over
portable scenario points, so it runs serial, multiprocess (``--jobs``),
distributed (``--dispatch``) and fleet-submitted (``--fleet``) with
byte-identical artifacts (asserted by the integration suite and the
``protocol-smoke`` CI job).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.experiments.report import Experiment, section
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.protocols.registry import get_protocol
from repro.scenario.library import (
    flash_crowd_scenario,
    geo_skewed_scenario,
    heterogeneous_loss_fleet,
)
from repro.scenario.results import ScenarioResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "RACE_PROTOCOLS",
    "RACE_SCHEMA",
    "EDGE_RTT_MS",
    "BACKEND_RTT_MS",
    "TTL_SECONDS",
    "spec",
    "race_rows",
    "ranking_rows",
    "artifact",
    "validate_artifact",
    "report",
    "EXPERIMENT",
]

#: The default field: the paper's detector as incumbent plus the three
#: protocol-zoo competitors. Any registered protocol name may race.
RACE_PROTOCOLS: tuple[str, ...] = (
    "tcache-detector",
    "causal",
    "verified-read",
    "locking",
)

RACE_SCHEMA = "repro.protocol-race/1"

#: Nominal client-to-edge round trip charged to every cache read, ms.
EDGE_RTT_MS = 1.0
#: Nominal edge-to-backend round trip charged per backend read, ms. The
#: 20:1 ratio against :data:`EDGE_RTT_MS` follows the paper's edge/backend
#: setting (§II): the whole point of edge caching is that the backend is an
#: order of magnitude farther away.
BACKEND_RTT_MS = 20.0

#: Expiry granted to TTL-family protocols when a library edge does not set
#: its own ``ttl`` (the library fleets are detector-oriented and leave it
#: unset); one second sits between the paper's update interarrivals.
TTL_SECONDS = 1.0


def _base_scenarios(duration: float, seed: int) -> list[tuple[str, ScenarioSpec]]:
    warmup = max(1.0, duration / 6.0)
    return [
        (
            "hetero-loss",
            heterogeneous_loss_fleet(duration=duration, warmup=warmup, seed=seed),
        ),
        (
            "geo-skew",
            geo_skewed_scenario(duration=duration, warmup=warmup, seed=seed + 1),
        ),
        (
            "flash-crowd",
            flash_crowd_scenario(duration=duration, warmup=warmup, seed=seed + 2),
        ),
    ]


def _with_protocol(scenario: ScenarioSpec, protocol: str) -> ScenarioSpec:
    needs_ttl = get_protocol(protocol).requires_ttl  # loud on an unknown name

    def _adapt(edge):
        ttl = edge.ttl
        if needs_ttl and ttl is None:
            ttl = TTL_SECONDS
        return replace(edge, protocol=protocol, ttl=ttl)

    return replace(
        scenario,
        name=f"{scenario.name}/{protocol}",
        edges=[_adapt(edge) for edge in scenario.edges],
    )


def spec(
    *,
    protocols: Sequence[str] = RACE_PROTOCOLS,
    duration: float = 30.0,
    seed: int = 101,
) -> SweepSpec:
    """One sweep point per (library scenario, racing protocol) pair.

    Every protocol sees the same scenarios at the same seeds; the per-point
    seed offsets come from point order, so the point grid is laid out
    scenario-major to keep each scenario's seed stable across protocol
    fields of different sizes.
    """
    if not protocols:
        raise ConfigurationError("protocol race needs at least one protocol")
    points = [
        SweepPoint(
            label=f"{scenario_label}/{protocol}",
            scenario=_with_protocol(scenario, protocol),
            params={"scenario": scenario_label, "protocol": protocol},
        )
        for scenario_label, scenario in _base_scenarios(duration, seed)
        for protocol in protocols
    ]
    return SweepSpec(
        name="protocol-race",
        description=(
            "consistency-protocol race: "
            + ", ".join(protocols)
            + " across the library fleets"
        ),
        root_seed=seed,
        points=points,
    )


def race_rows(
    pairs: Sequence[tuple[Mapping[str, object], ScenarioResult]],
) -> list[dict[str, object]]:
    """One row per (scenario, protocol) point, in sweep order."""
    rows: list[dict[str, object]] = []
    for params, result in pairs:
        fleet = result.fleet
        reads = fleet.cache_reads
        backend_reads_per_read = fleet.db_accesses / reads if reads else 0.0
        rows.append(
            {
                "scenario": params["scenario"],
                "protocol": params["protocol"],
                "inconsistency_pct": round(100.0 * fleet.inconsistency_ratio, 3),
                "abort_pct": round(100.0 * fleet.abort_ratio, 3),
                "read_latency_ms": round(
                    EDGE_RTT_MS + backend_reads_per_read * BACKEND_RTT_MS, 3
                ),
                "backend_reads_per_s": round(fleet.backend_read_rate, 1),
                "hit_pct": round(100.0 * fleet.hit_ratio, 1),
                "update_commits": fleet.update_commits,
            }
        )
    return rows


def ranking_rows(rows: Sequence[Mapping[str, object]]) -> list[dict[str, object]]:
    """Per-protocol means across scenarios, ranked.

    Lexicographic order: lowest mean inconsistency wins; mean read latency
    breaks ties (then the protocol name, for full determinism).
    """
    by_protocol: dict[str, list[Mapping[str, object]]] = {}
    for row in rows:
        by_protocol.setdefault(str(row["protocol"]), []).append(row)

    def _mean(group: list[Mapping[str, object]], field: str) -> float:
        return sum(float(row[field]) for row in group) / len(group)

    aggregated = [
        {
            "protocol": protocol,
            "scenarios": len(group),
            "inconsistency_pct": round(_mean(group, "inconsistency_pct"), 3),
            "abort_pct": round(_mean(group, "abort_pct"), 3),
            "read_latency_ms": round(_mean(group, "read_latency_ms"), 3),
            "backend_reads_per_s": round(_mean(group, "backend_reads_per_s"), 1),
            "hit_pct": round(_mean(group, "hit_pct"), 1),
        }
        for protocol, group in by_protocol.items()
    ]
    aggregated.sort(
        key=lambda row: (
            row["inconsistency_pct"],
            row["read_latency_ms"],
            row["protocol"],
        )
    )
    for rank, row in enumerate(aggregated, start=1):
        row["rank"] = rank
    return aggregated


def artifact(
    rows: Sequence[Mapping[str, object]],
    ranking: Sequence[Mapping[str, object]],
    *,
    duration: float,
    seed: int,
) -> dict[str, object]:
    """The schema'd race artifact (deterministic for fixed inputs)."""
    return {
        "schema": RACE_SCHEMA,
        "duration": duration,
        "seed": seed,
        "protocols": sorted({str(row["protocol"]) for row in rows}),
        "scenarios": sorted({str(row["scenario"]) for row in rows}),
        "rows": [dict(row) for row in rows],
        "ranking": [dict(row) for row in ranking],
    }


_ROW_FIELDS = {
    "scenario": str,
    "protocol": str,
    "inconsistency_pct": (int, float),
    "abort_pct": (int, float),
    "read_latency_ms": (int, float),
    "backend_reads_per_s": (int, float),
    "hit_pct": (int, float),
    "update_commits": int,
}

_RANKING_FIELDS = {
    "rank": int,
    "protocol": str,
    "scenarios": int,
    "inconsistency_pct": (int, float),
    "abort_pct": (int, float),
    "read_latency_ms": (int, float),
    "backend_reads_per_s": (int, float),
    "hit_pct": (int, float),
}


def validate_artifact(payload: Mapping[str, object]) -> None:
    """Assert ``payload`` matches :data:`RACE_SCHEMA` (hand-rolled — the
    container has no jsonschema); raises :class:`ConfigurationError`."""

    def _fail(message: str) -> None:
        raise ConfigurationError(f"protocol-race artifact invalid: {message}")

    if not isinstance(payload, Mapping):
        _fail(f"payload must be a mapping, got {type(payload).__name__}")
    if payload.get("schema") != RACE_SCHEMA:
        _fail(f"schema must be {RACE_SCHEMA!r}, got {payload.get('schema')!r}")
    for field in ("protocols", "scenarios", "rows", "ranking"):
        if not isinstance(payload.get(field), list):
            _fail(f"{field!r} must be a list")
    for field, expected in (("duration", (int, float)), ("seed", int)):
        if not isinstance(payload.get(field), expected):
            _fail(f"{field!r} must be {expected}")
    if not payload["protocols"]:
        _fail("at least one protocol required")
    for section, schema in (("rows", _ROW_FIELDS), ("ranking", _RANKING_FIELDS)):
        for i, row in enumerate(payload[section]):
            if not isinstance(row, Mapping):
                _fail(f"{section}[{i}] must be a mapping")
            for field, types in schema.items():
                value = row.get(field)
                if not isinstance(value, types) or isinstance(value, bool):
                    _fail(
                        f"{section}[{i}].{field} must be {types}, "
                        f"got {value!r}"
                    )
    expected = len(payload["protocols"]) * len(payload["scenarios"])
    if len(payload["rows"]) != expected:
        _fail(
            f"expected {expected} rows (protocols x scenarios), "
            f"got {len(payload['rows'])}"
        )
    if len(payload["ranking"]) != len(payload["protocols"]):
        _fail(
            f"expected {len(payload['protocols'])} ranking rows, "
            f"got {len(payload['ranking'])}"
        )
    ranks = [row["rank"] for row in payload["ranking"]]
    if ranks != list(range(1, len(ranks) + 1)):
        _fail(f"ranking must be 1..{len(ranks)} in order, got {ranks}")
    if "telemetry" in payload:
        # Present only on traced runs: one repro.telemetry/1 section per
        # race point, keyed by its point label.
        from repro.telemetry import validate_telemetry

        sections = payload["telemetry"]
        if not isinstance(sections, Mapping):
            _fail("'telemetry' must be a mapping of point label -> section")
        for label, section in sections.items():
            try:
                validate_telemetry(section)
            except ConfigurationError as exc:
                _fail(f"telemetry[{label!r}]: {exc}")


Report = tuple[list[dict[str, object]], list[dict[str, object]], dict[str, object]]


def report(sweep: SweepResult) -> Report:
    """(per-point rows, ranking, schema'd artifact) of a finished race.

    The artifact is validated before anything is returned, so whatever a
    caller prints or writes has passed :func:`validate_artifact`.
    """
    rows = race_rows([(point.params, result) for point, result in sweep.pairs()])
    ranking = ranking_rows(rows)
    payload = artifact(
        rows,
        ranking,
        duration=sweep.spec.points[0].scenario.duration,
        seed=sweep.spec.root_seed,
    )
    telemetry_sections = {
        point.label: result.telemetry
        for point, result in sweep.pairs()
        if result.telemetry is not None
    }
    if telemetry_sections:
        # Traced runs only: normalized_artifact strips this key, so a
        # traced race still normalizes to its untraced twin.
        payload["telemetry"] = telemetry_sections
    validate_artifact(payload)
    return rows, ranking, payload


def _cli_sections(sweeps: list[SweepResult]) -> list[dict[str, object]]:
    rows, ranking, _payload = report(sweeps[0])
    return [
        section("Protocol race: per-scenario rows", rows),
        section(
            "Protocol race: ranking (fewest inconsistencies, then cheapest reads)",
            ranking,
        ),
    ]


EXPERIMENT = Experiment(
    "race the consistency protocols (detector, causal, verified-read, locking) "
    "across the library fleets",
    lambda args: [spec(duration=args.duration)],
    _cli_sections,
)
