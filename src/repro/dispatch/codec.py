"""Wire encoding of sweep results for the dispatch protocol.

Work travels *to* a worker as a :meth:`SweepPoint.as_dict` payload (the
portable half of the sweep layer); results travel *back* through this
module.  The encoding is plain JSON — stat dataclasses by field dict,
series as-is — and the decoder reattaches the **submitter's own** spec
objects (the point's :class:`ColumnConfig` or :class:`ScenarioSpec`)
instead of echoing them over the wire.  That keeps result frames small and
makes the determinism contract structural: a dispatched
``SweepResult.to_artifact()`` is built from the very same spec objects a
local run would use, so any byte difference against ``jobs=1`` can only
come from the simulation itself — which is deterministic.

JSON round-tripping is exact for every field involved: series values are
Python floats (``repr`` round-trip), counters are ints.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Mapping, Sequence

from repro.cache.base import CacheStats
from repro.clients.read_client import ReadClientStats
from repro.clients.update_client import UpdateClientStats
from repro.db.database import DatabaseStats
from repro.dispatch.protocol import is_index
from repro.errors import ProtocolError
from repro.experiments.sweep import SweepPoint, ordered_results
from repro.monitor.stats import ClassCounts
from repro.scenario.results import (
    BackendAggregates,
    ColumnResult,
    FleetAggregates,
    ScenarioResult,
)
from repro.scenario.spec import ScenarioSpec
from repro.sim.channel import ChannelStats

__all__ = ["decode_result", "decode_results", "encode_result"]


def _decode_stats(cls: type, payload: Mapping[str, object]):
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolError(f"bad {cls.__name__} payload: {exc}") from exc


def _encode_column(result: ColumnResult) -> dict[str, object]:
    # The config is deliberately omitted: the decoder reattaches the
    # submitter's local config/spec objects (see module docstring).
    return {
        "counts": asdict(result.counts),
        "cache_stats": asdict(result.cache_stats),
        "db_stats": asdict(result.db_stats),
        "channel_stats": asdict(result.channel_stats),
        "update_client_stats": asdict(result.update_client_stats),
        "read_client_stats": asdict(result.read_client_stats),
        "series": result.series,
        "detections_eq1": result.detections_eq1,
        "detections_eq2": result.detections_eq2,
        "retries_resolved": result.retries_resolved,
        # Telemetry rides along only when the point ran traced, so untraced
        # frames stay byte-identical to previous protocol versions.
        **({"telemetry": result.telemetry} if result.telemetry is not None else {}),
        **({"trace": result.trace} if result.trace is not None else {}),
    }


def _decode_column(payload: Mapping[str, object], config) -> ColumnResult:
    return ColumnResult(
        config=config,
        counts=_decode_stats(ClassCounts, payload["counts"]),
        cache_stats=_decode_stats(CacheStats, payload["cache_stats"]),
        db_stats=_decode_stats(DatabaseStats, payload["db_stats"]),
        channel_stats=_decode_stats(ChannelStats, payload["channel_stats"]),
        update_client_stats=_decode_stats(
            UpdateClientStats, payload["update_client_stats"]
        ),
        read_client_stats=_decode_stats(
            ReadClientStats, payload["read_client_stats"]
        ),
        series=list(payload["series"]),
        detections_eq1=payload["detections_eq1"],
        detections_eq2=payload["detections_eq2"],
        retries_resolved=payload["retries_resolved"],
        telemetry=payload.get("telemetry"),
        trace=payload.get("trace"),
    )


def _encode_scenario(result: ScenarioResult) -> dict[str, object]:
    return {
        "edges": [_encode_column(edge) for edge in result.edges],
        "fleet": asdict(result.fleet),
        "db_stats": asdict(result.db_stats),
        "backends": [
            {
                "name": aggregate.name,
                "edges": list(aggregate.edges),
                "counts": asdict(aggregate.counts),
                "db_stats": asdict(aggregate.db_stats),
                "db_accesses": aggregate.db_accesses,
                "read_load": aggregate.read_load,
            }
            for aggregate in result.backends
        ],
        **({"telemetry": result.telemetry} if result.telemetry is not None else {}),
        **({"trace": result.trace} if result.trace is not None else {}),
    }


def _decode_scenario(
    payload: Mapping[str, object], spec: ScenarioSpec
) -> ScenarioResult:
    edge_payloads = payload["edges"]
    if len(edge_payloads) != len(spec.edges):
        raise ProtocolError(
            f"scenario result carries {len(edge_payloads)} edges, "
            f"spec {spec.name!r} has {len(spec.edges)}"
        )
    fleet_payload = dict(payload["fleet"])
    fleet_payload["counts"] = _decode_stats(ClassCounts, fleet_payload["counts"])
    return ScenarioResult(
        spec=spec,
        edges=[
            _decode_column(edge_payload, spec.edge_config(edge_spec))
            for edge_spec, edge_payload in zip(spec.edges, edge_payloads)
        ],
        fleet=_decode_stats(FleetAggregates, fleet_payload),
        db_stats=_decode_stats(DatabaseStats, payload["db_stats"]),
        backends=[
            BackendAggregates(
                name=backend["name"],
                edges=list(backend["edges"]),
                counts=_decode_stats(ClassCounts, backend["counts"]),
                db_stats=_decode_stats(DatabaseStats, backend["db_stats"]),
                db_accesses=backend["db_accesses"],
                read_load=backend["read_load"],
            )
            for backend in payload["backends"]
        ],
        telemetry=payload.get("telemetry"),
        trace=payload.get("trace"),
    )


def encode_result(result: ColumnResult | ScenarioResult) -> dict[str, object]:
    """A result as a JSON-safe wire payload, tagged by kind."""
    if isinstance(result, ScenarioResult):
        return {"kind": "scenario", **_encode_scenario(result)}
    if isinstance(result, ColumnResult):
        return {"kind": "column", **_encode_column(result)}
    raise ProtocolError(
        f"cannot encode result of type {type(result).__name__}"
    )


def decode_result(
    payload: Mapping[str, object], point: SweepPoint
) -> ColumnResult | ScenarioResult:
    """Rebuild a result from :func:`encode_result` output.

    ``point`` supplies the submitter-side spec objects the wire payload
    deliberately omits; the payload's kind must match the point's.
    """
    try:
        kind = payload["kind"]
    except (TypeError, KeyError):
        raise ProtocolError(f"result payload has no 'kind': {payload!r}")
    if kind == "scenario":
        if point.scenario is None:
            raise ProtocolError(
                f"scenario result for column point {point.label!r}"
            )
        return _decode_scenario(payload, point.scenario)
    if kind == "column":
        if point.config is None:
            raise ProtocolError(
                f"column result for scenario point {point.label!r}"
            )
        return _decode_column(payload, point.config)
    raise ProtocolError(f"unknown result kind {kind!r}")


def decode_results(
    points: Sequence[SweepPoint], wire_results: Iterable[tuple[object, object]]
) -> list[ColumnResult | ScenarioResult]:
    """A whole sweep's ``(index, payload)`` pairs as results in spec order.

    What every submitter does with what a daemon collected: decode each
    payload against its own point, then reassemble through the same
    :func:`~repro.experiments.sweep.ordered_results` the local pool uses
    (which raises if any index is missing).
    """
    results_by_index: dict[int, object] = {}
    for index, payload in wire_results:
        if not is_index(index) or not 0 <= index < len(points):
            raise ProtocolError(f"results carry index {index!r} outside the sweep")
        results_by_index[index] = decode_result(payload, points[index])
    return ordered_results(len(points), results_by_index)
