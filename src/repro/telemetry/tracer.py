"""The Tracer: sim-time-keyed structured records plus the metrics feed.

A record is a compact tuple ``(sim_time, category, name, fields)`` — dict
conversion is deferred to export so the per-record cost during a run is one
tuple allocation and one list append. The category names the emitting layer
(``sim``, ``cache``, ``channel``, ``db``, ``sgt`` or ``protocol``) and is
exported as the record's ``cat`` field; a tracer records every category
(the kernel's ``sim`` is the only one with meaningful volume, roughly one
record per event executed).

Determinism rules every emitter must follow:

* key by sim time, never wall clock;
* name callbacks by ``__qualname__`` (module-stable), never ``repr``
  (embeds memory addresses, which differ across processes and runs);
* fields must be JSON-serializable primitives derived from simulation
  state only.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Tracer"]


class Tracer:
    """Collects trace records and aggregates metrics for one sweep point."""

    __slots__ = ("point", "records", "metrics")

    def __init__(self, *, point: str = "") -> None:
        self.point = point
        self.records: list[tuple[float, str, str, dict[str, Any] | None]] = []
        self.metrics = MetricsRegistry()

    def emit(
        self,
        sim_time: float,
        category: str,
        name: str,
        fields: dict[str, Any] | None = None,
    ) -> None:
        """Append one record."""
        self.records.append((sim_time, category, name, fields))

    # Metrics forwarding — one handle serves both concerns at every site.

    def count(self, name: str, delta: int = 1) -> None:
        self.metrics.count(name, delta)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def snapshot(self) -> dict:
        return self.metrics.snapshot()

    def record_dicts(self) -> list[dict[str, Any]]:
        """Records as export-ready dicts, in emission order."""
        out = []
        for sim_time, category, name, fields in self.records:
            record: dict[str, Any] = {"t": sim_time, "cat": category, "name": name}
            if fields:
                record["fields"] = fields
            out.append(record)
        return out
