"""The Tracer: sim-time-keyed structured records, and the metrics they imply.

A record is a compact tuple ``(sim_time, category, name, fields)`` — dict
conversion is deferred to export so the per-record cost during a run is one
tuple allocation and one list append. The category names the emitting layer
(``sim``, ``cache``, ``channel``, ``db``, ``sgt`` or ``protocol``) and is
exported as the record's ``cat`` field; a tracer records every category
(the kernel's ``sim`` is the only one with meaningful volume, roughly one
record per event executed).

The ``repro.telemetry/1`` snapshot is a view of those records, not a second
book kept beside them: :meth:`Tracer.snapshot` reads them through
:data:`METRICS`, the one place a counter or histogram of a traced run is
named. Emitters record the event and nothing else.

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

__all__ = ["METRICS", "Tracer"]

#: ``(cat, name)`` of a record -> what one such record adds to the snapshot,
#: as ``(field, target)`` rules:
#:
#: * ``(None, counter)`` counts the record;
#: * ``(field, {value: counter})`` counts it under the counter its field's
#:   value selects;
#: * ``(field, histogram)`` observes the field's value.
#:
#: A record kind absent here adds nothing.
METRICS: dict[tuple[str, str], tuple[tuple[str | None, Any], ...]] = {
    ("sim", "dispatch"): ((None, "sim.events_dispatched"),),
    ("sim", "process_resume"): ((None, "sim.process_resumes"),),
    ("cache", "serve"): (("hit", {True: "cache.hits", False: "cache.misses"}),),
    ("cache", "fetch"): ((None, "cache.fetches"),),
    ("cache", "evict_ttl"): ((None, "cache.ttl_expirations"),),
    ("cache", "evict_capacity"): ((None, "cache.capacity_evictions"),),
    ("cache", "invalidation"): (
        (
            "applied",
            {
                True: "cache.invalidations_applied",
                False: "cache.invalidations_ignored",
            },
        ),
    ),
    ("cache", "txn_finish"): (
        (
            "outcome",
            {"COMMITTED": "cache.txn_committed", "ABORTED": "cache.txn_aborted"},
        ),
    ),
    ("channel", "deliver"): (
        (None, "channel.delivered"),
        ("latency_ms", "channel.latency_ms"),
    ),
    ("channel", "drop"): (
        ("outage", {True: "channel.outage_drops", False: "channel.drops"}),
    ),
    # The monitor is every backend's commit listener: each commit is also
    # one update recorded in the serialization graph.
    ("db", "commit"): ((None, "db.commits"), (None, "sgt.update_commits")),
    ("db", "entry_read"): ((None, "db.entry_reads"),),
    ("sgt", "check"): (
        (
            "label",
            {
                "consistent": "sgt.consistent",
                "inconsistent": "sgt.inconsistent",
                "aborted_necessary": "sgt.aborted_necessary",
                "aborted_unnecessary": "sgt.aborted_unnecessary",
            },
        ),
    ),
    ("protocol", "floor_refuse"): ((None, "protocol.floor_refusals"),),
    ("protocol", "proof_refresh"): ((None, "protocol.proof_refreshes"),),
    ("protocol", "proof_verify_fail"): ((None, "protocol.proof_verify_failures"),),
    ("protocol", "wound_abort"): ((None, "protocol.wound_aborts"),),
}


class Tracer:
    """Collects the trace records of one sweep point."""

    __slots__ = ("point", "records")

    def __init__(self, *, point: str = "") -> None:
        self.point = point
        self.records: list[tuple[float, str, str, dict[str, Any] | None]] = []

    def emit(
        self,
        sim_time: float,
        category: str,
        name: str,
        fields: dict[str, Any] | None = None,
    ) -> None:
        """Append one record."""
        self.records.append((sim_time, category, name, fields))

    def snapshot(self) -> dict:
        """The ``repro.telemetry/1`` section that :data:`METRICS` reads off
        the records."""
        registry = MetricsRegistry()
        for _, category, name, fields in self.records:
            for field, target in METRICS.get((category, name), ()):
                if field is None:
                    registry.count(target)
                elif type(target) is dict:
                    registry.count(target[fields[field]])
                else:
                    registry.observe(target, fields[field])
        return registry.snapshot()

    def record_dicts(self) -> list[dict[str, Any]]:
        """Records as export-ready dicts, in emission order."""
        out = []
        for sim_time, category, name, fields in self.records:
            record: dict[str, Any] = {"t": sim_time, "cat": category, "name": name}
            if fields:
                record["fields"] = fields
            out.append(record)
        return out
