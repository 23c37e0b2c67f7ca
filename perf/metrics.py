"""Names, units and directions of every metric, and how spans become them.

``END_TO_END`` and ``PER_LAYER`` are the single list ``BENCHMARK.json``,
``run.py``, ``compare.py`` and the tests agree on. ``TARGETS`` says which
public callable of ``repro`` each span name wraps; a layer is a package
under ``src/repro`` and a span belongs to the layer its name starts with.

Every per-layer metric is reported by every workload; one a workload does
not exercise (or cannot observe, such as ``sim.events`` behind the wire)
reads 0. Counts and seconds taken from spans are per unit of work.
"""

from __future__ import annotations

from statistics import median

from perf.spans import HARNESS, Target, layer_of

__all__ = [
    "END_TO_END",
    "EXACT",
    "LAYERS",
    "PER_LAYER",
    "TARGETS",
    "UNITS",
    "layer_metrics",
    "unit_walls",
]

#: (name, unit, better). Host metrics, except ``consistent_pct``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("consistent_pct", "%", "higher"),
)

LAYERS = (
    "sim",
    "workloads",
    "cache",
    "core",
    "db",
    "monitor",
    "scenario",
    "experiments",
    "dispatch",
)

PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.channel.sends", "count", "lower"),
    ("sim.channel.dropped", "count", "lower"),
    ("sim.channel.busy_s", "s", "lower"),
    ("workloads.access_set.calls", "count", "lower"),
    ("workloads.access_set.busy_s", "s", "lower"),
    ("cache.read.calls", "count", "lower"),
    ("cache.read.busy_s", "s", "lower"),
    ("cache.read.self_s", "s", "lower"),
    ("cache.read.hit_ratio", "ratio", "higher"),
    ("cache.invalidation.calls", "count", "lower"),
    ("cache.invalidation.busy_s", "s", "lower"),
    ("cache.evictions", "count", "lower"),
    ("core.check_read.calls", "count", "lower"),
    ("core.check_read.busy_s", "s", "lower"),
    ("core.deplist_merge.calls", "count", "lower"),
    ("core.deplist_merge.busy_s", "s", "lower"),
    ("core.detections", "count", "higher"),
    ("core.useful_abort_ratio", "ratio", "higher"),
    ("db.txn.calls", "count", "lower"),
    ("db.txn.busy_s", "s", "lower"),
    ("db.txn.self_s", "s", "lower"),
    ("db.commits", "count", "higher"),
    ("db.aborts", "count", "lower"),
    ("db.read_entry.calls", "count", "lower"),
    ("db.read_entry.busy_s", "s", "lower"),
    ("db.lock.calls", "count", "lower"),
    ("db.lock.busy_s", "s", "lower"),
    ("db.wal.appends", "count", "lower"),
    ("db.wal.busy_s", "s", "lower"),
    ("monitor.record_update.calls", "count", "lower"),
    ("monitor.record_update.busy_s", "s", "lower"),
    ("monitor.record_read_only.calls", "count", "lower"),
    ("monitor.record_read_only.busy_s", "s", "lower"),
    ("monitor.sgt_record.calls", "count", "lower"),
    ("monitor.sgt_record.busy_s", "s", "lower"),
    ("monitor.sgt_check.calls", "count", "lower"),
    ("monitor.sgt_check.busy_s", "s", "lower"),
    ("monitor.record.per_s", "1/s", "higher"),
    ("monitor.check.per_s", "1/s", "higher"),
    ("monitor.sgt.expansions", "count", "lower"),
    ("scenario.build_s", "s", "lower"),
    ("scenario.collect_s", "s", "lower"),
    ("experiments.sweep.serial_point_ms", "ms", "lower"),
    ("experiments.sweep.reassemble_s", "s", "lower"),
    ("experiments.point_decode.busy_s", "s", "lower"),
    ("dispatch.frame.sends", "count", "lower"),
    ("dispatch.frame.send_busy_s", "s", "lower"),
    ("dispatch.frame.recv_busy_s", "s", "lower"),
    ("dispatch.frame.bytes", "B", "lower"),
    ("dispatch.codec.encode_busy_s", "s", "lower"),
    ("dispatch.codec.decode_busy_s", "s", "lower"),
    ("dispatch.journal.records", "count", "lower"),
    ("dispatch.journal.busy_s", "s", "lower"),
    ("dispatch.queue.acquires", "count", "lower"),
    ("dispatch.queue.busy_s", "s", "lower"),
    ("dispatch.wire_overhead_ratio", "ratio", "lower"),
    ("telemetry.on_ratio", "ratio", "lower"),
    ("telemetry.records", "count", "lower"),
    ("telemetry.events_match", "count", "higher"),
    ("host.slowdown", "ratio", "lower"),
    ("result.inconsistent_pct", "%", "lower"),
    ("result.detected_pct", "%", "higher"),
    ("result.hit_pct", "%", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.targets_missing", "count", "lower"),
) + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS)

#: Unit of every metric, by name.
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: Per-layer metrics that repeat exactly for a seed: a host-only change
#: must leave every one of them identical on every workload.
EXACT = (
    "sim.events",
    "sim.channel.sends",
    "sim.channel.dropped",
    "cache.read.hit_ratio",
    "cache.evictions",
    "core.detections",
    "core.useful_abort_ratio",
    "db.commits",
    "db.aborts",
    "monitor.sgt.expansions",
    "result.inconsistent_pct",
    "result.detected_pct",
    "result.hit_pct",
)

TARGETS = [
    Target("sim.run", "repro.sim.core", "Simulator.run"),
    Target("sim.channel", "repro.sim.channel", "Channel.send"),
    Target(
        "workloads.access_set",
        "repro.workloads.synthetic",
        "ParetoClusterWorkload.access_set",
    ),
    Target(
        "workloads.access_set",
        "repro.workloads.synthetic",
        "PerfectClusterWorkload.access_set",
    ),
    Target(
        "workloads.access_set", "repro.workloads.synthetic", "OffsetWorkload.access_set"
    ),
    Target("cache.read", "repro.cache.base", "CacheServer.read"),
    Target("cache.invalidation", "repro.cache.base", "CacheServer.handle_invalidation"),
    Target("core.check_read", "repro.core.detector", "check_read"),
    Target("core.deplist_merge", "repro.core.deplist", "DependencyList.merge"),
    Target("db.txn", "repro.db.coordinator", "Coordinator.run_transaction"),
    Target("db.read_entry", "repro.db.database", "Database.read_entry"),
    Target("db.lock", "repro.db.locks", "LockManager.acquire"),
    Target("db.wal", "repro.db.wal", "WriteAheadLog.append"),
    Target(
        "monitor.record_update",
        "repro.monitor.monitor",
        "ConsistencyMonitor.record_update",
    ),
    Target(
        "monitor.record_read_only",
        "repro.monitor.monitor",
        "ConsistencyMonitor.record_read_only",
    ),
    Target(
        "monitor.sgt_record",
        "repro.monitor.sgt",
        "SerializationGraphTester.record_update",
    ),
    Target(
        "monitor.sgt_check",
        "repro.monitor.sgt",
        "SerializationGraphTester.is_consistent",
    ),
    Target("scenario.build", "repro.scenario.runner", "build_scenario"),
    Target("scenario.collect", "repro.scenario.runner", "collect_scenario_result"),
    Target("experiments.sweep", "repro.experiments.sweep", "run_sweep"),
    Target("experiments.reassemble", "repro.experiments.sweep", "ordered_results"),
    Target("experiments.point_decode", "repro.experiments.sweep", "SweepPoint.from_dict"),
    # The submitter's wait for the sweep is the dispatch layer's, not the
    # sweep engine's.
    Target("dispatch.run", "repro.dispatch.client", "run_fleet_sweep"),
    Target("dispatch.run", "repro.dispatch.coordinator", "run_dispatched"),
    Target(
        "dispatch.frame.send",
        "repro.dispatch.protocol",
        "send_frame",
        count_bytes=True,
    ),
    Target("dispatch.frame.recv", "repro.dispatch.protocol", "recv_frame"),
    Target("dispatch.codec.encode", "repro.dispatch.codec", "encode_result"),
    Target("dispatch.codec.decode", "repro.dispatch.codec", "decode_result"),
    Target("dispatch.journal", "repro.dispatch.journal", "SweepJournal.record"),
    Target("dispatch.queue", "repro.dispatch.fleet", "FleetQueue.acquire"),
    Target("dispatch.queue", "repro.dispatch.fleet", "FleetQueue.complete"),
    Target("dispatch.queue", "repro.dispatch.queue", "WorkQueue.acquire"),
    Target("dispatch.queue", "repro.dispatch.queue", "WorkQueue.complete"),
]

#: metric -> (span name, field of the aggregated row).
_FROM_SPANS = {
    "sim.self_s": ("sim.run", "self_s"),
    "sim.channel.busy_s": ("sim.channel", "busy_s"),
    "workloads.access_set.calls": ("workloads.access_set", "calls"),
    "workloads.access_set.busy_s": ("workloads.access_set", "busy_s"),
    "cache.read.calls": ("cache.read", "calls"),
    "cache.read.busy_s": ("cache.read", "busy_s"),
    "cache.read.self_s": ("cache.read", "self_s"),
    "cache.invalidation.calls": ("cache.invalidation", "calls"),
    "cache.invalidation.busy_s": ("cache.invalidation", "busy_s"),
    "core.check_read.calls": ("core.check_read", "calls"),
    "core.check_read.busy_s": ("core.check_read", "busy_s"),
    "core.deplist_merge.calls": ("core.deplist_merge", "calls"),
    "core.deplist_merge.busy_s": ("core.deplist_merge", "busy_s"),
    "db.txn.busy_s": ("db.txn", "busy_s"),
    "db.txn.self_s": ("db.txn", "self_s"),
    "db.read_entry.calls": ("db.read_entry", "calls"),
    "db.read_entry.busy_s": ("db.read_entry", "busy_s"),
    "db.lock.calls": ("db.lock", "calls"),
    "db.lock.busy_s": ("db.lock", "busy_s"),
    "db.wal.appends": ("db.wal", "calls"),
    "db.wal.busy_s": ("db.wal", "busy_s"),
    "monitor.record_update.calls": ("monitor.record_update", "calls"),
    "monitor.record_update.busy_s": ("monitor.record_update", "busy_s"),
    "monitor.record_read_only.calls": ("monitor.record_read_only", "calls"),
    "monitor.record_read_only.busy_s": ("monitor.record_read_only", "busy_s"),
    "monitor.sgt_record.calls": ("monitor.sgt_record", "calls"),
    "monitor.sgt_record.busy_s": ("monitor.sgt_record", "busy_s"),
    "monitor.sgt_check.calls": ("monitor.sgt_check", "calls"),
    "monitor.sgt_check.busy_s": ("monitor.sgt_check", "busy_s"),
    "scenario.build_s": ("scenario.build", "busy_s"),
    "scenario.collect_s": ("scenario.collect", "busy_s"),
    "experiments.sweep.reassemble_s": ("experiments.reassemble", "busy_s"),
    "experiments.point_decode.busy_s": ("experiments.point_decode", "busy_s"),
    "dispatch.frame.sends": ("dispatch.frame.send", "calls"),
    "dispatch.frame.send_busy_s": ("dispatch.frame.send", "busy_s"),
    "dispatch.frame.recv_busy_s": ("dispatch.frame.recv", "busy_s"),
    "dispatch.codec.encode_busy_s": ("dispatch.codec.encode", "busy_s"),
    "dispatch.codec.decode_busy_s": ("dispatch.codec.decode", "busy_s"),
    "dispatch.journal.records": ("dispatch.journal", "calls"),
    "dispatch.journal.busy_s": ("dispatch.journal", "busy_s"),
    "dispatch.queue.acquires": ("dispatch.queue", "calls"),
    "dispatch.queue.busy_s": ("dispatch.queue", "busy_s"),
}


def unit_walls(units: list[dict]) -> list[float]:
    """Each unit's wall seconds divided by the host slowdown around it."""
    return [unit["wall_s"] / unit["slowdown"] for unit in units]


def layer_metrics(untraced: dict, traced: dict, reference: dict | None) -> dict:
    """Every per-layer metric of one workload, by name.

    ``untraced`` and ``traced`` are child reports (see ``perf/child.py``);
    ``reference`` is the loopbacks' serial run, or ``None``. Rates come from
    the untraced child, span metrics from the traced one, exact counters
    from the untraced units (the traced digest is checked against them).
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    units = untraced["units"]
    wall = median(unit_walls(units))
    first = units[0]
    for name, value in first["exact"].items():
        values[name] = value
    events = first["exact"].get("sim.events", 0)
    if events:
        values["sim.events_per_s"] = events / wall
        values["sim.us_per_event"] = 1e6 * wall / events
    if "record_s" in first["timings"]:
        ops = untraced["constants"]
        values["monitor.record.per_s"] = ops["updates"] / median(
            [unit["timings"]["record_s"] for unit in units]
        )
        values["monitor.check.per_s"] = ops["checks"] / median(
            [unit["timings"]["check_s"] for unit in units]
        )
    if reference is not None:
        values["experiments.sweep.serial_point_ms"] = (
            1e3 * reference["wall_s"] / len(reference["points"])
        )
        # Both sides as the clock read them: the serial run is not calibrated.
        values["dispatch.wire_overhead_ratio"] = (
            median(unit["wall_s"] for unit in units) / reference["wall_s"]
        )
    values["host.slowdown"] = median(
        [unit["slowdown"] for unit in units + traced["units"]]
    )

    trace = traced["trace"]
    traced_units = len(traced["units"])
    rows = trace["rows"]
    for metric, (span, field) in _FROM_SPANS.items():
        values[metric] = rows.get(span, {}).get(field, 0.0) / traced_units
    values["db.txn.calls"] = trace["generator_calls"].get("db.txn", 0) / traced_units
    values["dispatch.frame.bytes"] = trace["frame_bytes"] / traced_units
    harness_self = 0.0
    for span, row in rows.items():
        layer = layer_of(span)
        if layer == HARNESS:
            harness_self += row["self_s"]
        else:
            values[f"layer.{layer}.self_s"] += row["self_s"] / traced_units
    traced_wall = median(unit_walls(traced["units"]))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / wall
    values["trace.unattributed_s"] = harness_self / traced_units
    values["trace.attributed_share"] = (
        1.0 - harness_self / trace["root_s"] if trace["root_s"] else 0.0
    )
    values["trace.targets_missing"] = len(trace["missing"])
    for name, value in (traced.get("telemetry") or {}).items():
        values[name] = value
    return values
