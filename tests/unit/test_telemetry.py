"""Unit tests for the telemetry spine: tracer, registry, schema, exports.

The load-bearing properties: snapshots are canonical (order-insensitive,
sorted at every level), the ``repro.telemetry/1`` validator rejects every
malformed shape it claims to, and the JSONL/Chrome exporters isolate wall
clock in exactly one header line.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    TELEMETRY_SCHEMA,
    TRACE_SCHEMA,
    Tracer,
    capture,
    chrome_trace,
    normalized_trace_lines,
    validate_telemetry,
)
from repro.telemetry.metrics import HISTOGRAM_BOUNDS
from repro.telemetry.tracer import METRICS
from repro.experiments.report import normalized_artifact


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("cache.hits")
        registry.count("cache.hits", 4)
        assert registry.counter_value("cache.hits") == 5
        assert registry.counter_value("never.bumped") == 0

    def test_snapshot_is_schemad_and_sorted(self):
        registry = MetricsRegistry()
        registry.count("z.last")
        registry.count("a.first")
        registry.gauge("m.middle", 1.5)
        section = registry.snapshot()
        assert section["schema"] == TELEMETRY_SCHEMA
        assert list(section["counters"]) == ["a.first", "z.last"]
        validate_telemetry(section)

    def test_snapshot_canonical_across_insertion_order(self):
        """Two registries fed the same observations in opposite order
        serialize byte-identically — the property artifact byte-identity
        across jobs=1/jobs=N rests on."""
        forward, backward = MetricsRegistry(), MetricsRegistry()
        observations = [("b", 2), ("a", 1), ("c", 3)]
        for name, delta in observations:
            forward.count(name, delta)
        for name, delta in reversed(observations):
            backward.count(name, delta)
        for value in (0.5, 3.0, 700.0):
            forward.observe("latency", value)
        for value in (700.0, 3.0, 0.5):
            backward.observe("latency", value)
        assert json.dumps(forward.snapshot(), sort_keys=True) == json.dumps(
            backward.snapshot(), sort_keys=True
        )

    def test_histogram_bucket_math(self):
        registry = MetricsRegistry()
        # 0.001 lands in the first bucket (le 0.001), a huge value
        # overflows to +Inf, and the boundary itself is inclusive.
        registry.observe("h", 0.001)
        registry.observe("h", HISTOGRAM_BOUNDS[-1])
        registry.observe("h", HISTOGRAM_BOUNDS[-1] * 10)
        histogram = registry.snapshot()["histograms"]["h"]
        assert histogram["count"] == 3
        assert histogram["min"] == 0.001
        assert histogram["max"] == HISTOGRAM_BOUNDS[-1] * 10
        buckets = dict(
            (str(le), count) for le, count in histogram["buckets"]
        )
        assert buckets["0.001"] == 1
        assert buckets[str(HISTOGRAM_BOUNDS[-1])] == 1
        assert buckets["+Inf"] == 1

    def test_histogram_bounds_are_exponential(self):
        assert len(HISTOGRAM_BOUNDS) == 27
        for lower, upper in zip(HISTOGRAM_BOUNDS, HISTOGRAM_BOUNDS[1:]):
            assert upper == pytest.approx(lower * 2.0)


class TestValidateTelemetry:
    def valid_section(self) -> dict:
        registry = MetricsRegistry()
        registry.count("n", 2)
        registry.gauge("g", 0.5)
        registry.observe("h", 1.0)
        return registry.snapshot()

    def test_accepts_and_returns_valid_section(self):
        section = self.valid_section()
        assert validate_telemetry(section) is section

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s.update(schema="repro.telemetry/0"), "schema"),
            (lambda s: s.pop("counters"), "counters"),
            (lambda s: s["counters"].update(n=1.5), "integer"),
            (lambda s: s["counters"].update(n=True), "integer"),
            (lambda s: s["gauges"].update(g="high"), "number"),
            (lambda s: s["histograms"]["h"].pop("buckets"), "buckets"),
            (
                lambda s: s["histograms"]["h"].update(count=5),
                "sum to",
            ),
            (
                lambda s: s["histograms"]["h"].update(buckets=[["x", 1]]),
                "bound",
            ),
        ],
    )
    def test_rejects_malformed_sections(self, mutate, message):
        section = self.valid_section()
        mutate(section)
        with pytest.raises(ConfigurationError, match=message):
            validate_telemetry(section)

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigurationError, match="object"):
            validate_telemetry([1, 2, 3])


class TestTracer:
    def test_records_every_category_in_emission_order(self):
        """A tracer has no category filter: the category is each record's
        ``cat`` field, and nothing emitted is dropped."""
        tracer = Tracer(point="p")
        tracer.emit(1.0, "cache", "serve", {"key": "k"})
        tracer.emit(2.0, "sim", "dispatch")
        assert tracer.record_dicts() == [
            {"t": 1.0, "cat": "cache", "name": "serve", "fields": {"key": "k"}},
            {"t": 2.0, "cat": "sim", "name": "dispatch"},
        ]

    def test_simulator_and_components_hold_the_captured_tracer(self):
        from repro.sim.channel import Channel
        from repro.sim.core import Simulator

        assert Simulator().tracer is None
        with capture("p") as tracer:
            sim = Simulator()
        assert sim.tracer is tracer
        assert Channel(sim, print)._tracer is tracer

    def test_snapshot_is_derived_from_the_records(self):
        """Hand-built records, including the one counter no seeded run
        reaches (``protocol.proof_verify_failures``; the per-protocol golden
        in ``test_telemetry_counters.py`` pins the rest)."""
        tracer = Tracer(point="p")
        for _ in range(3):
            fields = {"key": "k", "version": 1}
            tracer.emit(0.5, "protocol", "proof_verify_fail", fields)
        tracer.emit(0.5, "cache", "serve", {"key": "k", "hit": False})
        tracer.emit(0.6, "channel", "deliver", {"seq": 0, "latency_ms": 2.0})
        tracer.emit(0.7, "db", "commit", {"txn": 1, "writes": 2})
        tracer.emit(0.8, "test", "unlisted", {"x": 1})
        section = validate_telemetry(tracer.snapshot())
        assert section["counters"] == {
            "cache.misses": 1,
            "channel.delivered": 1,
            "db.commits": 1,
            "protocol.proof_verify_failures": 3,
            "sgt.update_commits": 1,
        }
        assert section["gauges"] == {}
        assert list(section["histograms"]) == ["channel.latency_ms"]
        assert section["histograms"]["channel.latency_ms"]["sum"] == 2.0

    def test_every_metric_is_named_once(self):
        names = [
            name
            for rules in METRICS.values()
            for _field, target in rules
            for name in (target.values() if isinstance(target, dict) else (target,))
        ]
        assert len(names) == len(set(names)) == 26  # 25 counters, 1 histogram


class FakePoint:
    def __init__(self, label):
        self.label = label


class FakeSpec:
    def __init__(self, points):
        self.name = "fake"
        self.points = points


class FakeResult:
    def __init__(self, trace):
        self.trace = trace


class FakeSweep:
    def __init__(self, traces, wall=1.25):
        self.spec = FakeSpec([FakePoint(f"p{i}") for i in range(len(traces))])
        self.results = [FakeResult(trace) for trace in traces]
        self.wall_clock_seconds = wall


class TestExport:
    def sweep(self, wall=1.25) -> FakeSweep:
        return FakeSweep(
            [
                [{"t": 0.5, "cat": "sim", "name": "dispatch"}],
                [{"t": 0.75, "cat": "cache", "name": "serve", "fields": {"hit": True}}],
            ],
            wall=wall,
        )

    def test_jsonl_isolates_wall_clock_in_header(self):
        from repro.telemetry import trace_jsonl_lines

        lines = trace_jsonl_lines([self.sweep()])
        header = json.loads(lines[0])
        assert header == {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "sweep": "fake",
            "wall_clock_seconds": 1.25,
        }
        for line in lines[1:]:
            record = json.loads(line)
            assert record["kind"] == "record"
            assert "wall_clock_seconds" not in record

    def test_normalized_lines_erase_wall_clock_only(self):
        from repro.telemetry import trace_jsonl_lines

        fast = trace_jsonl_lines([self.sweep(wall=0.1)])
        slow = trace_jsonl_lines([self.sweep(wall=99.9)])
        assert fast != slow
        assert normalized_trace_lines(fast) == normalized_trace_lines(slow)

    def test_chrome_trace_shape(self):
        from repro.telemetry import trace_jsonl_lines

        document = chrome_trace(trace_jsonl_lines([self.sweep()]))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [event for event in events if event["ph"] == "M"]
        instants = [event for event in events if event["ph"] == "i"]
        assert {event["name"] for event in metadata} == {
            "process_name",
            "thread_name",
        }
        assert len(instants) == 2
        # sim seconds -> trace microseconds; each point its own thread.
        assert instants[0]["ts"] == pytest.approx(0.5e6)
        assert instants[0]["tid"] != instants[1]["tid"]
        assert instants[1]["args"] == {"hit": True}

    def test_write_helpers_roundtrip(self, tmp_path):
        from repro.telemetry import write_chrome_trace, write_trace_jsonl, trace_jsonl_lines

        jsonl_path = tmp_path / "trace.jsonl"
        chrome_path = tmp_path / "trace.json"
        written = write_trace_jsonl(jsonl_path, [self.sweep()])
        assert written == 3
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 3
        events = write_chrome_trace(chrome_path, lines)
        document = json.loads(chrome_path.read_text())
        assert len(document["traceEvents"]) == events


class TestNormalizedArtifact:
    def test_strips_environment_keys_at_depth(self):
        artifact = {
            "jobs": 8,
            "wall_clock_seconds": 3.2,
            "rows": [{"value": 1, "telemetry": {"schema": TELEMETRY_SCHEMA}}],
            "nested": {"trace": [1, 2], "kept": True},
        }
        assert normalized_artifact(artifact) == (
            '{"nested":{"kept":true},"rows":[{"value":1}]}'
        )

    def test_accepts_objects_with_to_artifact(self):
        class WithArtifact:
            def to_artifact(self):
                return {"jobs": 2, "kept": 1}

        assert normalized_artifact(WithArtifact()) == '{"kept":1}'

    def test_plain_values_pass_through(self):
        assert normalized_artifact([1, "two"]) == '[1,"two"]'


class TestCapture:
    def test_capture_installs_and_restores_thread_local(self):
        from repro import telemetry

        assert telemetry.active_tracer() is None
        with telemetry.capture("outer") as outer:
            assert telemetry.active_tracer() is outer
            with telemetry.capture("inner") as inner:
                assert telemetry.active_tracer() is inner
            assert telemetry.active_tracer() is outer
        assert telemetry.active_tracer() is None
