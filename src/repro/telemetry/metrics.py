"""Counters, gauges and exponential-bucket histograms with a schema'd snapshot.

The registry is deliberately tiny and allocation-light: a counter bump is a
dict ``get``-add-store, a histogram observation is a bucket-index loop over
at most :data:`_BUCKET_COUNT` floats. Snapshots are sorted by name at every
level so the serialized section is canonical — two registries fed the same
observations in any order produce byte-identical JSON.

Two things fill a registry: :meth:`repro.telemetry.Tracer.snapshot`, from
a point's trace records, and the fleet daemon, from its own lifetime
counters and sweep gauges (the ``metrics`` verb). A traced result's
``repro.telemetry/1`` section holds only the snapshot (aggregates); raw
trace records never enter artifacts, which keeps traced and untraced
artifacts byte-identical once the telemetry key is stripped (see
:func:`repro.experiments.report.normalized_artifact`).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["MetricsRegistry", "TELEMETRY_SCHEMA", "validate_telemetry"]

TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Exponential histogram bucket boundaries: powers of two spanning 1 µs to
#: ~65 s when observations are in milliseconds. Fixed (not adaptive) so the
#: bucket layout — and therefore the artifact bytes — never depends on the
#: data distribution.
_BUCKET_BASE = 0.001
_BUCKET_COUNT = 27
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(
    _BUCKET_BASE * (2.0**i) for i in range(_BUCKET_COUNT)
)


class _Histogram:
    """Exponential-bucket histogram: counts per bound plus sum/min/max."""

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets = [0] * (_BUCKET_COUNT + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = 0
        for bound in HISTOGRAM_BOUNDS:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += 1

    def as_dict(self) -> dict:
        # [le, count] pairs for the non-empty prefix keeps sections compact;
        # the overflow bucket is keyed "+Inf" like Prometheus exposition.
        pairs: list[list] = []
        for index, count in enumerate(self.buckets):
            if count == 0:
                continue
            le = "+Inf" if index == _BUCKET_COUNT else HISTOGRAM_BOUNDS[index]
            pairs.append([le, count])
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": pairs,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms with a canonical snapshot."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    def count(self, name: str, delta: int = 1) -> None:
        counters = self._counters
        counters[name] = counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram()
        histogram.observe(value)

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """The ``repro.telemetry/1`` section: sorted at every level."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }


def _fail(message: str) -> None:
    raise ConfigurationError(f"invalid telemetry section: {message}")


def validate_telemetry(payload: object) -> dict:
    """Validate a ``repro.telemetry/1`` section, returning it on success.

    The package's one hand-rolled validator (there is no jsonschema
    dependency): it guards the daemon's network ``metrics`` reply, which
    ``fleet status --metrics`` prints, and the tests run it on every traced
    section.
    """
    if not isinstance(payload, dict):
        _fail(f"section must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != TELEMETRY_SCHEMA:
        _fail(f"schema must be {TELEMETRY_SCHEMA!r}, got {schema!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(payload.get(section), dict):
            _fail(f"{section} must be an object")
    for name, value in payload["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"counter {name!r} must be an integer, got {value!r}")
    for name, value in payload["gauges"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(f"gauge {name!r} must be a number, got {value!r}")
    for name, histogram in payload["histograms"].items():
        if not isinstance(histogram, dict):
            _fail(f"histogram {name!r} must be an object")
        for field in ("count", "sum", "min", "max", "buckets"):
            if field not in histogram:
                _fail(f"histogram {name!r} missing field {field!r}")
        count = histogram["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            _fail(f"histogram {name!r} count must be a non-negative integer")
        buckets = histogram["buckets"]
        if not isinstance(buckets, list):
            _fail(f"histogram {name!r} buckets must be a list")
        bucket_total = 0
        for pair in buckets:
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"histogram {name!r} bucket entries must be [le, count] pairs")
            le, bucket_count = pair
            le_ok = le == "+Inf" or (
                not isinstance(le, bool) and isinstance(le, (int, float))
            )
            if not le_ok:
                _fail(f"histogram {name!r} bucket bound must be a number or '+Inf'")
            if not isinstance(bucket_count, int) or isinstance(bucket_count, bool):
                _fail(f"histogram {name!r} bucket count must be an integer")
            bucket_total += bucket_count
        if bucket_total != count:
            _fail(
                f"histogram {name!r} bucket counts sum to {bucket_total}, "
                f"expected count {count}"
            )
    return payload
