"""Deterministic observability spine: tracing, metrics, profiling hooks.

The telemetry layer threads one :class:`Tracer` through every layer of a
simulated run — kernel event dispatch, process resumption, cache
serve/refetch/evict, channel delivery and outage drops, backend reads, SGT
verdicts, and per-protocol decisions (wound aborts, causal floor refusals,
proof verification). Each event is recorded once, as a trace record; the
``repro.telemetry/1`` counters and latency histogram are derived from those
records by :meth:`Tracer.snapshot` through one table
(:data:`repro.telemetry.tracer.METRICS`) into a :class:`MetricsRegistry`.

Two properties shape the whole design:

* **Determinism.** Every trace record is keyed by *sim time*, never wall
  clock; callbacks are named by ``__qualname__``, never ``repr`` (memory
  addresses differ across processes). Wall-clock stamps are isolated in a
  single JSONL header line per sweep, so the body of a trace is
  byte-identical across reruns, ``jobs=N`` fork pools, ``--dispatch``
  runs and the fleet daemon — the same contract the artifacts
  already honour, and tested the same way
  (:func:`repro.experiments.report.normalized_artifact`).

* **Zero cost when off.** Tracing is opt-in per sweep point. The kernel
  caches the active tracer once per :class:`~repro.sim.core.Simulator`
  (``sim.tracer is None`` on the untraced path), and every component that
  emits keeps ``sim.tracer`` from its construction, so the disabled
  overhead is one attribute load plus an ``is None`` test per *call site*.
  The kernel has no second, traced loop: its one dispatch loop and
  ``Process._resume`` test ``sim.tracer`` once per dispatch and once per
  resume.

Enablement travels in two layers, and neither is a process global. A
point traces when its :class:`SweepPoint` says ``trace=True`` — the CLI's
``--trace`` stamps that onto every point it hands to
:func:`repro.experiments.sweep.run_sweep`, and the flag rides the wire to
dispatch workers and fleet daemons, so remote executors trace without
sharing our process. At execution time :func:`capture` installs a
thread-local tracer that :class:`~repro.sim.core.Simulator` picks up at
construction (thread-local, not global, because the fleet integration
tests run daemon, workers and submitters as threads of one process). The
records come back on the :class:`SweepResult` ``run_sweep`` returns;
whoever called it — the CLI driver, for ``--trace`` — holds the results
and hands them to the exporter.
"""

from __future__ import annotations

import contextlib
import threading

from repro.telemetry.metrics import MetricsRegistry, TELEMETRY_SCHEMA, validate_telemetry
from repro.telemetry.tracer import Tracer
from repro.telemetry.export import (
    TRACE_SCHEMA,
    chrome_trace,
    normalized_trace_lines,
    trace_jsonl_lines,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "TELEMETRY_SCHEMA",
    "TRACE_SCHEMA",
    "Tracer",
    "active_tracer",
    "capture",
    "chrome_trace",
    "normalized_trace_lines",
    "trace_jsonl_lines",
    "validate_telemetry",
    "write_chrome_trace",
    "write_trace_jsonl",
]

_STATE = threading.local()


def active_tracer() -> Tracer | None:
    """The tracer capturing the current thread's simulation, if any."""
    return getattr(_STATE, "tracer", None)


@contextlib.contextmanager
def capture(point_label: str):
    """Install a fresh thread-local :class:`Tracer` for one sweep point.

    Yields the tracer; simulators constructed inside the block adopt it.
    """
    tracer = Tracer(point=point_label)
    previous = getattr(_STATE, "tracer", None)
    _STATE.tracer = tracer
    try:
        yield tracer
    finally:
        _STATE.tracer = previous
