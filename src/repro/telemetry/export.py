"""Trace export: deterministic JSONL plus a Chrome ``trace_event`` converter.

The JSONL layout isolates wall clock in exactly one place:

* line 1 — a header ``{"kind": "header", "schema": "repro.trace/1",
  "sweep": ..., "wall_clock_seconds": ...}``: the *only* line containing
  nondeterministic data;
* every following line — ``{"kind": "record", "point": <label>, "t":
  <sim time>, "cat": ..., "name": ..., "fields": {...}}``, emitted in
  spec-point order and, within a point, in emission order.

Because record lines carry sim time only, two traces of the same seeded
sweep compare byte-identical once the header's wall-clock field is dropped —
:func:`normalized_trace_lines` applies :func:`normalized_artifact`, the one
definition of "identical modulo wall clock" that artifacts are compared by
too (:mod:`repro.experiments.report` re-exports it), line by line.

The Chrome converter maps records onto the ``trace_event`` JSON format
(load the file in about://tracing or https://ui.perfetto.dev): one virtual
thread per sweep point, instants (``ph: "i"``) for point events, with sim
seconds scaled to trace microseconds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from enum import Enum
from typing import Any, Iterable, Mapping

__all__ = [
    "TRACE_SCHEMA",
    "chrome_trace",
    "json_safe",
    "normalized_artifact",
    "normalized_trace_lines",
    "sweep_trace_lines",
    "trace_jsonl_lines",
    "write_chrome_trace",
    "write_trace_jsonl",
]

TRACE_SCHEMA = "repro.trace/1"

_CANONICAL = {"separators": (",", ":"), "sort_keys": True}

#: Keys stripped by :func:`normalized_artifact` at any nesting depth: the
#: run-environment metadata that legitimately differs between two executions
#: of the same seeded spec.  ``telemetry``/``trace`` are included so a traced
#: artifact normalizes to exactly its untraced twin.
_ENVIRONMENT_KEYS = frozenset({"jobs", "wall_clock_seconds", "telemetry", "trace"})


def _strip_environment(value: object) -> object:
    if isinstance(value, Mapping):
        return {
            key: _strip_environment(item)
            for key, item in value.items()
            if key not in _ENVIRONMENT_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_strip_environment(item) for item in value]
    return value


def normalized_artifact(artifact: object) -> str:
    """Canonical JSON of an artifact minus its run-environment fields.

    The single definition of "byte-identical modulo wall clock": two runs of
    the same seeded spec — serial, ``jobs=N``, dispatched, fleet, traced or
    untraced — must normalize to the same string.  Accepts a payload dict
    (or any JSON value) or an object with ``to_artifact()``; strips ``jobs``,
    ``wall_clock_seconds`` and the telemetry fields at every nesting depth,
    then serialises with sorted keys and fixed separators.
    """
    to_artifact = getattr(artifact, "to_artifact", None)
    if callable(to_artifact):
        artifact = to_artifact()
    return json.dumps(json_safe(_strip_environment(artifact)), **_CANONICAL)


def json_safe(value: object) -> object:
    """Recursively coerce a payload to JSON-serialisable types.

    Enums serialise by name, dataclasses by field dict; containers recurse.
    Anything already serialisable passes through unchanged.
    """
    if isinstance(value, Enum):
        return value.name
    if is_dataclass(value) and not isinstance(value, type):
        return json_safe(asdict(value))
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in value]
    return value


def sweep_trace_lines(result) -> list[str]:
    """JSONL lines (no trailing newlines) for one traced SweepResult."""
    header = {
        "kind": "header",
        "schema": TRACE_SCHEMA,
        "sweep": result.spec.name,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    lines = [json.dumps(header, **_CANONICAL)]
    for point, point_result in zip(result.spec.points, result.results):
        trace = getattr(point_result, "trace", None)
        if not trace:
            continue
        label = point.label
        for record in trace:
            line: dict[str, Any] = {"kind": "record", "point": label}
            line.update(record)
            lines.append(json.dumps(line, **_CANONICAL))
    return lines


def trace_jsonl_lines(results: Iterable) -> list[str]:
    """JSONL lines for a sequence of traced SweepResults, in order."""
    lines: list[str] = []
    for result in results:
        lines.extend(sweep_trace_lines(result))
    return lines


def write_trace_jsonl(path, results: Iterable) -> int:
    """Write traced sweeps as JSONL; returns the number of lines written."""
    lines = trace_jsonl_lines(results)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def normalized_trace_lines(lines: Iterable[str]) -> list[str]:
    """Canonicalize trace JSONL for comparison across runs/jobs/fleet.

    Parses each line and strips the nondeterministic fields through the
    same helper the artifact byte-identity tests use, so "identical modulo
    wall clock" means exactly the same thing for traces and artifacts.
    """
    return [normalized_artifact(json.loads(line)) for line in lines if line.strip()]


def chrome_trace(lines: Iterable[str]) -> dict:
    """Convert trace JSONL lines into a Chrome ``trace_event`` document.

    Each sweep point becomes a virtual thread (named via ``M`` metadata
    events); records become instant events with ``ts`` in microseconds.
    """
    events: list[dict[str, Any]] = []
    thread_ids: dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        payload = json.loads(line)
        kind = payload.get("kind")
        if kind == "header":
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": payload.get("sweep", "sweep")},
                }
            )
            continue
        if kind != "record":
            continue
        point = payload.get("point", "")
        tid = thread_ids.get(point)
        if tid is None:
            tid = thread_ids[point] = len(thread_ids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": point},
                }
            )
        event: dict[str, Any] = {
            "name": payload["name"],
            "cat": payload["cat"],
            "ph": "i",
            "s": "t",
            "ts": round(payload["t"] * 1e6, 3),
            "pid": 1,
            "tid": tid,
        }
        fields = payload.get("fields")
        if fields:
            event["args"] = fields
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, lines: Iterable[str]) -> int:
    """Write the Chrome trace document; returns the event count."""
    document = chrome_trace(lines)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(document["traceEvents"])
