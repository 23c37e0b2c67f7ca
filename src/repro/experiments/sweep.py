"""Parallel sweep engine for the figure experiments.

Every figure of the paper's evaluation is a grid of independent, seeded
single-column simulations — embarrassingly parallel work that the figure
modules used to run one at a time in hand-rolled loops.  This module gives
them a shared, declarative substrate:

* :class:`SweepPoint` — one independent unit of a grid: either a single
  column (a :class:`ColumnConfig` plus the workload(s) that drive it) or a
  whole multi-edge topology (a :class:`~repro.scenario.spec.ScenarioSpec`),
  with a stable label and free-form ``params`` that downstream row-builders
  and JSON artifacts attach to the result.
* :class:`SweepSpec` — a named, ordered grid of points with a root seed.
  Specs are plain data; building one runs nothing.
* :func:`run_sweep` — executes a spec serially (``jobs=1``), on a
  ``multiprocessing`` pool (``jobs=N``, default ``os.cpu_count()``), or —
  given ``dispatch=`` — across remote workers via a :mod:`repro.dispatch`
  fleet daemon (one started for this sweep, or a running one).  All
  three return a :class:`SweepResult` in *spec order* regardless of
  completion order: the pool streams ``imap_unordered`` chunks and the
  daemon collects worker result frames, but both reassemble through the
  same index-keyed :func:`ordered_results`.  Each column is deterministic
  given its config and workload, so every executor produces identical
  results — the test suite asserts byte-identical series for ``jobs=1`` vs
  ``jobs=4`` and for local vs dispatched runs.

Seeding: :func:`derive_seed` is the canonical per-column derivation from a
spec's root seed.  Sweeps that compare columns on the *same* randomness
(e.g. the strategy bars of Figs. 6 and 8) intentionally share one seed
across their points instead; the spec builder decides.

Only the ``(config, workload, read_workload, scenario, trace)`` tuple
travels to worker processes, so row-building callables in the figure modules
may freely be closures.  Workloads are stateless with respect to the per-column RNG
streams (the clients pass their own generators in), which is what makes the
fan-out safe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

from repro import telemetry

from repro.core.strategies import Strategy
from repro.db.database import TimingConfig
from repro.errors import ConfigurationError, DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.report import json_safe
from repro.experiments.runner import ColumnResult, run_column
from repro.scenario.results import ScenarioResult
from repro.scenario.runner import run_scenario
from repro.scenario.spec import ScenarioSpec, protocol_from_wire, protocol_to_wire
from repro.workloads.base import Workload
from repro.workloads.codec import (
    portable_workload,
    portable_workload_specs,
    workload_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.dispatch.client import FleetSpec
    from repro.dispatch.coordinator import DispatchSpec

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "config_as_dict",
    "config_from_dict",
    "derive_seed",
    "ordered_results",
    "resolve_jobs",
    "run_sweep",
    "spec_artifact",
]


def derive_seed(root_seed: int, index: int) -> int:
    """Deterministic seed for the ``index``-th column of a sweep."""
    if index < 0:
        raise ConfigurationError(f"column index must be >= 0, got {index}")
    return root_seed + index


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None`` means every available CPU."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(slots=True)
class SweepPoint:
    """One independent unit of a grid: a single column or a whole scenario.

    Column points pass ``config`` + ``workload`` (+ optional
    ``read_workload``) and execute via ``run_column``; scenario points pass
    ``scenario`` instead and execute via ``run_scenario``, yielding a
    :class:`~repro.scenario.results.ScenarioResult` in the sweep's results.
    """

    label: str
    config: ColumnConfig | None = None
    workload: Workload | None = None
    read_workload: Workload | None = None
    #: A whole multi-edge topology; mutually exclusive with ``config``.
    scenario: ScenarioSpec | None = None
    #: Sweep coordinates (e.g. ``{"alpha": 0.5}``) echoed into rows/artifacts.
    params: dict[str, object] = field(default_factory=dict)
    #: Capture telemetry while executing this point. Part of the point's
    #: wire payload, so dispatch workers and fleet daemons trace without
    #: sharing this process's telemetry state; emitted into ``as_dict`` only
    #: when set, keeping untraced payloads (and fleet fingerprints)
    #: byte-identical to previous releases.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.scenario is not None:
            if self.config is not None or self.workload is not None:
                raise ConfigurationError(
                    f"point {self.label!r}: pass either scenario= or "
                    "config=+workload=, not both"
                )
            if self.read_workload is not None:
                raise ConfigurationError(
                    f"point {self.label!r}: read_workload belongs to the "
                    "edge specs of a scenario point"
                )
        elif self.config is None or self.workload is None:
            raise ConfigurationError(
                f"point {self.label!r}: a column point needs config= and workload="
            )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe description of this point, replayable by :meth:`from_dict`.

        Scenario points embed the full :meth:`ScenarioSpec.as_dict` payload;
        column points carry their config plus — for the portable synthetic
        workload families — full ``workload_spec`` / ``read_workload_spec``
        payloads via :mod:`repro.workloads.codec`.  Non-portable workloads
        (graph- or trace-backed) record ``workload_spec: null``: the artifact
        still *describes* the point, but :meth:`from_dict` refuses to rebuild
        it rather than silently re-running a different distribution.
        """
        column: dict[str, object] = {
            "label": self.label,
            "params": json_safe(dict(self.params)),
        }
        if self.trace:
            column["trace"] = True
        if self.scenario is not None:
            column["scenario"] = self.scenario.as_dict()
            return column
        column["config"] = config_as_dict(self.config)
        column["workload"] = type(self.workload).__name__
        column["workload_spec"] = portable_workload(self.workload)
        column["read_workload"] = (
            None if self.read_workload is None else type(self.read_workload).__name__
        )
        column["read_workload_spec"] = portable_workload(self.read_workload)
        return column

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, object],
        workloads: dict[str, Workload] | None = None,
    ) -> "SweepPoint":
        """Rebuild a point from :meth:`as_dict` output.

        Fails loudly for column points whose workload was not portable
        (``workload_spec: null``), mirroring the ``scenario --spec`` replay
        behaviour — an artifact must never replay with a *different*
        workload than the one it recorded.

        A caller decoding many points passes one ``workloads`` dict, and
        points whose workload specs are equal then share one decoded
        workload, as the points of a spec built in Python usually do.  That
        is safe because a synthetic workload sets its state only in
        ``__init__``.
        """
        label = payload.get("label")
        if not label:
            raise ConfigurationError(f"sweep point payload has no label: {payload!r}")
        params = dict(payload.get("params") or {})
        trace = bool(payload.get("trace", False))
        scenario = payload.get("scenario")
        if scenario is not None:
            return cls(
                label=label,
                scenario=ScenarioSpec.from_dict(scenario),
                params=params,
                trace=trace,
            )
        config = payload.get("config")
        if config is None:
            raise ConfigurationError(
                f"point {label!r}: payload carries neither a scenario nor a config"
            )
        workload_spec, read_spec = portable_workload_specs(payload, f"point {label!r}")
        workloads = {} if workloads is None else workloads
        return cls(
            label=label,
            config=config_from_dict(config),
            workload=_decode_workload(workload_spec, workloads),
            read_workload=(
                None if read_spec is None else _decode_workload(read_spec, workloads)
            ),
            params=params,
            trace=trace,
        )


def _decode_workload(
    payload: Mapping[str, object], workloads: dict[str, Workload]
) -> Workload:
    """``workload_from_dict``, once per distinct payload in ``workloads``."""
    key = json.dumps(payload, sort_keys=True)
    workload = workloads.get(key)
    if workload is None:
        workload = workloads[key] = workload_from_dict(payload)
    return workload


@dataclass(slots=True)
class SweepSpec:
    """A named grid of sweep points. Building a spec runs nothing."""

    name: str
    points: list[SweepPoint]
    root_seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            duplicates = sorted({l for l in labels if labels.count(l) > 1})
            raise ConfigurationError(
                f"sweep {self.name!r} has duplicate point labels: {duplicates}"
            )

    def __len__(self) -> int:
        return len(self.points)

    def as_dict(self) -> dict[str, object]:
        """JSON-safe description of the grid (alias of :func:`spec_artifact`)."""
        return spec_artifact(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec from :meth:`as_dict` / :func:`spec_artifact` output.

        The round-trip half that makes ``--json`` artifacts (and the
        dispatch work queue) genuinely re-runnable.  Raises
        :class:`ConfigurationError` if any column recorded
        ``workload_spec: null`` — a non-portable point cannot be rebuilt,
        and replaying the rest would silently change the grid.
        """
        columns = payload.get("columns")
        if columns is None:
            raise ConfigurationError(
                f"sweep payload has no 'columns' list: {sorted(payload)!r}"
            )
        workloads: dict[str, Workload] = {}
        return cls(
            name=payload.get("spec") or payload.get("name") or "sweep",
            description=payload.get("description", ""),
            root_seed=payload.get("root_seed", 0),
            points=[SweepPoint.from_dict(column, workloads) for column in columns],
        )


@dataclass(slots=True)
class SweepResult:
    """Results of one executed spec, in spec order."""

    spec: SweepSpec
    results: list[ColumnResult | ScenarioResult]
    jobs: int
    wall_clock_seconds: float

    def pairs(self) -> Iterator[tuple[SweepPoint, ColumnResult | ScenarioResult]]:
        return zip(self.spec.points, self.results)

    def result_for(self, label: str) -> ColumnResult | ScenarioResult:
        for point, result in self.pairs():
            if point.label == label:
                return result
        raise KeyError(f"no sweep point labelled {label!r} in {self.spec.name!r}")

    def to_artifact(self) -> dict[str, object]:
        """JSON-safe record of the run: config + series + wall-clock metadata.

        Column points carry their series and counts; scenario points carry
        the full per-edge + fleet record from
        :meth:`~repro.scenario.results.ScenarioResult.to_artifact`.
        """
        payload = spec_artifact(self.spec)
        payload["jobs"] = self.jobs
        payload["wall_clock_seconds"] = self.wall_clock_seconds
        for column, result in zip(payload["columns"], self.results):
            if isinstance(result, ScenarioResult):
                column["result"] = result.to_artifact()
            else:
                column["series"] = result.series
                column["counts"] = asdict(result.counts)
                if result.telemetry is not None:
                    column["telemetry"] = result.telemetry
        return payload


def spec_artifact(spec: SweepSpec) -> dict[str, object]:
    """JSON-safe description of a spec's grid — enough to re-run any
    *portable* point via :meth:`SweepSpec.from_dict`.

    Column points record their workloads through
    :mod:`repro.workloads.codec`; a workload outside the portable synthetic
    families is recorded as ``workload_spec: null``, and rebuilding such a
    column fails loudly instead of re-running a different distribution.
    """
    return {
        "spec": spec.name,
        "description": spec.description,
        "root_seed": spec.root_seed,
        "columns": [point.as_dict() for point in spec.points],
    }


_CONFIG_FIELDS = tuple(config_field.name for config_field in fields(ColumnConfig))
_JSON_SCALARS = frozenset({int, float, str, bool, type(None)})


def config_as_dict(config: ColumnConfig) -> dict[str, object]:
    """A :class:`ColumnConfig` as a JSON-serialisable dict (enums by name).

    The cache selector goes out in its v1 spelling
    (:func:`~repro.scenario.spec.protocol_to_wire`): a ``protocol`` key
    appears only for a name the ``cache_kind`` key cannot carry, which keeps
    the payloads — and fingerprints — of recorded sweeps byte-identical.
    """
    data: dict[str, object] = {}
    # Field by field, and ``json_safe`` only for what is not already a JSON
    # scalar (the strategy enum, the timing dataclass): ``asdict``'s deep
    # copy and a recursive walk of every scalar were most of what
    # serialising a sweep cost.  The bytes are the same.
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if name == "protocol":
            data["cache_kind"], value = protocol_to_wire(value)
            if value is None:
                continue
        if type(value) not in _JSON_SCALARS:
            if is_dataclass(value):
                value = {f.name: getattr(value, f.name) for f in fields(value)}
            value = json_safe(value)
        data[name] = value
    return data


def config_from_dict(payload: Mapping[str, object]) -> ColumnConfig:
    """Rebuild a :class:`ColumnConfig` from :func:`config_as_dict` output."""
    data = dict(payload)
    timing = data.get("timing")
    data["timing"] = TimingConfig() if timing is None else TimingConfig(**timing)
    try:
        data["strategy"] = Strategy[data.get("strategy", "ABORT")]
    except KeyError as exc:
        raise ConfigurationError(f"unknown enum name in config payload: {exc}")
    data["protocol"] = protocol_from_wire(
        data.pop("cache_kind", None), data.get("protocol"), owner="column config"
    )
    try:
        return ColumnConfig(**data)
    except TypeError as exc:
        # e.g. a hand-edited artifact with a misspelled field name.
        raise ConfigurationError(
            f"bad column config payload {sorted(data)}: {exc}"
        ) from exc


def _execute_point(
    payload: tuple[
        ColumnConfig | None,
        Workload | None,
        Workload | None,
        ScenarioSpec | None,
        bool,
    ]
) -> ColumnResult | ScenarioResult:
    config, workload, read_workload, scenario, trace = payload
    if not trace:
        if scenario is not None:
            return run_scenario(scenario)
        return run_column(config, workload, read_workload=read_workload)
    # The point label is re-attached at export time from the spec, so the
    # tracer itself doesn't need one (the execution payload stays lean).
    with telemetry.capture("") as tracer:
        if scenario is not None:
            result = run_scenario(scenario)
        else:
            result = run_column(config, workload, read_workload=read_workload)
    result.telemetry = tracer.snapshot()
    result.trace = tracer.record_dicts()
    return result


def _execute_indexed(
    item: tuple[int, tuple]
) -> tuple[int, ColumnResult | ScenarioResult]:
    index, payload = item
    return index, _execute_point(payload)


def ordered_results(
    total: int, results_by_index: Mapping[int, object]
) -> list:
    """Restore spec order from index-keyed results.

    The shared reassembly step of every out-of-order executor: the
    ``imap_unordered`` pool below and the dispatch backends both collect
    ``{point index: result}`` as completions stream in, then rebuild the
    spec-ordered list through this function.  Raises
    :class:`~repro.errors.DispatchError` if any index is missing — a sweep
    must never return partial results as if they were complete.
    """
    missing = [index for index in range(total) if index not in results_by_index]
    if missing:
        raise DispatchError(
            f"sweep incomplete: no results for point indices {missing}"
        )
    return [results_by_index[index] for index in range(total)]


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork inherits sys.path and the parent's built workloads/topology caches;
    # spawn re-imports, which also works because PYTHONPATH propagates, but
    # pays a per-worker import and (for realistic workloads) rebuild cost.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _pool_chunksize(n_points: int, workers: int) -> int:
    """Points handed to a pool worker per dispatch (>= 4 waves per worker).

    Small chunks keep one slow point from pinning a whole wave of fast ones
    behind it while still amortising the per-task IPC cost of big grids.
    """
    return max(1, n_points // (workers * 4))


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int | None = None,
    dispatch: "DispatchSpec | FleetSpec | None" = None,
) -> SweepResult:
    """Execute every point of ``spec`` and collect results in spec order.

    ``jobs=1`` runs in-process (no pool, fully synchronous — the baseline
    for determinism tests); ``jobs>1`` fans the columns across a process
    pool, never spawning more workers than there are points, streaming
    completions via chunked ``imap_unordered`` so one slow point never
    blocks a whole map wave.  ``dispatch=`` hands the spec to a fleet
    daemon instead (see :mod:`repro.dispatch`): a
    :class:`~repro.dispatch.coordinator.DispatchSpec` starts a journal-less
    daemon at that address which lives for this one sweep and serves it to
    whichever workers connect, while a
    :class:`~repro.dispatch.client.FleetSpec` submits it to a long-lived
    daemon that is already running and waits.  Every executor returns
    identical results for the same spec.  A point traces when its own
    ``trace`` flag says so — the flag rides the wire to dispatch workers —
    and nothing else switches tracing on.
    """
    if dispatch is not None:
        from repro.dispatch.client import FleetSpec, run_fleet_sweep
        from repro.dispatch.coordinator import run_dispatched

        if isinstance(dispatch, FleetSpec):
            return run_fleet_sweep(spec, dispatch)
        return run_dispatched(spec, dispatch)
    jobs = resolve_jobs(jobs)
    payloads = [
        (point.config, point.workload, point.read_workload, point.scenario, point.trace)
        for point in spec.points
    ]
    workers = min(jobs, len(payloads))
    start = time.perf_counter()
    if workers <= 1:
        results = [_execute_point(payload) for payload in payloads]
    else:
        with _pool_context().Pool(processes=workers) as pool:
            results_by_index: dict[int, ColumnResult | ScenarioResult] = {}
            for index, result in pool.imap_unordered(
                _execute_indexed,
                list(enumerate(payloads)),
                chunksize=_pool_chunksize(len(payloads), workers),
            ):
                results_by_index[index] = result
        results = ordered_results(len(payloads), results_by_index)
    elapsed = time.perf_counter() - start
    return SweepResult(
        spec=spec, results=results, jobs=jobs, wall_clock_seconds=elapsed
    )
