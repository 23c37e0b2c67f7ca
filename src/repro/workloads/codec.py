"""JSON round-tripping for the synthetic workload families.

Scenario artifacts (:meth:`repro.scenario.spec.ScenarioSpec.as_dict`) embed
each edge's workload as a plain dict so the topology can be replayed from
the CLI (``repro-experiments scenario --spec file.json``). The codec covers
every synthetic family and the compositional wrappers (offset, mixture,
phase switch); graph- and trace-backed workloads carry external state and
are not portable — serialising one raises :class:`ConfigurationError`, and
:func:`portable_workload` records ``None`` for them instead.
:func:`portable_workload_specs` is the matching refusal on the way back, for
both the sweep point and the scenario edge wire formats.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.workloads.synthetic import (
    DriftingClusterWorkload,
    MixtureWorkload,
    OffsetWorkload,
    ParetoClusterWorkload,
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)

__all__ = [
    "portable_workload",
    "portable_workload_specs",
    "workload_from_dict",
    "workload_to_dict",
]


def _encode_uniform(w: UniformWorkload) -> dict[str, object]:
    return {"n_objects": w.n_objects, "txn_size": w.txn_size}


def _encode_perfect(w: PerfectClusterWorkload) -> dict[str, object]:
    return {
        "n_objects": w.n_objects,
        "cluster_size": w.cluster_size,
        "txn_size": w.txn_size,
    }


def _encode_pareto(w: ParetoClusterWorkload) -> dict[str, object]:
    return {**_encode_perfect(w), "alpha": w.alpha}


def _encode_drifting(w: DriftingClusterWorkload) -> dict[str, object]:
    return {**_encode_perfect(w), "shift_interval": w.shift_interval}


def _encode_phase_switch(w: PhaseSwitchWorkload) -> dict[str, object]:
    return {
        "before": workload_to_dict(w.before),
        "after": workload_to_dict(w.after),
        "switch_time": w.switch_time,
    }


def _encode_offset(w: OffsetWorkload) -> dict[str, object]:
    return {"inner": workload_to_dict(w.inner), "offset": w.offset}


def _encode_mixture(w: MixtureWorkload) -> dict[str, object]:
    return {
        "components": [
            {"weight": weight, "workload": workload_to_dict(component)}
            for weight, component in w.components
        ]
    }


def _decode_phase_switch(payload: dict) -> PhaseSwitchWorkload:
    return PhaseSwitchWorkload(
        workload_from_dict(payload["before"]),
        workload_from_dict(payload["after"]),
        switch_time=payload["switch_time"],
    )


def _decode_offset(payload: dict) -> OffsetWorkload:
    return OffsetWorkload(
        workload_from_dict(payload["inner"]), offset=payload["offset"]
    )


def _decode_mixture(payload: dict) -> MixtureWorkload:
    return MixtureWorkload(
        [
            (component["weight"], workload_from_dict(component["workload"]))
            for component in payload["components"]
        ]
    )


#: type name -> (class, encode, decode). Flat families decode via keyword
#: construction; wrappers recurse through the codec.
_REGISTRY: dict[str, tuple[type, Callable, Callable | None]] = {
    "UniformWorkload": (UniformWorkload, _encode_uniform, None),
    "PerfectClusterWorkload": (PerfectClusterWorkload, _encode_perfect, None),
    "ParetoClusterWorkload": (ParetoClusterWorkload, _encode_pareto, None),
    "DriftingClusterWorkload": (DriftingClusterWorkload, _encode_drifting, None),
    "PhaseSwitchWorkload": (PhaseSwitchWorkload, _encode_phase_switch, _decode_phase_switch),
    "OffsetWorkload": (OffsetWorkload, _encode_offset, _decode_offset),
    "MixtureWorkload": (MixtureWorkload, _encode_mixture, _decode_mixture),
}


def workload_to_dict(workload) -> dict[str, object]:
    """A JSON-safe description of ``workload``, replayable by
    :func:`workload_from_dict`.

    Raises :class:`ConfigurationError` for workload types outside the
    portable synthetic families.
    """
    name = type(workload).__name__
    entry = _REGISTRY.get(name)
    if entry is None or not isinstance(workload, entry[0]):
        raise ConfigurationError(
            f"workload type {name!r} is not portable to JSON; portable "
            f"types: {sorted(_REGISTRY)}"
        )
    return {"type": name, **entry[1](workload)}


def workload_from_dict(payload: dict) -> object:
    """Rebuild a workload from :func:`workload_to_dict` output."""
    try:
        name = payload["type"]
    except (TypeError, KeyError):
        raise ConfigurationError(
            f"workload payload needs a 'type' field, got {payload!r}"
        )
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown workload type {name!r}; portable types: {sorted(_REGISTRY)}"
        )
    cls, _, decode = entry
    if decode is not None:
        return decode(payload)
    kwargs = {key: value for key, value in payload.items() if key != "type"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        # e.g. a hand-edited spec with a misspelled field name.
        raise ConfigurationError(
            f"bad {name} payload {sorted(kwargs)}: {exc}"
        ) from exc


def portable_workload(workload) -> dict[str, object] | None:
    """:func:`workload_to_dict`, or ``None`` for no workload or a workload
    outside the portable families: what a payload records as its
    ``workload_spec`` / ``read_workload_spec``."""
    if workload is None:
        return None
    try:
        return workload_to_dict(workload)
    except ConfigurationError:
        return None


def portable_workload_specs(
    payload: Mapping[str, object], owner: str
) -> tuple[dict, dict | None]:
    """The ``(workload_spec, read_workload_spec)`` of a point or edge payload.

    Refuses a payload whose workload, or whose read workload, was recorded
    without a portable spec: replaying it would run a different distribution
    (without the read workload, reads would silently come from the update
    workload).  ``owner`` names the payload in the error.
    """
    workload_spec = payload.get("workload_spec")
    if workload_spec is None:
        raise ConfigurationError(
            f"{owner}: workload {payload.get('workload')!r} has no portable "
            "workload_spec; only synthetic-family workloads replay from JSON"
        )
    read_spec = payload.get("read_workload_spec")
    if read_spec is None and payload.get("read_workload") is not None:
        raise ConfigurationError(
            f"{owner}: read workload {payload['read_workload']!r} has no "
            "portable read_workload_spec; only synthetic-family workloads "
            "replay from JSON"
        )
    return workload_spec, read_spec
