"""Plain-text and JSON rendering of experiment results.

The benchmarks and examples print the same rows the paper's figures plot;
this module renders them as aligned tables so runs are readable in CI logs
and terminal sessions, and serialises them as JSON artifacts so CI and the
benchmark harness can consume machine-readable results.  The comparison
form of an artifact, :func:`normalized_artifact`, and :func:`json_safe` live
in :mod:`repro.telemetry.export`, below the sweep engine; they are
re-exported here.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.telemetry.export import json_safe, normalized_artifact

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    import argparse

    from repro.experiments.sweep import SweepResult, SweepSpec

__all__ = [
    "Experiment",
    "experiment_payload",
    "format_percent",
    "format_table",
    "json_safe",
    "normalized_artifact",
    "print_table",
    "section",
    "write_json",
]

#: Version tag of the ``--json`` artifact layout.
ARTIFACT_SCHEMA = "repro.experiments/v1"


def format_percent(value: float, digits: int = 1) -> str:
    return f"{100.0 * value:.{digits}f}%"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    *,
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table.

    ``columns`` selects and orders the rendered keys (default: keys of the
    first row in insertion order). Floats are shown with four significant
    digits, an absent value (None) as ``-``; everything else via ``str``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in table))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in table
    ]
    parts: list[str] = []
    if title:
        parts.append(title)
    parts.extend([header, separator, *body])
    return "\n".join(parts)


def print_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    *,
    title: str | None = None,
) -> None:
    print(format_table(rows, columns, title=title))


def section(
    title: str, rows: Sequence[Mapping[str, object]], stride: int = 1
) -> dict[str, object]:
    """One printed/serialised unit of an experiment: a title and its rows.

    ``stride`` samples the long time series on the terminal; ``--json``
    artifacts always keep every row.
    """
    return {"title": title, "rows": rows, "stride": stride}


class Experiment(NamedTuple):
    """One row of the CLI's experiment table (``repro.experiments.__main__``).

    Declared by the figure module that owns the logic.  The CLI driver
    builds ``specs(args)`` once, runs each through ``run_sweep``, and prints
    and serialises ``sections(results)``; the same specs, unstamped, are
    what a ``--json`` artifact records as ``sweep_specs``.
    """

    help: str
    #: The parsed flags of the verb -> the sweeps to run, in order.
    specs: Callable[[argparse.Namespace], list[SweepSpec]]
    #: Their results, in the same order -> what to report (see :func:`section`).
    sections: Callable[[list[SweepResult]], list[dict[str, object]]]

    @classmethod
    def single_sweep(
        cls,
        title: str,
        spec: Callable[..., SweepSpec],
        rows: Callable[[SweepResult], list],
    ) -> Experiment:
        """The common shape: one ``spec(duration=...)`` grid, one table."""
        return cls(
            title,
            lambda args: [spec(duration=args.duration)],
            lambda sweeps: [section(title, rows(sweeps[0]))],
        )


def experiment_payload(
    experiment: str,
    sections: Sequence[Mapping[str, object]],
    *,
    wall_clock_seconds: float,
    sweep_specs: Sequence[Mapping[str, object]] = (),
) -> dict[str, object]:
    """One experiment's JSON record: its printed sections plus run metadata.

    Each section is ``{"title": ..., "rows": [...]}`` — the same rows
    :func:`print_table` renders, unsampled.  ``sweep_specs`` carries the
    per-column configs of the grids that produced the rows (see
    :func:`repro.experiments.sweep.spec_artifact`), so an artifact is enough
    to re-run any column.
    """
    return {
        "experiment": experiment,
        "wall_clock_seconds": wall_clock_seconds,
        "sweep_specs": list(sweep_specs),
        "sections": [
            {"title": section["title"], "rows": section["rows"]}
            for section in sections
        ],
    }


def _json_default(value: object) -> object:
    coerced = json_safe(value)
    return str(value) if coerced is value else coerced


def write_json(path: str, payload: Mapping[str, object]) -> None:
    """Write a JSON artifact; enums and other exotic cells degrade safely."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=_json_default)
        handle.write("\n")
