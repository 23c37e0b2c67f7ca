"""Figure 4 — convergence of T-Cache when clusters form.

"Initially accesses are uniformly at random from the entire set (i.e., no
clustering whatsoever), then at a single moment they become perfectly
clustered into clusters of size 5. Transactions are aborted on detecting an
inconsistency. We use a transaction rate of approximately 500 per second.
The database includes 1000 objects. ... Before t = 58s access is
unclustered, and as a result the dependency lists are useless; only few
inconsistencies are detected ... At t = 58s, accesses become perfectly
clustered. As desired, we see fast improvement of inconsistency detection."

The output is the per-second stacked series of Fig. 4: consistent commits,
inconsistent commits and aborts, in transactions per second.
"""

from __future__ import annotations

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.report import Experiment, section
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.workloads.synthetic import (
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)

__all__ = ["EXPERIMENT", "SWITCH_TIME", "phase_summaries", "rows", "spec"]

#: The paper's timeline is 160 s long and switches the workload at t = 58 s.
TIMELINE = 160.0
SWITCH_TIME = 58.0


def make_workload(n_objects: int = 1000, switch_time: float = SWITCH_TIME):
    return PhaseSwitchWorkload(
        before=UniformWorkload(n_objects),
        after=PerfectClusterWorkload(n_objects, cluster_size=5),
        switch_time=switch_time,
    )


def make_config(seed: int = 4, duration: float = TIMELINE) -> ColumnConfig:
    return ColumnConfig(
        seed=seed,
        duration=duration,
        warmup=0.0,  # the whole timeline is the figure
        deplist_max=5,
        strategy=Strategy.ABORT,
    )


def spec(
    *, seed: int = 4, duration: float = TIMELINE, switch_time: float = SWITCH_TIME
) -> SweepSpec:
    """Figure 4 is a single timeline, i.e. a one-point sweep."""
    return SweepSpec(
        name="fig4",
        description="convergence after sudden cluster formation (§V-A)",
        root_seed=seed,
        points=[
            SweepPoint(
                label="timeline",
                config=make_config(seed=seed, duration=duration),
                workload=make_workload(switch_time=switch_time),
                params={"switch_time": switch_time},
            )
        ],
    )


def rows(sweep: SweepResult) -> list[dict[str, float]]:
    """Per-second rows: time, consistent, inconsistent, aborted [txn/s]."""
    return [
        {
            "time": row["time"],
            "consistent_tps": row["consistent"],
            "inconsistent_tps": row["inconsistent"],
            "aborted_tps": row["aborted_necessary"] + row["aborted_unnecessary"],
        }
        for row in sweep.results[0].series
    ]


def phase_summaries(
    rows: list[dict[str, float]], switch_time: float = SWITCH_TIME
) -> dict[str, dict[str, float]]:
    """Mean rates before and after the switch (skipping 5 s of transition).

    This is the quantitative reading of Fig. 4 the benchmarks assert on:
    the inconsistent-commit rate collapses after cluster formation while the
    abort rate rises.
    """

    def mean_rates(selected: list[dict[str, float]]) -> dict[str, float]:
        if not selected:
            return {"consistent_tps": 0.0, "inconsistent_tps": 0.0, "aborted_tps": 0.0}
        keys = ("consistent_tps", "inconsistent_tps", "aborted_tps")
        return {key: sum(row[key] for row in selected) / len(selected) for key in keys}

    before = [row for row in rows if 5.0 <= row["time"] < switch_time - 1.0]
    after = [row for row in rows if row["time"] >= switch_time + 5.0]
    return {"before": mean_rates(before), "after": mean_rates(after)}


def _cli_specs(args) -> list[SweepSpec]:
    # --duration 30 (the CLI default) is the paper's whole timeline.
    scale = args.duration / 30.0
    return [spec(duration=TIMELINE * scale, switch_time=SWITCH_TIME * scale)]


def _cli_sections(sweeps: list[SweepResult]) -> list[dict[str, object]]:
    (sweep,) = sweeps
    series = rows(sweep)
    summaries = phase_summaries(
        series, switch_time=sweep.spec.points[0].params["switch_time"]
    )
    return [
        section(
            "Figure 4: convergence (sampled windows)",
            series,
            stride=max(1, len(series) // 24),
        ),
        section(
            "phase means [txn/s]",
            [
                {"phase": "before", **summaries["before"]},
                {"phase": "after", **summaries["after"]},
            ],
        ),
    ]


EXPERIMENT = Experiment(
    "Figure 4: convergence when clusters form", _cli_specs, _cli_sections
)

