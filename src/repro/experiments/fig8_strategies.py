"""Figure 8 — ABORT vs EVICT vs RETRY on the realistic workloads.

"In these experiments we use dependency lists of length 3. ... With the
Amazon workload, ABORT is able to detect 70 % of the inconsistent
transactions, whereas with the less-clustered Orkut workload it only
detects 43 %. In both cases EVICT reduces uncommittable transactions
considerably — 20 % with the Amazon workload and 36 % with Orkut. In the
Amazon workload, RETRY further reduces this value to 11 % of its value with
ABORT."
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import WORKLOAD_NAMES, realistic_workload
from repro.experiments.report import Experiment
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec

__all__ = ["EXPERIMENT", "rows", "spec"]


def make_config(seed: int = 8, duration: float = 30.0) -> ColumnConfig:
    return ColumnConfig(seed=seed, duration=duration, warmup=5.0, deplist_max=3)


def spec(
    *,
    seed: int = 8,
    duration: float = 30.0,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> SweepSpec:
    """Fig. 8's six bars: one column per (workload, strategy)."""
    config = make_config(seed=seed, duration=duration)
    points = []
    for name in workloads:
        workload = realistic_workload(name, seed=seed)
        for strategy in Strategy:
            points.append(
                SweepPoint(
                    label=f"{name}:{strategy.name}",
                    config=replace(config, strategy=strategy),
                    workload=workload,
                    params={"workload": name, "strategy": strategy.name},
                )
            )
    return SweepSpec(
        name="fig8",
        description="ABORT vs EVICT vs RETRY on realistic workloads (§V-B2)",
        root_seed=seed,
        points=points,
    )


def rows(sweep: SweepResult) -> list[dict[str, object]]:
    """One row per (workload, strategy), Fig. 8's six bars."""
    table: list[dict[str, object]] = []
    for point, result in sweep.pairs():
        shares = result.class_shares()
        table.append(
            {
                "workload": point.params["workload"],
                "strategy": point.params["strategy"],
                "consistent_pct": 100.0 * shares["consistent"],
                "inconsistent_pct": 100.0 * shares["inconsistent"],
                "aborted_pct": 100.0
                * (shares["aborted_necessary"] + shares["aborted_unnecessary"]),
                "detection_ratio_pct": 100.0 * result.detection_ratio,
            }
        )
    return table


EXPERIMENT = Experiment.single_sweep(
    "Figure 8: strategies (realistic, k=3)", spec, rows
)

