"""Figure 6 — ABORT vs EVICT vs RETRY on the synthetic workload.

"We use the approximate clusters workload with 2000 objects, a window size
of 5, a Pareto alpha parameter of 1.0, and the maximum dependency list size
is set to 5. ... For each strategy, the lower portion of the graph is the
ratio of committed transactions that are consistent, the middle portion is
committed transactions that are inconsistent, and the top portion is aborted
transactions."

Expected shape: EVICT shrinks the undetected-inconsistent band to a fraction
of its ABORT value (paper: 28 %), RETRY shrinks it further (paper: 23 %) and
also converts many aborts into commits.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.report import Experiment
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.workloads.synthetic import ParetoClusterWorkload

__all__ = ["EXPERIMENT", "rows", "spec"]


def make_config(seed: int = 6, duration: float = 30.0) -> ColumnConfig:
    return ColumnConfig(seed=seed, duration=duration, warmup=5.0, deplist_max=5)


def spec(*, seed: int = 6, duration: float = 30.0) -> SweepSpec:
    """One column per strategy — same workload and seed for comparability."""
    config = make_config(seed=seed, duration=duration)
    workload = ParetoClusterWorkload(n_objects=2000, cluster_size=5, alpha=1.0)
    return SweepSpec(
        name="fig6",
        description="ABORT vs EVICT vs RETRY, synthetic alpha=1 (§V-A)",
        root_seed=seed,
        points=[
            SweepPoint(
                label=strategy.name,
                config=replace(config, strategy=strategy),
                workload=workload,
                params={"strategy": strategy.name},
            )
            for strategy in Strategy
        ],
    )


def rows(sweep: SweepResult) -> list[dict[str, object]]:
    """One row per strategy, in sweep order."""
    table: list[dict[str, object]] = []
    for point, result in sweep.pairs():
        shares = result.class_shares()
        table.append(
            {
                "strategy": point.label,
                "consistent_pct": 100.0 * shares["consistent"],
                "inconsistent_pct": 100.0 * shares["inconsistent"],
                "aborted_pct": 100.0
                * (shares["aborted_necessary"] + shares["aborted_unnecessary"]),
                "retries_resolved": result.retries_resolved,
                "strategy_evictions": result.cache_stats.strategy_evictions,
            }
        )
    return table


EXPERIMENT = Experiment.single_sweep(
    "Figure 6: strategies (synthetic, alpha=1)", spec, rows
)

