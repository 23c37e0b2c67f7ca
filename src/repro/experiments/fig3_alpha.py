"""Figure 3 — inconsistency detection as a function of the Pareto alpha.

"We vary the Pareto alpha parameter from 1/32 to 4. In this experiment we
are only interested in detection, so we choose the ABORT strategy. ... At
alpha = 1/32, the distribution is almost uniform across the object set, and
the inconsistency detection ratio is low — the dependency lists are too
small to hold all relevant information. At the other extreme, when
alpha = 4, the distribution is so spiked that almost all accesses of a
transaction are within a cluster, allowing for perfect inconsistency
detection."

Setup (§V-A): 2000 objects, clusters of 5, dependency lists bounded at 5.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.report import Experiment
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec, derive_seed
from repro.workloads.synthetic import ParetoClusterWorkload

__all__ = ["DEFAULT_ALPHAS", "EXPERIMENT", "rows", "spec"]

#: Powers of two from 1/32 to 4, the paper's sweep range.
DEFAULT_ALPHAS: tuple[float, ...] = (
    1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0, 4.0,
)


def base_config(seed: int = 11, duration: float = 30.0) -> ColumnConfig:
    return ColumnConfig(
        seed=seed,
        duration=duration,
        warmup=5.0,
        deplist_max=5,
        strategy=Strategy.ABORT,
    )


def spec(
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    *,
    seed: int = 11,
    duration: float = 30.0,
) -> SweepSpec:
    """The Figure 3 grid: one column per alpha, independently seeded."""
    config = base_config(seed=seed, duration=duration)
    return SweepSpec(
        name="fig3",
        description="detected inconsistencies vs Pareto alpha (§V-A)",
        root_seed=seed,
        points=[
            SweepPoint(
                label=f"alpha={alpha:g}",
                config=replace(config, seed=derive_seed(seed, index)),
                workload=ParetoClusterWorkload(
                    n_objects=2000, cluster_size=5, alpha=alpha
                ),
                params={"alpha": alpha},
            )
            for index, alpha in enumerate(alphas)
        ],
    )


def rows(sweep: SweepResult) -> list[dict[str, float]]:
    """One row per alpha, in sweep order."""
    return [
        {
            "alpha": point.params["alpha"],
            "detected_inconsistencies_pct": 100.0 * result.detection_ratio,
            "inconsistency_ratio_pct": 100.0 * result.inconsistency_ratio,
            "abort_ratio_pct": 100.0 * result.abort_ratio,
            "committed": float(result.counts.committed),
        }
        for point, result in sweep.pairs()
    ]


EXPERIMENT = Experiment.single_sweep(
    "Figure 3: detected inconsistencies vs Pareto alpha", spec, rows
)

