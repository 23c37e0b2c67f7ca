"""Theorem 1 — T-Cache with unbounded resources is cache-serializable.

"T-Cache with unbounded cache size and unbounded dependency lists implements
cache-serializability." Operationally: in any execution with
``deplist_max = UNBOUNDED`` and no cache capacity bound, *every committed
read-only transaction is consistent* — the monitor's serialization-graph
tester must classify zero commits as inconsistent, on any workload.

This module runs that configuration end-to-end on several workloads; the
property-based tests exercise the same claim on adversarial histories.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.deplist import UNBOUNDED
from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import realistic_workload
from repro.experiments.report import Experiment
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec, derive_seed
from repro.workloads.synthetic import ParetoClusterWorkload, UniformWorkload

__all__ = ["EXPERIMENT", "rows", "spec"]


def make_config(seed: int = 9, duration: float = 20.0) -> ColumnConfig:
    return ColumnConfig(
        seed=seed,
        duration=duration,
        warmup=2.0,
        deplist_max=UNBOUNDED,
        strategy=Strategy.ABORT,
    )


def workloads(seed: int = 9) -> dict[str, object]:
    return {
        "uniform": UniformWorkload(n_objects=500),
        "pareto(alpha=1)": ParetoClusterWorkload(
            n_objects=1000, cluster_size=5, alpha=1.0
        ),
        "amazon": realistic_workload("amazon", seed=seed),
    }


def spec(*, seed: int = 9, duration: float = 20.0) -> SweepSpec:
    """One unbounded-resource column per workload, independently seeded."""
    config = make_config(seed=seed, duration=duration)
    return SweepSpec(
        name="theorem1",
        description="unbounded T-Cache is cache-serializable (Theorem 1)",
        root_seed=seed,
        points=[
            SweepPoint(
                label=name,
                config=replace(config, seed=derive_seed(seed, index)),
                workload=workload,
                params={"workload": name},
            )
            for index, (name, workload) in enumerate(workloads(seed).items())
        ],
    )


def rows(sweep: SweepResult) -> list[dict[str, object]]:
    """One row per workload; ``inconsistent_commits`` must be zero everywhere."""
    return [
        {
            "workload": point.params["workload"],
            "committed": result.counts.committed,
            "inconsistent_commits": result.counts.inconsistent,
            "aborted": result.counts.aborted,
            "detection_ratio_pct": 100.0 * result.detection_ratio,
        }
        for point, result in sweep.pairs()
    ]


EXPERIMENT = Experiment.single_sweep("Theorem 1: unbounded T-Cache", spec, rows)

