"""Figure 7(c)/(d) — efficacy and overhead on the realistic workloads.

Panel (c): sweep the maximum dependency-list size for T-Cache and measure
the inconsistency ratio, the cache hit ratio, and the database access rate
(normalised to the no-dependency baseline). The paper's reading: "a single
dependency reduces inconsistencies to 56 % of their original value, two
dependencies reduce inconsistencies to 11 % ... In both workloads there is
no visible effect on cache hit ratio."

Panel (d): sweep the cache-entry TTL of the consistency-unaware baseline.
The paper's reading: "By increasing database access rate to more than twice
its original load we only observe a reduction of inconsistencies of about
10 %."

Strategy note: §V-B2 does not name the strategy but observes that "the abort
rate is negligible in all runs" — which only holds for RETRY (ABORT and
EVICT turn every detection into an abort). The sweep therefore runs RETRY;
the k=0 baseline is strategy-independent because nothing is ever detected
without dependencies.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import WORKLOAD_NAMES, realistic_workload
from repro.experiments.report import Experiment
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec

__all__ = [
    "DEFAULT_DEPLIST_SIZES",
    "DEFAULT_TTLS",
    "DEPLIST_EXPERIMENT",
    "TTL_EXPERIMENT",
    "deplist_rows",
    "deplist_spec",
    "ttl_rows",
    "ttl_spec",
]

#: Panel (c) x-axis: dependency list bounds 0 (baseline) through 5.
DEFAULT_DEPLIST_SIZES: tuple[int, ...] = (0, 1, 2, 3, 4, 5)

#: Panel (d) x-axis (seconds, descending like the paper's reversed log axis).
#: None denotes the no-TTL baseline the sweep is normalised against. The
#: paper sweeps 30–6400 s; our simulated column repairs lost invalidations
#: within ~2.5 s (per-object update recurrence ≈ 2 s at the paper's rates),
#: so the equivalent knee sits at single-digit seconds — the sweep covers
#: the same regimes (no effect → mild effect → ≥2x database load).
DEFAULT_TTLS: tuple[float | None, ...] = (None, 30.0, 10.0, 5.0, 3.0, 2.0, 1.0, 0.5)


def make_config(seed: int = 7, duration: float = 30.0) -> ColumnConfig:
    return ColumnConfig(
        seed=seed,
        duration=duration,
        warmup=5.0,
        strategy=Strategy.RETRY,
    )


def deplist_spec(
    sizes: tuple[int, ...] = DEFAULT_DEPLIST_SIZES,
    *,
    seed: int = 7,
    duration: float = 30.0,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> SweepSpec:
    """Panel (c) grid: one column per (workload, dependency list size)."""
    config = make_config(seed=seed, duration=duration)
    points = []
    for name in workloads:
        workload = realistic_workload(name, seed=seed)
        for size in sizes:
            points.append(
                SweepPoint(
                    label=f"{name}:k={size}",
                    config=replace(config, deplist_max=size),
                    workload=workload,
                    params={"workload": name, "deplist_max": size},
                )
            )
    return SweepSpec(
        name="fig7c",
        description="dependency-list sweep on realistic workloads (§V-B2)",
        root_seed=seed,
        points=points,
    )


def _normalised_rows(
    sweep: SweepResult, axis: str, baseline: object
) -> list[dict[str, object]]:
    """Rows over ``axis``, each workload's columns normalised against the
    column where ``axis == baseline`` (the workload's first, in spec order)."""
    rows: list[dict[str, object]] = []
    baseline_rate = baseline_ratio = None
    for point, result in sweep.pairs():
        value = point.params[axis]
        rate = result.db_access_rate
        ratio = result.inconsistency_ratio
        if value == baseline:
            baseline_rate = rate or 1.0
            baseline_ratio = ratio or 1.0
        rows.append(
            {
                "workload": point.params["workload"],
                axis: "inf" if value is None else value,
                "inconsistency_ratio_pct": 100.0 * ratio,
                "vs_baseline_pct": 100.0 * ratio / baseline_ratio,
                "hit_ratio": result.hit_ratio,
                "db_rate_normed_pct": 100.0 * rate / baseline_rate,
            }
        )
    return rows


def deplist_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Panel (c): one row per (workload, dependency list size)."""
    return [
        {**row, "abort_ratio_pct": 100.0 * result.abort_ratio}
        for row, result in zip(_normalised_rows(sweep, "deplist_max", 0), sweep.results)
    ]


DEPLIST_EXPERIMENT = Experiment.single_sweep(
    "Figure 7c: dependency-list sweep", deplist_spec, deplist_rows
)


def ttl_spec(
    ttls: tuple[float | None, ...] = DEFAULT_TTLS,
    *,
    seed: int = 7,
    duration: float = 30.0,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> SweepSpec:
    """Panel (d) grid: one column per (workload, TTL), TTL=None baseline."""
    config = make_config(seed=seed, duration=duration)
    points = []
    for name in workloads:
        workload = realistic_workload(name, seed=seed)
        for ttl in ttls:
            if ttl is None:
                point = replace(config, protocol="plain")
            else:
                point = replace(config, protocol="ttl", ttl=ttl)
            points.append(
                SweepPoint(
                    label=f"{name}:ttl={'inf' if ttl is None else ttl}",
                    config=point,
                    workload=workload,
                    params={"workload": name, "ttl": ttl},
                )
            )
    return SweepSpec(
        name="fig7d",
        description="TTL sweep of the consistency-unaware baseline (§V-B2)",
        root_seed=seed,
        points=points,
    )


def ttl_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Panel (d): one row per (workload, TTL), baseline TTL=None first."""
    return _normalised_rows(sweep, "ttl", None)


TTL_EXPERIMENT = Experiment.single_sweep("Figure 7d: TTL sweep", ttl_spec, ttl_rows)

