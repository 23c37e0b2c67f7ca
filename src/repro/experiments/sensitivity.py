"""Sensitivity studies beyond the paper's headline figures.

Three sweeps that quantify claims the paper makes in passing:

* **Cluster size vs dependency-list bound** — §III: "Intuitively, dependency
  lists should be roughly the same size as the size of the workload's
  clusters." The sweep crosses cluster sizes with list bounds; detection
  should saturate once ``k`` reaches roughly ``cluster_size - 1`` (every
  partner of an object fits in its list).
* **Invalidation loss rate** — the experiment's 20 % drop rate is a chosen
  pathology level; this sweep maps inconsistency and detection against the
  loss rate from 0 % to 100 %.
* **Read/update ratio** — the paper fixes 500/100 txn/s; this sweep varies
  update pressure at a constant read rate.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.report import Experiment, section
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.workloads.synthetic import PerfectClusterWorkload

__all__ = [
    "EXPERIMENT",
    "cluster_size_vs_k_rows",
    "cluster_size_vs_k_spec",
    "loss_rows",
    "loss_spec",
    "update_pressure_rows",
    "update_pressure_spec",
]


def base_config(seed: int = 41, duration: float = 15.0) -> ColumnConfig:
    return ColumnConfig(
        seed=seed, duration=duration, warmup=5.0, strategy=Strategy.ABORT
    )


def cluster_size_vs_k_spec(
    cluster_sizes: tuple[int, ...] = (3, 5, 8),
    bounds: tuple[int, ...] = (1, 2, 4, 7, 10),
    *,
    seed: int = 41,
    duration: float = 15.0,
    n_objects: int = 1920,
) -> SweepSpec:
    """Grid over (cluster size, dependency-list bound); ``n_objects`` must be
    divisible by every cluster size (1920 covers 3, 5 and 8)."""
    config = base_config(seed=seed, duration=duration)
    points = []
    for cluster_size in cluster_sizes:
        workload = PerfectClusterWorkload(
            n_objects=n_objects, cluster_size=cluster_size, txn_size=cluster_size
        )
        for bound in bounds:
            points.append(
                SweepPoint(
                    label=f"cluster={cluster_size}:k={bound}",
                    config=replace(config, deplist_max=bound),
                    workload=workload,
                    params={"cluster_size": cluster_size, "deplist_max": bound},
                )
            )
    return SweepSpec(
        name="sensitivity-cluster-vs-k",
        description="detection saturation once k >= cluster_size - 1 (§III)",
        root_seed=seed,
        points=points,
    )


def cluster_size_vs_k_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Detection ratio across (cluster size, k) — the §III intuition."""
    return [
        {
            "cluster_size": point.params["cluster_size"],
            "deplist_max": point.params["deplist_max"],
            "detection_pct": round(100.0 * result.detection_ratio, 1),
            "inconsistency_pct": round(100.0 * result.inconsistency_ratio, 2),
            "saturated": point.params["deplist_max"]
            >= point.params["cluster_size"] - 1,
        }
        for point, result in sweep.pairs()
    ]


def loss_spec(
    loss_rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8),
    *,
    seed: int = 43,
    duration: float = 15.0,
) -> SweepSpec:
    """Paired columns per loss rate: T-Cache (k=5) and the blind baseline."""
    workload = PerfectClusterWorkload(n_objects=1000, cluster_size=5)
    config = base_config(seed=seed, duration=duration)
    points = []
    for loss in loss_rates:
        points.append(
            SweepPoint(
                label=f"loss={loss:g}:tcache",
                config=replace(config, invalidation_loss=loss, deplist_max=5),
                workload=workload,
                params={"loss": loss, "variant": "tcache"},
            )
        )
        points.append(
            SweepPoint(
                label=f"loss={loss:g}:baseline",
                config=replace(config, invalidation_loss=loss, deplist_max=0),
                workload=workload,
                params={"loss": loss, "variant": "baseline"},
            )
        )
    return SweepSpec(
        name="sensitivity-loss",
        description="inconsistency vs invalidation loss rate",
        root_seed=seed,
        points=points,
    )


def loss_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Inconsistency pressure as a function of invalidation loss."""
    rows: list[dict[str, object]] = []
    # loss_spec lays each loss rate out as a (tcache, baseline) pair.
    pairs = list(sweep.pairs())
    for (point, detected), (_, blind) in zip(pairs[::2], pairs[1::2]):
        rows.append(
            {
                "loss_pct": round(100.0 * point.params["loss"], 1),
                "baseline_inconsistency_pct": round(
                    100.0 * blind.inconsistency_ratio, 2
                ),
                "tcache_inconsistency_pct": round(
                    100.0 * detected.inconsistency_ratio, 2
                ),
                "detection_pct": round(100.0 * detected.detection_ratio, 1),
            }
        )
    return rows


def update_pressure_spec(
    update_rates: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0, 400.0),
    *,
    seed: int = 47,
    duration: float = 15.0,
) -> SweepSpec:
    """One column per update rate, read rate fixed at the paper's 500/s."""
    workload = PerfectClusterWorkload(n_objects=1000, cluster_size=5)
    config = base_config(seed=seed, duration=duration)
    return SweepSpec(
        name="sensitivity-update-pressure",
        description="inconsistency vs update rate at fixed read rate",
        root_seed=seed,
        points=[
            SweepPoint(
                label=f"rate={rate:g}",
                config=replace(config, update_rate=rate, deplist_max=5),
                workload=workload,
                params={"update_rate": rate},
            )
            for rate in update_rates
        ],
    )


def update_pressure_rows(sweep: SweepResult) -> list[dict[str, object]]:
    """Inconsistency pressure as a function of update rate (reads fixed)."""
    return [
        {
            "update_rate": point.params["update_rate"],
            "abort_ratio_pct": round(100.0 * result.abort_ratio, 2),
            "inconsistency_pct": round(100.0 * result.inconsistency_ratio, 2),
            "detection_pct": round(100.0 * result.detection_ratio, 1),
            "hit_ratio": round(result.hit_ratio, 3),
        }
        for point, result in sweep.pairs()
    ]


def _cli_specs(args) -> list[SweepSpec]:
    # Each of the three sweeps runs at half the figure duration.
    half = args.duration / 2.0
    return [
        cluster_size_vs_k_spec(duration=half),
        loss_spec(duration=half),
        update_pressure_spec(duration=half),
    ]


def _cli_sections(sweeps: list[SweepResult]) -> list[dict[str, object]]:
    cluster, loss, pressure = sweeps
    return [
        section("Sensitivity: cluster size vs k", cluster_size_vs_k_rows(cluster)),
        section("Sensitivity: invalidation loss sweep", loss_rows(loss)),
        section("Sensitivity: update pressure sweep", update_pressure_rows(pressure)),
    ]


EXPERIMENT = Experiment(
    "Sensitivity sweeps: cluster size vs k, invalidation loss, update pressure",
    _cli_specs,
    _cli_sections,
)

