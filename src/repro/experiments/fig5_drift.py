"""Figure 5 — drifting clusters.

"Transactions are perfectly clustered, as in the previous experiment, but
every 3 minutes the cluster structure shifts by 1 ... After each shift, the
objects' dependency lists are outdated. This leads to a sudden increased
inconsistency rate that converges back to zero, until this convergence is
interrupted by the next shift."

The paper plots the per-window inconsistency ratio over 800 seconds with
shifts every 180 s. The experiment is parameterised so benchmarks can run a
time-compressed variant (same dynamics, shorter wall time); the defaults are
the paper's.
"""

from __future__ import annotations

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.report import Experiment, section
from repro.experiments.sweep import SweepPoint, SweepResult, SweepSpec
from repro.workloads.synthetic import DriftingClusterWorkload

__all__ = ["EXPERIMENT", "rows", "shift_spike_profile", "spec"]

#: The paper plots 800 s with a shift every 180 s, in 5 s windows.
TIMELINE = 800.0
SHIFT_INTERVAL = 180.0
WINDOW = 5.0


def make_config(
    seed: int = 5, duration: float = TIMELINE, window: float = WINDOW
) -> ColumnConfig:
    return ColumnConfig(
        seed=seed,
        duration=duration,
        warmup=0.0,
        deplist_max=5,
        strategy=Strategy.ABORT,
        monitor_window=window,
    )


def spec(
    *,
    seed: int = 5,
    duration: float = TIMELINE,
    shift_interval: float = SHIFT_INTERVAL,
    n_objects: int = 2000,
    window: float = WINDOW,
) -> SweepSpec:
    """Figure 5 is a single drifting timeline, i.e. a one-point sweep."""
    return SweepSpec(
        name="fig5",
        description="drifting clusters: spikes that reconverge (§V-A)",
        root_seed=seed,
        points=[
            SweepPoint(
                label="timeline",
                config=make_config(seed=seed, duration=duration, window=window),
                workload=DriftingClusterWorkload(
                    n_objects=n_objects,
                    cluster_size=5,
                    shift_interval=shift_interval,
                ),
                params={"shift_interval": shift_interval, "n_objects": n_objects},
            )
        ],
    )


def rows(sweep: SweepResult) -> list[dict[str, float]]:
    """Rows of (window start, inconsistency ratio %) — the Fig. 5 series."""
    return [
        {
            "time": row["time"],
            "inconsistency_ratio_pct": 100.0 * row["inconsistency_ratio"],
            "aborted_tps": row["aborted_necessary"] + row["aborted_unnecessary"],
        }
        for row in sweep.results[0].series
    ]


def shift_spike_profile(
    rows: list[dict[str, float]], shift_interval: float, *, settle: float = 30.0
) -> dict[str, float]:
    """Mean inconsistency ratio right after shifts vs late in each epoch.

    The Fig. 5 shape means the post-shift mean must exceed the settled mean:
    a spike at every boundary that converges back toward zero.
    """
    post_shift: list[float] = []
    settled: list[float] = []
    for row in rows:
        phase = row["time"] % shift_interval
        if row["time"] < shift_interval:
            # The first epoch has fresh dependency lists throughout.
            continue
        if phase < settle:
            post_shift.append(row["inconsistency_ratio_pct"])
        elif phase >= shift_interval - settle:
            settled.append(row["inconsistency_ratio_pct"])
    return {
        "post_shift_mean_pct": sum(post_shift) / len(post_shift) if post_shift else 0.0,
        "settled_mean_pct": sum(settled) / len(settled) if settled else 0.0,
    }


def _cli_specs(args) -> list[SweepSpec]:
    # --duration 30 (the CLI default) is the paper's whole timeline.
    scale = args.duration / 30.0
    return [
        spec(
            duration=TIMELINE * scale,
            shift_interval=SHIFT_INTERVAL * scale,
            window=WINDOW * scale,
        )
    ]


def _cli_sections(sweeps: list[SweepResult]) -> list[dict[str, object]]:
    (sweep,) = sweeps
    series = rows(sweep)
    shift_interval = sweep.spec.points[0].params["shift_interval"]
    return [
        section(
            "Figure 5: drifting clusters (sampled)",
            series,
            stride=max(1, len(series) // 32),
        ),
        section("spike profile", [shift_spike_profile(series, shift_interval)]),
    ]


EXPERIMENT = Experiment("Figure 5: drifting clusters", _cli_specs, _cli_sections)

