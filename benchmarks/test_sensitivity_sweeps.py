"""Sensitivity sweeps — quantifying the paper's in-passing claims.

* §III: "Intuitively, dependency lists should be roughly the same size as
  the size of the workload's clusters" — detection must saturate once
  ``k >= cluster_size - 1``.
* The 20 % invalidation-loss pathology: T-Cache's advantage must hold
  across loss rates, including the clean (0 %) and catastrophic (80 %)
  ends.
* Update pressure: higher write rates raise conflict probability (more
  aborts) without breaking detection.
"""

from __future__ import annotations

from repro.experiments import run_sweep, sensitivity
from repro.experiments.report import format_table


def test_cluster_size_vs_deplist_bound(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: sensitivity.cluster_size_vs_k_rows(
            run_sweep(
                sensitivity.cluster_size_vs_k_spec(duration=duration / 2), jobs=jobs
            )
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Sensitivity: cluster size vs k"))
    print("§III: lists 'roughly the same size as the workload's clusters'")

    by_key = {(row["cluster_size"], row["deplist_max"]): row for row in rows}
    for cluster_size in (3, 5, 8):
        # Saturated region: k >= cluster_size - 1 detects (almost)
        # everything.
        saturated = [
            row["detection_pct"]
            for row in rows
            if row["cluster_size"] == cluster_size
            and row["deplist_max"] >= cluster_size - 1
        ]
        assert min(saturated) > 95.0
        # Under-provisioned lists leave a gap.
        starved = by_key[(cluster_size, 1)]["detection_pct"]
        if cluster_size > 3:
            assert starved < min(saturated)


def test_invalidation_loss_sweep(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: sensitivity.loss_rows(
            run_sweep(sensitivity.loss_spec(duration=duration / 2), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Sensitivity: invalidation loss rate"))

    # Baseline inconsistency grows with loss.
    baseline = [row["baseline_inconsistency_pct"] for row in rows]
    assert baseline[0] < baseline[3] < baseline[-1] + 1e-9
    # T-Cache keeps committed inconsistency near zero at every loss rate
    # (perfect clusters + k=5: full detection).
    for row in rows:
        assert row["tcache_inconsistency_pct"] < 1.0


def test_update_pressure_sweep(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: sensitivity.update_pressure_rows(
            run_sweep(
                sensitivity.update_pressure_spec(duration=duration / 2), jobs=jobs
            )
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Sensitivity: update pressure"))

    aborts = [row["abort_ratio_pct"] for row in rows]
    assert aborts[0] < aborts[-1]  # more writes, more (correct) aborts
    for row in rows:
        assert row["inconsistency_pct"] < 1.0  # detection holds throughout