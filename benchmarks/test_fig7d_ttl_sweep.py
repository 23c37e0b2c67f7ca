"""Figure 7(d) — the TTL baseline: bounded entry lifetimes.

Paper reading: "Limiting TTL has detrimental effects on cache hit ratio,
quickly increasing the database workload. By increasing database access rate
to more than twice its original load we only observe a reduction of
inconsistencies of about 10 %" — strictly dominated by T-Cache.

Scale note: the paper sweeps TTLs of 30-6400 s against its prototype; in
this simulated column lost invalidations are repaired by the next delivered
update (~2.5 s per object at the paper's rates), so the equivalent knee
sits at single-digit seconds. The sweep covers the same three regimes —
no effect, mild effect, and >=2x database load.
"""

from __future__ import annotations

from repro.experiments import fig7_realistic, run_sweep
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Fig. 7d: TTL must push DB load past ~2x before inconsistency\n"
    "drops appreciably; T-Cache (Fig. 7c) reaches far lower inconsistency\n"
    "at a fraction of that cost"
)


def test_fig7d_ttl_sweep(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: fig7_realistic.ttl_rows(
            run_sweep(fig7_realistic.ttl_spec(duration=duration), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 7d: TTL sweep"))
    print(PAPER_NOTES)

    for workload in ("amazon", "orkut"):
        series = [row for row in rows if row["workload"] == workload]
        baseline = series[0]
        assert baseline["ttl"] == "inf"
        shortest = series[-1]
        # Short TTLs do reduce inconsistency...
        assert (
            shortest["inconsistency_ratio_pct"]
            < 0.5 * baseline["inconsistency_ratio_pct"]
        )
        # ...but only by blowing up the database load and the hit ratio.
        assert shortest["db_rate_normed_pct"] > 200.0
        assert shortest["hit_ratio"] < baseline["hit_ratio"] - 0.15
        # Long TTLs accomplish nothing (staleness repairs itself first).
        long_ttl = next(row for row in series if row["ttl"] == 30.0)
        assert long_ttl["db_rate_normed_pct"] < 110.0
        assert (
            long_ttl["inconsistency_ratio_pct"]
            > 0.9 * baseline["inconsistency_ratio_pct"]
        )
