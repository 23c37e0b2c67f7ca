"""Theorem 1 — unbounded T-Cache implements cache-serializability.

End-to-end configuration: unbounded dependency lists, unbounded cache, the
paper's lossy asynchronous invalidations. Every committed read-only
transaction must be serializable with the update history (zero inconsistent
commits under full serialization-graph testing), on clustered, unclustered
and graph workloads alike.
"""

from __future__ import annotations

from repro.experiments import run_sweep, theorem1
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Theorem 1: with unbounded cache and dependency lists, every\n"
    "committed read-only transaction serializes (proof in Appendix A)"
)


def test_theorem1_unbounded(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: theorem1.rows(
            run_sweep(theorem1.spec(duration=max(duration * 0.67, 10.0)), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Theorem 1: unbounded-resource runs"))
    print(PAPER_NOTES)

    for row in rows:
        assert row["inconsistent_commits"] == 0, row
        assert row["committed"] > 1000
        assert row["detection_ratio_pct"] == 100.0 or row["aborted"] >= 0
