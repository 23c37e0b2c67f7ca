"""Figure 6 — ABORT vs EVICT vs RETRY on the synthetic workload.

Paper reading (approximate clusters, 2000 objects, alpha = 1, k = 5): ABORT
"detects and aborts over 55 % of all inconsistent transactions that would
have been committed"; EVICT reduces the committed-inconsistent band to 28 %
of its ABORT value; RETRY to about 23 %, while also converting most aborts
back into commits.
"""

from __future__ import annotations

from repro.experiments import fig6_strategies, run_sweep
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Fig. 6: inconsistent band shrinks ABORT -> EVICT (28% of ABORT)\n"
    "-> RETRY (23% of ABORT); RETRY also converts aborts into commits"
)


def test_fig6_strategies(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: fig6_strategies.rows(
            run_sweep(fig6_strategies.spec(duration=duration), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 6: strategy comparison (synthetic)"))
    print(PAPER_NOTES)

    table = {row["strategy"]: row for row in rows}
    assert table["EVICT"]["inconsistent_pct"] < 0.7 * table["ABORT"]["inconsistent_pct"]
    assert table["RETRY"]["inconsistent_pct"] < 0.7 * table["ABORT"]["inconsistent_pct"]
    assert table["RETRY"]["aborted_pct"] < table["EVICT"]["aborted_pct"]
    assert table["EVICT"]["aborted_pct"] < table["ABORT"]["aborted_pct"]
    assert (
        table["RETRY"]["consistent_pct"]
        > table["EVICT"]["consistent_pct"]
        > table["ABORT"]["consistent_pct"]
    )
