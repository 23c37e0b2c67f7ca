"""Figure 4 — convergence of T-Cache after sudden cluster formation.

Paper timeline: uniform accesses until t = 58 s (dependency lists useless,
~26 % of committed transactions inconsistent, few aborts); perfectly
clustered afterwards (inconsistency collapses within seconds, abort band
appears, consistent-commit rate dips because clustered conflicts are more
frequent).
"""

from __future__ import annotations

from repro.experiments import fig4_convergence, run_sweep
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Fig. 4: before the switch ~26% of commits inconsistent with few\n"
    "aborts; after t=58s detection takes over within seconds"
)


def test_fig4_convergence(benchmark, scale, jobs):
    duration = 160.0 * scale
    switch = 58.0 * scale
    rows = benchmark.pedantic(
        lambda: fig4_convergence.rows(
            run_sweep(
                fig4_convergence.spec(duration=duration, switch_time=switch), jobs=jobs
            )
        ),
        rounds=1,
        iterations=1,
    )
    print()
    stride = max(1, len(rows) // 20)
    print(
        format_table(
            rows[::stride],
            title=f"Figure 4: per-second rates (every {stride}th window)",
        )
    )
    summaries = fig4_convergence.phase_summaries(rows, switch_time=switch)
    print(format_table(
        [
            {"phase": "before switch", **summaries["before"]},
            {"phase": "after switch", **summaries["after"]},
        ],
        title="phase means [txn/s]",
    ))
    print(PAPER_NOTES)

    before, after = summaries["before"], summaries["after"]
    assert before["inconsistent_tps"] > 3 * before["aborted_tps"]
    assert after["inconsistent_tps"] < before["inconsistent_tps"] / 3
    assert after["aborted_tps"] > before["aborted_tps"]
