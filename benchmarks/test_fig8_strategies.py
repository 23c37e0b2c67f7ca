"""Figure 8 — ABORT vs EVICT vs RETRY on the realistic workloads (k = 3).

Paper reading: ABORT detects 70 % of inconsistent transactions on the
Amazon workload and 43 % on the less-clustered Orkut workload; EVICT
reduces uncommittable (committed-inconsistent) transactions to 20 % (Amazon)
and 36 % (Orkut) of their ABORT values; RETRY reaches 11 % on Amazon.
"""

from __future__ import annotations

from repro.experiments import fig8_strategies, run_sweep
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Fig. 8: detection 70% (amazon) vs 43% (orkut) under ABORT;\n"
    "EVICT -> 20%/36% of ABORT's inconsistent band; RETRY (amazon) -> 11%"
)


def test_fig8_strategies(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: fig8_strategies.rows(
            run_sweep(fig8_strategies.spec(duration=duration), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 8: strategy comparison (realistic)"))
    print(PAPER_NOTES)

    table = {(row["workload"], row["strategy"]): row for row in rows}

    # Detection ordering and bands (paper: 70% vs 43%).
    amazon_detection = table[("amazon", "ABORT")]["detection_ratio_pct"]
    orkut_detection = table[("orkut", "ABORT")]["detection_ratio_pct"]
    assert amazon_detection > orkut_detection
    assert 55.0 < amazon_detection <= 90.0
    assert 30.0 < orkut_detection < 60.0

    for workload in ("amazon", "orkut"):
        abort = table[(workload, "ABORT")]
        evict = table[(workload, "EVICT")]
        retry = table[(workload, "RETRY")]
        # EVICT shrinks the uncommittable band substantially.
        assert evict["inconsistent_pct"] < 0.75 * abort["inconsistent_pct"]
        # RETRY converts aborts into commits.
        assert retry["aborted_pct"] < evict["aborted_pct"] < abort["aborted_pct"]
        # Consistent-commit rate rises ABORT -> EVICT -> RETRY
        # (abstract: "increases the rate of consistent transactions by
        # 33-58%").
        assert retry["consistent_pct"] > abort["consistent_pct"] * 1.2
