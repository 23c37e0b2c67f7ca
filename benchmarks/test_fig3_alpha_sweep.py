"""Figure 3 — detected inconsistencies vs the Pareto alpha parameter.

Paper series (read off Fig. 3): detection near zero at alpha = 1/32, rising
steeply through alpha ~ 1, reaching ~100 % at alpha = 4.
"""

from __future__ import annotations

from repro.experiments import fig3_alpha, run_sweep
from repro.experiments.report import format_table

PAPER_NOTES = (
    "paper Fig. 3: ~0-10% at alpha=1/32, monotone rise, ~100% at alpha=4;\n"
    "'at alpha=4 ... allowing for perfect inconsistency detection'"
)


def test_fig3_alpha_sweep(benchmark, duration, jobs):
    rows = benchmark.pedantic(
        lambda: fig3_alpha.rows(
            run_sweep(fig3_alpha.spec(duration=duration), jobs=jobs)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 3: detection ratio vs Pareto alpha"))
    print(PAPER_NOTES)

    detected = [row["detected_inconsistencies_pct"] for row in rows]
    # Shape: low at the uniform end, (weakly) rising, perfect at the top.
    assert detected[0] < 30.0
    assert detected[-1] > 95.0
    # Monotone within noise: every point at least as high as the point two
    # positions earlier.
    for index in range(2, len(detected)):
        assert detected[index] >= detected[index - 2] - 5.0
