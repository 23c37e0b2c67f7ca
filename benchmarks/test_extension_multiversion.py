"""Extension — multiversion T-Cache (§VI, TxCache-style version selection).

Compares the RETRY strategy against the multiversion cache on the realistic
workloads. Both repair Equation 2 violations by read-through; the
multiversion cache additionally salvages Equation 1 violations by serving a
retained older version that passes the dependency checks — trading freshness
for commit rate, exactly the trade TxCache makes.

Measured caveat worth knowing: with *bounded* dependency lists the version-
selection check is best-effort like every other T-Cache check, so a slice of
the salvaged commits is stale-but-undetected; the abort rate collapses
(≈6x fewer) while the undetected-inconsistency band grows somewhat. With
unbounded lists the salvaged snapshots are provably consistent (the
Theorem 1 machinery applies to whatever version is served).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import realistic_workload
from repro.experiments.report import format_table
from repro.experiments.runner import run_column


def run_comparison(duration: float) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    base = ColumnConfig(seed=17, duration=duration, warmup=5.0, deplist_max=3)
    for name in ("amazon", "orkut"):
        workload = realistic_workload(name)
        retry = run_column(replace(base, strategy=Strategy.RETRY), workload)
        multi = run_column(
            replace(base, protocol="multiversion"), workload
        )
        for label, result in (("RETRY", retry), ("MULTIVERSION", multi)):
            shares = result.class_shares()
            rows.append(
                {
                    "workload": name,
                    "cache": label,
                    "consistent_pct": round(100.0 * shares["consistent"], 2),
                    "inconsistent_pct": round(100.0 * shares["inconsistent"], 2),
                    "aborted_pct": round(
                        100.0
                        * (shares["aborted_necessary"] + shares["aborted_unnecessary"]),
                        2,
                    ),
                    "mv_serves": getattr(
                        result, "retries_resolved", 0
                    ),
                }
            )
    return rows


def test_extension_multiversion(benchmark, duration):
    rows = benchmark.pedantic(lambda: run_comparison(duration), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Extension: RETRY vs multiversion T-Cache (k=3)"))
    print("§VI: multiversioning 'enables the cache to choose a version that")
    print("allows a transaction to commit' — the abort band collapses; with")
    print("bounded lists a slice of salvaged commits is stale-but-undetected")

    table = {(row["workload"], row["cache"]): row for row in rows}
    for workload in ("amazon", "orkut"):
        retry = table[(workload, "RETRY")]
        multi = table[(workload, "MULTIVERSION")]
        # Version selection must not pay for commits with inconsistency.
        assert multi["inconsistent_pct"] <= retry["inconsistent_pct"] * 1.5
        # And must reduce the abort rate.
        assert multi["aborted_pct"] <= retry["aborted_pct"] * 1.1
