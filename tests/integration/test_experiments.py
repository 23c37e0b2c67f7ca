"""Integration tests: the figure experiments reproduce the paper's shapes.

Durations are reduced relative to the benchmark defaults; the assertions
target the qualitative claims (monotonicity, orderings, crossovers), which
are stable at these scales.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig3_alpha,
    fig4_convergence,
    fig5_drift,
    fig6_strategies,
    fig7_realistic,
    fig8_strategies,
    run_sweep,
    theorem1,
)
from repro.experiments.realistic import topology_rows


@pytest.mark.slow
class TestFig3Shape:
    def test_detection_rises_with_alpha(self) -> None:
        spec = fig3_alpha.spec((1 / 32, 1.0, 4.0), duration=8.0)
        rows = fig3_alpha.rows(run_sweep(spec, jobs=1))
        detected = [row["detected_inconsistencies_pct"] for row in rows]
        assert detected[0] < detected[1] < detected[2]
        assert detected[0] < 35.0
        assert detected[2] > 95.0


@pytest.mark.slow
class TestFig4Shape:
    def test_inconsistency_collapses_after_cluster_formation(self) -> None:
        spec = fig4_convergence.spec(duration=60.0, switch_time=25.0)
        rows = fig4_convergence.rows(run_sweep(spec, jobs=1))
        summary = fig4_convergence.phase_summaries(rows, switch_time=25.0)
        before, after = summary["before"], summary["after"]
        # Before: inconsistencies slip through, few aborts.
        assert before["inconsistent_tps"] > 3 * before["aborted_tps"]
        # After: detection takes over.
        assert after["inconsistent_tps"] < before["inconsistent_tps"] / 3
        assert after["aborted_tps"] > before["aborted_tps"]


@pytest.mark.slow
class TestFig5Shape:
    def test_shifts_cause_spikes_that_converge(self) -> None:
        spec = fig5_drift.spec(
            duration=180.0, shift_interval=45.0, n_objects=1000, window=3.0
        )
        rows = fig5_drift.rows(run_sweep(spec, jobs=1))
        profile = fig5_drift.shift_spike_profile(rows, 45.0, settle=12.0)
        assert profile["post_shift_mean_pct"] > 2 * profile["settled_mean_pct"]


@pytest.mark.slow
class TestFig6Shape:
    def test_strategy_ordering(self) -> None:
        rows = fig6_strategies.rows(
            run_sweep(fig6_strategies.spec(duration=10.0), jobs=1)
        )
        by_name = {row["strategy"]: row for row in rows}
        # EVICT and RETRY leave fewer undetected inconsistencies than ABORT.
        assert by_name["EVICT"]["inconsistent_pct"] < by_name["ABORT"]["inconsistent_pct"]
        assert by_name["RETRY"]["inconsistent_pct"] < by_name["ABORT"]["inconsistent_pct"]
        # RETRY converts aborts into commits.
        assert by_name["RETRY"]["aborted_pct"] < by_name["EVICT"]["aborted_pct"]
        assert by_name["RETRY"]["consistent_pct"] > by_name["ABORT"]["consistent_pct"]


class TestFig7Topologies:
    def test_amazon_is_more_clustered_than_orkut(self) -> None:
        rows = {row["workload"]: row for row in topology_rows(sample_nodes=400)}
        assert rows["amazon"]["mean_clustering"] > 3 * rows["orkut"]["mean_clustering"]
        assert rows["amazon"]["nodes"] == rows["orkut"]["nodes"] == 400


@pytest.mark.slow
class TestFig7cShape:
    def test_inconsistency_falls_with_deplist_size_hit_ratio_flat(self) -> None:
        spec = fig7_realistic.deplist_spec(
            (0, 2, 5), duration=10.0, workloads=("amazon",)
        )
        rows = fig7_realistic.deplist_rows(run_sweep(spec, jobs=1))
        ratios = [row["inconsistency_ratio_pct"] for row in rows]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.4 * ratios[0]
        hit_ratios = [row["hit_ratio"] for row in rows]
        assert max(hit_ratios) - min(hit_ratios) < 0.05  # "no visible effect"

    def test_amazon_benefits_more_than_orkut(self) -> None:
        spec = fig7_realistic.deplist_spec((0, 3), duration=10.0)
        rows = fig7_realistic.deplist_rows(run_sweep(spec, jobs=1))
        remaining = {
            row["workload"]: row["vs_baseline_pct"]
            for row in rows
            if row["deplist_max"] == 3
        }
        assert remaining["amazon"] < remaining["orkut"]


@pytest.mark.slow
class TestFig7dShape:
    def test_ttl_trades_db_load_for_consistency(self) -> None:
        spec = fig7_realistic.ttl_spec(
            (None, 3.0, 0.5), duration=10.0, workloads=("amazon",)
        )
        rows = fig7_realistic.ttl_rows(run_sweep(spec, jobs=1))
        by_ttl = {row["ttl"]: row for row in rows}
        assert by_ttl[0.5]["inconsistency_ratio_pct"] < by_ttl["inf"]["inconsistency_ratio_pct"]
        assert by_ttl[0.5]["db_rate_normed_pct"] > 200.0
        assert by_ttl[3.0]["db_rate_normed_pct"] > by_ttl["inf"]["db_rate_normed_pct"]

    def test_tcache_dominates_ttl(self) -> None:
        """The paper's conclusion: T-Cache reaches lower inconsistency at a
        fraction of the TTL approach's database load."""
        tcache_rows = fig7_realistic.deplist_rows(
            run_sweep(
                fig7_realistic.deplist_spec(
                    (0, 3), duration=10.0, workloads=("amazon",)
                ),
                jobs=1,
            )
        )
        ttl_rows = fig7_realistic.ttl_rows(
            run_sweep(
                fig7_realistic.ttl_spec(
                    (None, 1.0), duration=10.0, workloads=("amazon",)
                ),
                jobs=1,
            )
        )
        tcache = next(r for r in tcache_rows if r["deplist_max"] == 3)
        ttl = next(r for r in ttl_rows if r["ttl"] == 1.0)
        assert tcache["inconsistency_ratio_pct"] <= ttl["inconsistency_ratio_pct"] * 1.5
        assert tcache["db_rate_normed_pct"] < ttl["db_rate_normed_pct"] / 1.5


@pytest.mark.slow
class TestFig8Shape:
    def test_detection_and_strategy_orderings(self) -> None:
        rows = fig8_strategies.rows(
            run_sweep(fig8_strategies.spec(duration=10.0), jobs=1)
        )
        table = {(row["workload"], row["strategy"]): row for row in rows}
        # Amazon detects more than Orkut under ABORT (paper: 70% vs 43%).
        assert (
            table[("amazon", "ABORT")]["detection_ratio_pct"]
            > table[("orkut", "ABORT")]["detection_ratio_pct"]
        )
        assert table[("amazon", "ABORT")]["detection_ratio_pct"] > 55.0
        assert 25.0 < table[("orkut", "ABORT")]["detection_ratio_pct"] < 65.0
        for workload in ("amazon", "orkut"):
            assert (
                table[(workload, "EVICT")]["inconsistent_pct"]
                < table[(workload, "ABORT")]["inconsistent_pct"]
            )
            assert (
                table[(workload, "RETRY")]["aborted_pct"]
                < table[(workload, "EVICT")]["aborted_pct"]
            )


@pytest.mark.slow
class TestTheorem1EndToEnd:
    def test_zero_inconsistent_commits_everywhere(self) -> None:
        rows = theorem1.rows(run_sweep(theorem1.spec(duration=8.0), jobs=1))
        for row in rows:
            assert row["inconsistent_commits"] == 0, row
            assert row["committed"] > 500
