"""Integration test: invalidation-pipeline outage (§II pathologies).

§II lists the ways invalidations vanish in production — "due to a system
configuration change, buffer saturation, or because of races" — which are
bursty, not i.i.d. This drill cuts the invalidation channel entirely for a
window mid-run and checks the emergent dynamics:

* during the outage the cache drifts stale *coherently* (whole neighbour-
  hoods age together), so inconsistency rises only moderately;
* the inconsistency peak lands right *after* recovery, when resumed
  invalidations mix fresh values with the stale backlog;
* the consistency-unaware baseline serves that peak silently; T-Cache
  detects it, and EVICT drains the backlog visibly faster than ABORT.
"""

from __future__ import annotations

from repro.core.strategies import Strategy
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import build_column
from repro.monitor.stats import ClassCounts
from repro.workloads.synthetic import ParetoClusterWorkload

WORKLOAD = ParetoClusterWorkload(n_objects=300, cluster_size=5, alpha=1.0)
OUTAGE = (8.0, 12.0)
TOTAL = 24.0

BEFORE = (0.0, OUTAGE[0])
DURING = OUTAGE
AFTER = (OUTAGE[1], OUTAGE[1] + 4.0)
TAIL = (TOTAL - 4.0, TOTAL)


def run_with_outage(**config_overrides):
    defaults = dict(seed=77, duration=TOTAL, warmup=0.0, monitor_window=2.0)
    defaults.update(config_overrides)
    column = build_column(ColumnConfig(**defaults), WORKLOAD)
    column.channel.outage(*OUTAGE)
    column.sim.run(until=TOTAL)
    return column


def window_counts(column, window: tuple[float, float]) -> ClassCounts:
    start, end = window
    counts = ClassCounts()
    for window_start, bucket in column.monitor.series.buckets():
        if start <= window_start < end:
            for label in (
                "consistent",
                "inconsistent",
                "aborted_necessary",
                "aborted_unnecessary",
            ):
                setattr(counts, label, getattr(counts, label) + getattr(bucket, label))
    return counts


class TestOutageDrill:
    def test_baseline_peak_lands_after_recovery(self) -> None:
        column = run_with_outage(protocol="plain")
        before = window_counts(column, BEFORE)
        during = window_counts(column, DURING)
        after = window_counts(column, AFTER)
        assert during.aborted == 0
        # Coherent drift: the during-window rise is modest...
        assert during.inconsistency_ratio >= before.inconsistency_ratio
        # ...the real damage is the post-recovery fresh/stale mix.
        assert after.inconsistency_ratio > 1.5 * before.inconsistency_ratio
        assert after.inconsistency_ratio > during.inconsistency_ratio

    def test_tcache_caps_the_peak_the_baseline_serves(self) -> None:
        plain = run_with_outage(protocol="plain")
        tcache = run_with_outage(strategy=Strategy.ABORT, deplist_max=5)
        for window in (BEFORE, DURING, AFTER, TAIL):
            assert (
                window_counts(tcache, window).inconsistency_ratio
                < window_counts(plain, window).inconsistency_ratio
            )
        after = window_counts(tcache, AFTER)
        before = window_counts(tcache, BEFORE)
        # Detection rises to meet the backlog.
        assert after.abort_ratio > before.abort_ratio

    def test_evict_drains_the_backlog_faster_than_abort(self) -> None:
        abort = run_with_outage(strategy=Strategy.ABORT, deplist_max=5)
        evict = run_with_outage(strategy=Strategy.EVICT, deplist_max=5)
        # Both peak after recovery; EVICT's tail recovers further below its
        # own peak and ends cleaner than ABORT's tail.
        abort_peak = window_counts(abort, AFTER).inconsistency_ratio
        abort_tail = window_counts(abort, TAIL).inconsistency_ratio
        evict_peak = window_counts(evict, AFTER).inconsistency_ratio
        evict_tail = window_counts(evict, TAIL).inconsistency_ratio
        assert evict_tail < 0.5 * evict_peak
        assert evict_tail < abort_tail
        assert evict.cache.stats.strategy_evictions > 0
        assert abort_peak > 0  # the drill actually stressed both runs

    def test_channel_accounting_matches_outage(self) -> None:
        column = run_with_outage(protocol="plain")
        stats = column.channel.stats
        # ~20% base loss outside the window plus the 4 s total-loss window
        # (~1/6 of the run): drop ratio clearly above the base rate.
        assert stats.loss_ratio > 0.3
        assert stats.delivered > 0
