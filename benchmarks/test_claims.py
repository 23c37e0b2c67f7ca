"""The paper's claims, one row each, against one run of each sweep.

``SWEEPS`` regenerates each artifact of the evaluation: Figures 3-8, the
Theorem 1 configuration, the sensitivity sweeps and two ablations.
``CLAIMS`` holds one row per claim: an id, the paper reference, the
paper's text, the sweeps it reads and the predicate on their rows.

Each sweep runs once per session at ``REPRO_BENCH_SCALE``, timed by
``test_sweep[<sweep>]`` (one pytest-benchmark entry per figure), which
also prints its rows beside the paper's text. Each ``test_claim[<id>]``
reads that cached result; a claim selected on its own runs the sweeps it
needs. To check one claim::

    python -m pytest benchmarks/test_claims.py -k fig8-detection-amazon
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core.deplist import PRUNING_POLICIES
from repro.core.strategies import Strategy
from repro.experiments import (
    fig3_alpha,
    fig4_convergence,
    fig5_drift,
    fig6_strategies,
    fig7_realistic,
    fig8_strategies,
    run_sweep,
    sensitivity,
    theorem1,
)
from repro.experiments.config import ColumnConfig
from repro.experiments.realistic import WORKLOAD_NAMES as WORKLOADS
from repro.experiments.realistic import realistic_workload, sampled_topology
from repro.experiments.report import format_table
from repro.experiments.runner import run_column
from repro.workloads.graphs import topology_stats
from repro.workloads.sampling import random_walk_sample
from repro.workloads.synthetic import DriftingClusterWorkload

Rows = list[dict[str, object]]


@dataclass(frozen=True)
class Sweep:
    title: str
    #: The columns a claim looks a row up by (none: the sweep has one row).
    key: tuple[str, ...]
    #: ``run(scale, jobs)`` -> rows.
    run: Callable[[float, int], Rows]

    def table(self, rows: Rows):
        """Rows by key: one column is the plain value, several a tuple."""
        if not self.key:
            (row,) = rows
            return row
        if len(self.key) == 1:
            return {row[self.key[0]]: row for row in rows}
        return {tuple(row[column] for column in self.key): row for row in rows}


@dataclass(frozen=True)
class Claim:
    id: str
    ref: str
    paper: str
    #: The sweeps whose tables ``holds`` takes, in order.
    sweeps: tuple[str, ...]
    holds: Callable[..., bool]


# --- the sweeps: each at the spec and duration its figure benchmark ran -------


def swept(module_rows: Callable, make_spec: Callable, fraction: float = 1.0):
    """A figure module's ``rows(run_sweep(spec(duration=...)))``, 30 s x scale."""

    def run(scale: float, jobs: int) -> Rows:
        spec = make_spec(duration=30.0 * scale * fraction)
        return module_rows(run_sweep(spec, jobs=jobs))

    return run


def fig4_phases(scale: float, jobs: int) -> Rows:
    switch = 58.0 * scale
    spec = fig4_convergence.spec(duration=160.0 * scale, switch_time=switch)
    series = fig4_convergence.rows(run_sweep(spec, jobs=jobs))
    summaries = fig4_convergence.phase_summaries(series, switch_time=switch)
    return [{"phase": phase, **summaries[phase]} for phase in ("before", "after")]


def fig5_profile(scale: float, jobs: int) -> Rows:
    shift = 180.0 * scale
    spec = fig5_drift.spec(
        duration=800.0 * scale, shift_interval=shift, window=5.0 * scale
    )
    rows = fig5_drift.rows(run_sweep(spec, jobs=jobs))
    return [fig5_drift.shift_spike_profile(rows, shift, settle=shift / 6)]


def fig7ab_topologies(scale: float, jobs: int) -> Rows:
    """Both stand-in samples at the paper's 1000 nodes and its display 500."""
    rows = []
    for name in WORKLOADS:
        sample = sampled_topology(name)
        display = random_walk_sample(sample, 500, np.random.default_rng(5))
        for target, graph in ((1000, sample), (500, display)):
            stats = topology_stats(graph).as_row()
            rows.append({"workload": name, "nodes_target": target, **stats})
    return rows


def theorem1_rows(scale: float, jobs: int) -> Rows:
    spec = theorem1.spec(duration=max(30.0 * scale * 0.67, 10.0))
    return theorem1.rows(run_sweep(spec, jobs=jobs))


def pruning_ablation(scale: float, jobs: int) -> Rows:
    """LRU against newest-version and random pruning (k = 3, ABORT) on the
    drifting-cluster workload, where adaptivity is stressed, and on the
    retailer workload."""
    duration = 30.0 * scale
    workloads = {
        "drifting-clusters": DriftingClusterWorkload(
            n_objects=1000, cluster_size=5, shift_interval=duration / 4
        ),
        "amazon": realistic_workload("amazon"),
    }
    rows = []
    for policy in PRUNING_POLICIES:
        for name, workload in workloads.items():
            config = ColumnConfig(
                seed=31, duration=duration, warmup=5.0, deplist_max=3,
                pruning_policy=policy, strategy=Strategy.ABORT,
            )
            result = run_column(config, workload)
            rows.append({
                "policy": policy,
                "workload": name,
                "detection_pct": round(100.0 * result.detection_ratio, 1),
                "inconsistency_pct": round(100.0 * result.inconsistency_ratio, 2),
            })
    return rows


def multiversion_comparison(scale: float, jobs: int) -> Rows:
    """RETRY against the multiversion cache (k = 3) on both realistic
    workloads. With bounded lists version selection is best-effort, so a
    slice of its salvaged commits is stale but undetected."""
    base = ColumnConfig(seed=17, duration=30.0 * scale, warmup=5.0, deplist_max=3)
    caches = {
        "RETRY": replace(base, strategy=Strategy.RETRY),
        "MULTIVERSION": replace(base, protocol="multiversion"),
    }
    rows = []
    for name in WORKLOADS:
        workload = realistic_workload(name)
        for label, config in caches.items():
            shares = run_column(config, workload).class_shares()
            aborted = shares["aborted_necessary"] + shares["aborted_unnecessary"]
            rows.append({
                "workload": name,
                "cache": label,
                "consistent_pct": round(100.0 * shares["consistent"], 2),
                "inconsistent_pct": round(100.0 * shares["inconsistent"], 2),
                "aborted_pct": round(100.0 * aborted, 2),
            })
    return rows


SWEEPS: dict[str, Sweep] = {
    "fig3": Sweep(
        "Figure 3: detection ratio vs Pareto alpha", ("alpha",),
        swept(fig3_alpha.rows, fig3_alpha.spec),
    ),
    "fig4": Sweep("Figure 4: phase means [txn/s]", ("phase",), fig4_phases),
    "fig5": Sweep("Figure 5: post-shift vs settled inconsistency", (), fig5_profile),
    "fig6": Sweep(
        "Figure 6: strategy comparison (synthetic)", ("strategy",),
        swept(fig6_strategies.rows, fig6_strategies.spec),
    ),
    "fig7ab": Sweep(
        "Figure 7ab: topology statistics", ("workload", "nodes_target"),
        fig7ab_topologies,
    ),
    "fig7c": Sweep(
        "Figure 7c: dependency-list sweep", ("workload", "deplist_max"),
        swept(fig7_realistic.deplist_rows, fig7_realistic.deplist_spec),
    ),
    "fig7d": Sweep(
        "Figure 7d: TTL sweep", ("workload", "ttl"),
        swept(fig7_realistic.ttl_rows, fig7_realistic.ttl_spec),
    ),
    "fig8": Sweep(
        "Figure 8: strategy comparison (realistic)", ("workload", "strategy"),
        swept(fig8_strategies.rows, fig8_strategies.spec),
    ),
    "theorem1": Sweep(
        "Theorem 1: unbounded-resource runs", ("workload",), theorem1_rows
    ),
    "sensitivity-cluster": Sweep(
        "Sensitivity: cluster size vs k", ("cluster_size", "deplist_max"),
        swept(
            sensitivity.cluster_size_vs_k_rows, sensitivity.cluster_size_vs_k_spec, 0.5
        ),
    ),
    "sensitivity-loss": Sweep(
        "Sensitivity: invalidation loss rate", ("loss_pct",),
        swept(sensitivity.loss_rows, sensitivity.loss_spec, 0.5),
    ),
    "sensitivity-pressure": Sweep(
        "Sensitivity: update pressure", ("update_rate",),
        swept(sensitivity.update_pressure_rows, sensitivity.update_pressure_spec, 0.5),
    ),
    "ablation-pruning": Sweep(
        "Ablation: dependency-list pruning policy (k=3)", ("policy", "workload"),
        pruning_ablation,
    ),
    "extension-multiversion": Sweep(
        "Extension: RETRY vs multiversion T-Cache (k=3)", ("workload", "cache"),
        multiversion_comparison,
    ),
}


# --- the claims ---------------------------------------------------------------

DETECTED = "detected_inconsistencies_pct"
INCONSISTENT = "inconsistent_pct"
RATIO = "inconsistency_ratio_pct"
DB_LOAD = "db_rate_normed_pct"


def col(table: dict, column: str) -> list:
    """One column of a table, in sweep order."""
    return [row[column] for row in table.values()]


def apart(values: list, step: int = 1):
    """Each value paired with the one ``step`` places later."""
    return zip(values, values[step:])


def fig7c_column(table: dict, workload: str, column: str) -> list:
    """One workload's column for k = 0..5."""
    return [table[workload, k][column] for k in range(6)]


def shrinks(table: dict, workload: str, strategy: str) -> bool:
    """``strategy`` leaves under 75 % of ABORT's committed-inconsistent band."""
    abort = table[workload, "ABORT"][INCONSISTENT]
    return table[workload, strategy][INCONSISTENT] < 0.75 * abort


def saturated(table: dict, size: int) -> float:
    """The lowest detection ratio once ``k >= cluster size - 1``."""
    return min(
        row["detection_pct"]
        for (cluster, k), row in table.items()
        if cluster == size and k >= size - 1
    )


CLAIMS: list[Claim] = [
    Claim(
        "fig3-low-at-uniform", "§V-A, Fig. 3", "detection ~0-10% at alpha = 1/32",
        ("fig3",), lambda t: t[1 / 32][DETECTED] < 30.0,
    ),
    Claim(
        "fig3-perfect-at-alpha-4", "§V-A, Fig. 3",
        "'at alpha=4 ... allowing for perfect inconsistency detection'",
        ("fig3",), lambda t: t[4.0][DETECTED] > 95.0,
    ),
    Claim(
        "fig3-monotone", "§V-A, Fig. 3",
        "detection rises with alpha (no point 5 below the point two before it)",
        ("fig3",),
        lambda t: all(b >= a - 5.0 for a, b in apart(col(t, DETECTED), 2)),
    ),
    Claim(
        "fig3-rises-through-alpha-1", "§V-A, Fig. 3",
        "a steep rise through alpha ~ 1: alpha = 1/32 < 1 < 4",
        ("fig3",),
        lambda t: t[1 / 32][DETECTED] < t[1.0][DETECTED] < t[4.0][DETECTED],
    ),
    Claim(
        "fig4-few-aborts-before", "§V-A, Fig. 4",
        "before t = 58 s ~26% of commits are inconsistent, with few aborts",
        ("fig4",),
        lambda t: t["before"]["inconsistent_tps"] > 3 * t["before"]["aborted_tps"],
    ),
    Claim(
        "fig4-inconsistency-collapses", "§V-A, Fig. 4",
        "after the switch detection takes over within seconds",
        ("fig4",),
        lambda t: t["after"]["inconsistent_tps"] < t["before"]["inconsistent_tps"] / 3,
    ),
    Claim(
        "fig4-aborts-appear", "§V-A, Fig. 4",
        "an abort band appears once clusters form",
        ("fig4",), lambda t: t["after"]["aborted_tps"] > t["before"]["aborted_tps"],
    ),
    Claim(
        "fig5-spikes-after-shift", "§V-A, Fig. 5",
        "inconsistency spikes to ~1.5-2.5% right after each 3-minute shift",
        ("fig5",), lambda p: p["post_shift_mean_pct"] > 2 * p["settled_mean_pct"],
    ),
    Claim(
        "fig5-converges-between-shifts", "§V-A, Fig. 5",
        "and converges back toward zero between shifts",
        ("fig5",), lambda p: p["settled_mean_pct"] < 1.5,
    ),
    Claim(
        "fig6-evict-shrinks-inconsistent", "§V-A, Fig. 6",
        "EVICT cuts the inconsistent band to 28% of ABORT's",
        ("fig6",),
        lambda t: t["EVICT"][INCONSISTENT] < 0.7 * t["ABORT"][INCONSISTENT],
    ),
    Claim(
        "fig6-retry-shrinks-inconsistent", "§V-A, Fig. 6",
        "RETRY cuts the inconsistent band to 23% of ABORT's",
        ("fig6",),
        lambda t: t["RETRY"][INCONSISTENT] < 0.7 * t["ABORT"][INCONSISTENT],
    ),
    Claim(
        "fig6-aborts-fall", "§V-A, Fig. 6",
        "RETRY converts aborts into commits: aborts fall ABORT -> EVICT -> RETRY",
        ("fig6",),
        lambda t: t["RETRY"]["aborted_pct"]
        < t["EVICT"]["aborted_pct"]
        < t["ABORT"]["aborted_pct"],
    ),
    Claim(
        "fig6-consistent-rises", "§V-A, Fig. 6",
        "consistent commits rise ABORT -> EVICT -> RETRY",
        ("fig6",),
        lambda t: t["RETRY"]["consistent_pct"]
        > t["EVICT"]["consistent_pct"]
        > t["ABORT"]["consistent_pct"],
    ),
    Claim(
        "fig7ab-amazon-more-clustered", "§V-B1, Fig. 7(a)/(b)",
        "'the Amazon topology more so than the Orkut one' (1000 and 500 nodes)",
        ("fig7ab",),
        lambda t: all(
            t["amazon", n]["mean_clustering"] > 3 * t["orkut", n]["mean_clustering"]
            for n in (1000, 500)
        ),
    ),
    Claim(
        "fig7ab-visibly-clustered", "§V-B1, Fig. 7(a)/(b)",
        "'the graphs are visibly clustered'",
        ("fig7ab",),
        lambda t: all(
            t["amazon", n]["mean_clustering"] > 0.4
            and t["orkut", n]["mean_clustering"] > 0.01
            for n in (1000, 500)
        ),
    ),
    Claim(
        "fig7ab-well-connected", "§V-B1, Fig. 7(a)/(b)", "'yet well-connected'",
        ("fig7ab",), lambda t: max(col(t, "components")) <= 3,
    ),
    Claim(
        "fig7ab-sample-size", "§V-B1, Fig. 7(a)/(b)",
        "random-walk down-sampling reaches the target node count",
        ("fig7ab",), lambda t: all(n == row["nodes"] for (_, n), row in t.items()),
    ),
    Claim(
        "fig7c-falls-with-k", "§V-B2, Fig. 7(c)",
        "inconsistency falls with each added dependency (within 10% noise)",
        ("fig7c",),
        lambda t: all(
            b < 1.1 * a for w in WORKLOADS for a, b in apart(fig7c_column(t, w, RATIO))
        ),
    ),
    Claim(
        "fig7c-falls-strictly-amazon", "§V-B2, Fig. 7(c)",
        "retailer: k=1 -> 56%, k=2 -> 11%, k=3 -> <7% of the k=0 baseline",
        ("fig7c",),
        lambda t: t["amazon", 0][RATIO] > t["amazon", 2][RATIO] > t["amazon", 5][RATIO],
    ),
    Claim(
        "fig7c-total-reduction", "§V-B2, Fig. 7(c)",
        "by k=5 the retailer keeps under 40% of its k=0 inconsistency, the social "
        "network under 45%",
        ("fig7c",),
        lambda t: t["amazon", 5][RATIO] < 0.4 * t["amazon", 0][RATIO]
        and t["orkut", 5][RATIO] < 0.45 * t["orkut", 0][RATIO],
    ),
    Claim(
        "fig7c-hit-ratio-flat", "§V-B2, Fig. 7(c)",
        "the cache hit ratio shows 'no visible effect'",
        ("fig7c",),
        lambda t: all(
            max(fig7c_column(t, w, "hit_ratio")) - min(fig7c_column(t, w, "hit_ratio"))
            < 0.05
            for w in WORKLOADS
        ),
    ),
    Claim(
        "fig7c-db-load-flat", "§V-B2, Fig. 7(c)",
        "the database access rate stays flat (RETRY read-throughs only)",
        ("fig7c",), lambda t: all(t[w, 5][DB_LOAD] < 130.0 for w in WORKLOADS),
    ),
    Claim(
        "fig7c-amazon-benefits-more", "§V-B2, Fig. 7(c)",
        "the social network benefits less than the retailer",
        ("fig7c",),
        lambda t: t["amazon", 3]["vs_baseline_pct"] < t["orkut", 3]["vs_baseline_pct"],
    ),
    Claim(
        "fig7d-short-ttl-cuts-inconsistency", "§V-B2, Fig. 7(d)",
        "the shortest TTL (0.5 s) does reduce inconsistency",
        ("fig7d",),
        lambda t: all(t[w, 0.5][RATIO] < 0.5 * t[w, "inf"][RATIO] for w in WORKLOADS),
    ),
    Claim(
        "fig7d-short-ttl-doubles-db-load", "§V-B2, Fig. 7(d)",
        "'increasing database access rate to more than twice its original load'",
        ("fig7d",), lambda t: all(t[w, 0.5][DB_LOAD] > 200.0 for w in WORKLOADS),
    ),
    Claim(
        "fig7d-short-ttl-costs-hits", "§V-B2, Fig. 7(d)",
        "'Limiting TTL has detrimental effects on cache hit ratio'",
        ("fig7d",),
        lambda t: all(
            t[w, 0.5]["hit_ratio"] < t[w, "inf"]["hit_ratio"] - 0.15 for w in WORKLOADS
        ),
    ),
    Claim(
        "fig7d-long-ttl-no-effect", "§V-B2, Fig. 7(d)",
        "a 30 s TTL accomplishes nothing: staleness repairs itself first",
        ("fig7d",),
        lambda t: all(
            t[w, 30.0][DB_LOAD] < 110.0 and t[w, 30.0][RATIO] > 0.9 * t[w, "inf"][RATIO]
            for w in WORKLOADS
        ),
    ),
    Claim(
        "fig7d-db-load-rises", "§V-B2, Fig. 7(d)",
        "'quickly increasing the database workload' (retailer, TTL 3 s)",
        ("fig7d",),
        lambda t: t["amazon", 3.0][DB_LOAD] > t["amazon", "inf"][DB_LOAD],
    ),
    Claim(
        "fig7d-tcache-dominates-ttl", "§V-B2, Fig. 7(c)/(d)",
        "TTL is strictly dominated: T-Cache (k=3) reaches lower inconsistency at a "
        "fraction of TTL 1 s's database load (retailer)",
        ("fig7c", "fig7d"),
        lambda c, d: c["amazon", 3][RATIO] <= 1.5 * d["amazon", 1.0][RATIO]
        and c["amazon", 3][DB_LOAD] < d["amazon", 1.0][DB_LOAD] / 1.5,
    ),
    Claim(
        "fig8-detection-amazon", "§V-B2, Fig. 8",
        "'With the Amazon workload, ABORT is able to detect 70 %'",
        ("fig8",),
        lambda t: 55.0 < t["amazon", "ABORT"]["detection_ratio_pct"] <= 90.0,
    ),
    Claim(
        "fig8-detection-orkut", "§V-B2, Fig. 8",
        "'with the less-clustered Orkut workload it only detects 43 %'",
        ("fig8",),
        lambda t: 30.0 < t["orkut", "ABORT"]["detection_ratio_pct"] < 60.0,
    ),
    Claim(
        "fig8-amazon-detects-more", "§V-B2, Fig. 8",
        "the better-clustered workload detects more",
        ("fig8",),
        lambda t: t["amazon", "ABORT"]["detection_ratio_pct"]
        > t["orkut", "ABORT"]["detection_ratio_pct"],
    ),
    Claim(
        "fig8-evict-amazon", "§V-B2, Fig. 8",
        "EVICT reduces uncommittable transactions to 20 % (Amazon) of ABORT's",
        ("fig8",), lambda t: shrinks(t, "amazon", "EVICT"),
    ),
    Claim(
        "fig8-evict-orkut", "§V-B2, Fig. 8",
        "EVICT reduces uncommittable transactions to 36 % (Orkut) of ABORT's",
        ("fig8",), lambda t: shrinks(t, "orkut", "EVICT"),
    ),
    Claim(
        "fig8-retry-amazon", "§V-B2, Fig. 8",
        "'In the Amazon workload, RETRY further reduces this value to 11 % of its "
        "value with ABORT'",
        ("fig8",), lambda t: shrinks(t, "amazon", "RETRY"),
    ),
    Claim(
        "fig8-retry-converts-aborts", "§V-B2, Fig. 8",
        "aborts fall ABORT -> EVICT -> RETRY on both workloads",
        ("fig8",),
        lambda t: all(
            t[w, "RETRY"]["aborted_pct"]
            < t[w, "EVICT"]["aborted_pct"]
            < t[w, "ABORT"]["aborted_pct"]
            for w in WORKLOADS
        ),
    ),
    Claim(
        "fig8-consistent-rises", "abstract; §V-B2, Fig. 8",
        "'increases the rate of consistent transactions by 33-58%'",
        ("fig8",),
        lambda t: all(
            t[w, "RETRY"]["consistent_pct"] > 1.2 * t[w, "ABORT"]["consistent_pct"]
            for w in WORKLOADS
        ),
    ),
    Claim(
        "theorem1-zero-inconsistent", "Theorem 1 (Appendix A)",
        "with unbounded cache and dependency lists, every committed read-only "
        "transaction serializes",
        ("theorem1",), lambda t: set(col(t, "inconsistent_commits")) == {0},
    ),
    Claim(
        "theorem1-full-detection", "Theorem 1 (Appendix A)",
        "every inconsistency is detected",
        ("theorem1",), lambda t: set(col(t, "detection_ratio_pct")) == {100.0},
    ),
    Claim(
        "theorem1-enough-commits", "Theorem 1 (Appendix A)",
        "(each run commits enough read-only transactions to mean something)",
        ("theorem1",), lambda t: min(col(t, "committed")) > 1000,
    ),
    Claim(
        "sensitivity-k-saturates", "§III",
        "lists 'roughly the same size as the workload's clusters': detection "
        "saturates once k >= cluster size - 1",
        ("sensitivity-cluster",),
        lambda t: all(saturated(t, size) > 95.0 for size in (3, 5, 8)),
    ),
    Claim(
        "sensitivity-k-starved", "§III",
        "under-provisioned lists (k = 1) leave a detection gap",
        ("sensitivity-cluster",),
        lambda t: all(
            t[size, 1]["detection_pct"] < saturated(t, size) for size in (5, 8)
        ),
    ),
    Claim(
        "sensitivity-loss-baseline-grows", "§V (20% invalidation loss)",
        "without T-Cache, inconsistency grows with the loss rate",
        ("sensitivity-loss",),
        lambda t: t[0.0]["baseline_inconsistency_pct"]
        < t[20.0]["baseline_inconsistency_pct"]
        < t[80.0]["baseline_inconsistency_pct"] + 1e-9,
    ),
    Claim(
        "sensitivity-loss-tcache-holds", "§V (20% invalidation loss)",
        "T-Cache keeps committed inconsistency near zero at every loss rate",
        ("sensitivity-loss",),
        lambda t: max(col(t, "tcache_inconsistency_pct")) < 1.0,
    ),
    Claim(
        "sensitivity-pressure-aborts-rise", "§V-A",
        "more writes, more (correct) aborts",
        ("sensitivity-pressure",),
        lambda t: col(t, "abort_ratio_pct")[0] < col(t, "abort_ratio_pct")[-1],
    ),
    Claim(
        "sensitivity-pressure-detection-holds", "§V-A",
        "detection holds at every update rate",
        ("sensitivity-pressure",), lambda t: max(col(t, "inconsistency_pct")) < 1.0,
    ),
    Claim(
        "ablation-lru-beats-random", "§III-A, §V-A3",
        "LRU pruning beats a no-information order by more than 10 points",
        ("ablation-pruning",),
        lambda t: all(
            t["lru", w]["detection_pct"] > t["random", w]["detection_pct"] + 10.0
            for w in ("drifting-clusters", "amazon")
        ),
    ),
    Claim(
        "ablation-lru-adapts", "§III-A, §V-A3",
        "'Dependencies in a new cluster automatically push out dependencies that "
        "are now outside the cluster'",
        ("ablation-pruning",),
        lambda t: t["lru", "drifting-clusters"]["detection_pct"]
        >= t["newest-version", "drifting-clusters"]["detection_pct"] - 3.0,
    ),
    Claim(
        "extension-multiversion-consistency", "§VI",
        "choosing an older version does not pay for commits with inconsistency",
        ("extension-multiversion",),
        lambda t: all(
            t[w, "MULTIVERSION"][INCONSISTENT] <= 1.5 * t[w, "RETRY"][INCONSISTENT]
            for w in WORKLOADS
        ),
    ),
    Claim(
        "extension-multiversion-fewer-aborts", "§VI",
        "multiversioning 'enables the cache to choose a version that allows a "
        "transaction to commit'",
        ("extension-multiversion",),
        lambda t: all(
            t[w, "MULTIVERSION"]["aborted_pct"] < t[w, "RETRY"]["aborted_pct"]
            for w in WORKLOADS
        ),
    ),
]


@pytest.fixture(scope="session")
def sweep_rows(scale: float, jobs: int) -> Callable[[str], Rows]:
    """One run of each sweep per session, on first use."""

    @functools.cache
    def run(name: str) -> Rows:
        return SWEEPS[name].run(scale, jobs)

    return run


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep(name, benchmark, sweep_rows) -> None:
    rows = benchmark.pedantic(sweep_rows, args=(name,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title=SWEEPS[name].title))
    for claim in CLAIMS:
        if name in claim.sweeps:
            print(f"{claim.id} ({claim.ref}): {claim.paper}")


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim(claim, sweep_rows) -> None:
    rows = {name: sweep_rows(name) for name in claim.sweeps}
    tables = [SWEEPS[name].table(rows[name]) for name in claim.sweeps]
    assert claim.holds(*tables), "\n".join(
        [f"{claim.ref}: {claim.paper}"]
        + [format_table(rows[name], title=SWEEPS[name].title) for name in claim.sweeps]
    )
