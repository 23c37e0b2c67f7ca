"""The deterministic perf suite behind ``repro-experiments bench``.

Seven probes, each with a fixed seeded workload so two runs measure the same
work and only the wall clock varies:

* ``column_throughput`` — the reference single-edge column (the same
  configuration as ``benchmarks/test_column_throughput.py``): simulator
  events per wall-second across database, channel, cache, clients and
  monitor.
* ``sgt_checks`` — :class:`~repro.monitor.sgt.SerializationGraphTester`
  record + check rates at growing history sizes. The paper's §V-B2 claim is
  that per-read checking is O(1) in the database/history size: checks/sec
  should *flatten*, not fall off, as the history grows (the workload keeps
  the BFS neighbourhood comparable across sizes).
* ``deplist_merge`` — the §III-A commit-time merge at the paper's k = 5.
* ``scenario`` — a routed two-backend fleet through the full scenario
  layer, the macro check that kernel wins survive composition.
* ``commit_path`` — three-key update transactions straight through
  :meth:`~repro.db.database.Database.execute_update` on a bare simulator
  (2PC, locks, WAL, the k = 5 aggregation; no cache, client or monitor), on
  one participant and on two shards.
* ``kernel_sleep`` — wake-ups/sec of processes that only ``yield delay``,
  on a tie-free and a tie-heavy schedule (the inline and the queued wake).
* ``telemetry_overhead`` — the reference column untraced, then fully traced.

``scale`` shrinks the simulated durations / history sizes for CI smoke runs
(the recorded workload metadata includes it, so payloads are only compared
at matching scale). All workload inputs derive from fixed seeds via
``random.Random`` / the sim's own streams — never the wall clock.
"""

from __future__ import annotations

import math
import os
import platform
import random
import re
import sys
import time

from repro.core.deplist import DependencyList
from repro.db.database import Database, DatabaseConfig
from repro.experiments.config import ColumnConfig
from repro.experiments.runner import build_column
from repro.monitor.sgt import SerializationGraphTester
from repro.scenario import run_scenario
from repro.scenario.library import regional_backends_scenario
from repro.sim.core import Simulator
from repro.types import CommittedTransaction
from repro.workloads.base import key_for
from repro.workloads.synthetic import ParetoClusterWorkload

__all__ = [
    "BENCH_SCHEMA",
    "baseline_series",
    "compare_payloads",
    "run_suite",
    "trajectory_rows",
]

#: Version tag of the bench payload layout.
BENCH_SCHEMA = "repro.bench/v1"


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def bench_column_throughput(scale: float = 1.0) -> dict[str, object]:
    """Events/sec on the reference column (kernel + full §II stack)."""
    duration = 8.0 * scale
    config = ColumnConfig(seed=21, duration=duration, warmup=2.0 * scale)
    workload = ParetoClusterWorkload(n_objects=2000, cluster_size=5, alpha=1.0)
    column = build_column(config, workload)
    start = time.perf_counter()
    column.sim.run(until=config.total_time)
    wall = time.perf_counter() - start
    events = column.sim.events_executed
    return {
        "simulated_seconds": config.total_time,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall else 0.0,
        # Determinism witnesses: identical across runs at one scale.
        "cache_reads": column.cache.stats.reads,
        "read_only_transactions": column.monitor.summary.read_only.total,
    }


def sgt_history(
    n_updates: int, n_keys: int = 2000, seed: int = 1234
) -> tuple[list[CommittedTransaction], dict[str, int], dict[str, int]]:
    """A seeded 2PL-style history: reads see the current version.

    Returns ``(transactions, current version per key, previous version per
    key)`` — the previous-version map feeds bounded-staleness read sets.
    Shared with ``benchmarks/test_micro_overhead.py``.
    """
    rng = random.Random(seed)
    current: dict[str, int] = {}
    previous: dict[str, int] = {}
    txns: list[CommittedTransaction] = []
    for version in range(1, n_updates + 1):
        picks = rng.sample(range(n_keys), 3)
        keys = [f"k{index}" for index in picks]
        reads = {key: current.get(key, 0) for key in keys}
        writes = {key: version for key in keys[:2]}
        txns.append(
            CommittedTransaction(txn_id=version, reads=reads, writes=writes)
        )
        for key in writes:
            previous[key] = current.get(key, 0)
            current[key] = version
    return txns, current, previous


def sgt_read_sets(
    current: dict[str, int],
    previous: dict[str, int],
    n_checks: int,
    k: int = 5,
    seed: int = 99,
) -> list[dict[str, int]]:
    """Read sets with *bounded staleness*: current or previous versions.

    Mirrors what a cache-fed monitor classifies — entries are near-current,
    never the initial load — so the BFS neighbourhood is governed by the
    conflict structure, not by how long the history is. That is the §V-B2
    shape under test: per-check cost O(1) in history size.
    """
    rng = random.Random(seed)
    keys = list(current)
    read_sets = []
    for _ in range(n_checks):
        chosen = rng.sample(keys, min(k, len(keys)))
        read_sets.append(
            {
                key: current[key]
                if rng.random() < 0.7
                else previous.get(key, 0)
                for key in chosen
            }
        )
    return read_sets


def bench_sgt_checks(scale: float = 1.0) -> dict[str, object]:
    """Record + check rates at 10^3 / 10^4 / 10^5-update histories."""
    sizes = [max(100, int(size * scale)) for size in (1_000, 10_000, 100_000)]
    n_checks = max(200, int(2_000 * scale))
    by_size = []
    for n_updates in sizes:
        txns, current, previous = sgt_history(n_updates)
        read_sets = sgt_read_sets(current, previous, n_checks)
        tester = SerializationGraphTester()
        start = time.perf_counter()
        for txn in txns:
            tester.record_update(txn)
        record_wall = time.perf_counter() - start
        inconsistent = 0
        start = time.perf_counter()
        for reads in read_sets:
            if not tester.is_consistent(reads):
                inconsistent += 1
        check_wall = time.perf_counter() - start
        by_size.append(
            {
                "history_size": n_updates,
                "checks": n_checks,
                "record_wall_seconds": record_wall,
                "records_per_sec": n_updates / record_wall if record_wall else 0.0,
                "check_wall_seconds": check_wall,
                "checks_per_sec": n_checks / check_wall if check_wall else 0.0,
                # Determinism witnesses.
                "inconsistent": inconsistent,
                "expansions": tester.expansions,
            }
        )
    return {"by_size": by_size}


def bench_deplist_merge(scale: float = 1.0) -> dict[str, object]:
    """The §III-A merge at the paper's parameters (5 objects, k = 5)."""
    iterations = max(1_000, int(20_000 * scale))
    direct = {f"key{index}": 100 + index for index in range(5)}
    inherited = [
        DependencyList.from_pairs(
            [(f"obj{index}-{position}", position + 1) for position in range(5)]
        )
        for index in range(5)
    ]
    start = time.perf_counter()
    for _ in range(iterations):
        DependencyList.merge(direct, inherited, max_len=5, exclude="key0")
    wall = time.perf_counter() - start
    return {
        "iterations": iterations,
        "wall_seconds": wall,
        "merges_per_sec": iterations / wall if wall else 0.0,
    }


def bench_scenario(scale: float = 1.0) -> dict[str, object]:
    """A routed two-backend fleet through the scenario layer."""
    spec = regional_backends_scenario(
        regions=2,
        edges_per_region=2,
        objects_per_region=200,
        shards=2,
        duration=3.0 * scale,
        warmup=1.0 * scale,
        seed=17,
    )
    start = time.perf_counter()
    result = run_scenario(spec)
    wall = time.perf_counter() - start
    return {
        "edges": len(result.edges),
        "backends": len(result.backends),
        "wall_seconds": wall,
        "read_only_transactions": result.fleet.counts.total,
        "transactions_per_wall_sec": (
            result.fleet.counts.total / wall if wall else 0.0
        ),
    }


def bench_commit_path(scale: float = 1.0) -> dict[str, object]:
    """Commits/sec of the 2PC commit path alone.

    A launcher submits three-key read-all-write-all transactions (three
    objects of one five-object cluster, so the k = 5 lists fill up) 600 times
    a simulated second, the ``column_write`` rate, to a database with default
    phase timing and nothing attached: no cache, channel, client or monitor.
    ``one_participant`` keeps every key on one shard; ``two_shards`` spreads
    them, so most transactions prepare and commit at two participants.
    ``commits``, ``aborts`` and ``events`` are the determinism witnesses.
    """
    transactions = max(200, int(20_000 * scale))
    keys = [key_for(index) for index in range(2000)]

    def run(shards: int) -> dict[str, object]:
        sim = Simulator()
        database = Database(sim, DatabaseConfig(shards=shards, deplist_max=5))
        database.load({key: 0 for key in keys})
        rng = random.Random(15)

        def launcher():
            for index in range(transactions):
                cluster = 5 * rng.randrange(len(keys) // 5)
                group = [keys[cluster + offset] for offset in rng.sample(range(5), 3)]
                database.execute_update(
                    read_keys=group, writes={key: index for key in group}
                )
                yield 1.0 / 600.0

        sim.process(launcher())
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        commits = database.stats.committed
        return {
            "transactions": transactions,
            "commits": commits,
            "aborts": database.stats.aborted,
            "events": sim.events_executed,
            "wall_seconds": wall,
            "commits_per_sec": commits / wall if wall else 0.0,
        }

    return {"one_participant": run(1), "two_shards": run(2)}


def bench_kernel_sleep(scale: float = 1.0) -> dict[str, object]:
    """Wake-ups/sec of processes that do nothing but ``yield delay``.

    Sixteen sleepers, two schedules, so both ends of
    :meth:`~repro.sim.process.Process._wake` are on the trajectory:
    ``tie_free`` gives every process its own irrational multiple of a
    millisecond, so no two wake-ups share an instant and each resumes in
    the dispatch that popped it; ``tie_heavy`` gives all of them the same
    delay, so every wake-up finds a peer due at the same instant and takes
    its slot in the immediate FIFO. ``events`` is the determinism witness:
    two per wake-up plus one start per process on either schedule.
    """
    rounds = max(50, int(12_500 * scale))

    def sleeper(delay: float):
        for _ in range(rounds):
            yield delay

    def run(delays: list[float]) -> dict[str, object]:
        sim = Simulator()
        for delay in delays:
            sim.process(sleeper(delay))
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        wakeups = rounds * len(delays)
        return {
            "wakeups": wakeups,
            "events": sim.events_executed,
            "wall_seconds": wall,
            "wakeups_per_sec": wakeups / wall if wall else 0.0,
        }

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    return {
        "tie_free": run([0.001 * math.sqrt(prime) for prime in primes]),
        "tie_heavy": run([0.001] * len(primes)),
    }


def bench_telemetry_overhead(scale: float = 1.0) -> dict[str, object]:
    """The same seeded column with telemetry off, then fully traced.

    The off run takes the production fast path (``sim._tracer is None``);
    the on run captures every category into a live
    :class:`~repro.telemetry.Tracer`. Both must execute the *same* event
    count — instrumentation observes the simulation, never steers it —
    recorded as a determinism witness. The off rate is what the committed
    ``column events/sec`` trajectory polices across PRs; ``overhead_ratio``
    (off rate / on rate) documents what full tracing costs when you ask
    for it.
    """
    from repro import telemetry

    duration = 4.0 * scale

    def one_column():
        config = ColumnConfig(seed=23, duration=duration, warmup=1.0 * scale)
        workload = ParetoClusterWorkload(
            n_objects=2000, cluster_size=5, alpha=1.0
        )
        column = build_column(config, workload)
        start = time.perf_counter()
        column.sim.run(until=config.total_time)
        return column.sim.events_executed, time.perf_counter() - start

    untraced_events, untraced_wall = one_column()
    with telemetry.capture("bench") as tracer:
        traced_events, traced_wall = one_column()
        trace_records = len(tracer.records)
    untraced_rate = untraced_events / untraced_wall if untraced_wall else 0.0
    traced_rate = traced_events / traced_wall if traced_wall else 0.0
    return {
        "simulated_seconds": duration,
        "events": untraced_events,
        "events_match": untraced_events == traced_events,
        "trace_records": trace_records,
        "untraced_wall_seconds": untraced_wall,
        "traced_wall_seconds": traced_wall,
        "untraced_events_per_sec": untraced_rate,
        "traced_events_per_sec": traced_rate,
        "overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
    }


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def run_suite(scale: float = 1.0) -> dict[str, object]:
    """Run every probe and return the schema'd payload."""
    if not 0.0 < scale <= 4.0:
        raise ValueError(f"bench scale must be in (0, 4], got {scale}")
    results = {
        "column_throughput": bench_column_throughput(scale),
        "sgt_checks": bench_sgt_checks(scale),
        "deplist_merge": bench_deplist_merge(scale),
        "scenario": bench_scenario(scale),
        "commit_path": bench_commit_path(scale),
        "kernel_sleep": bench_kernel_sleep(scale),
        # These three are absent from older committed baselines;
        # compare_payloads and trajectory_rows only walk _HEADLINE_METRICS,
        # so the series stays comparable across the additions.
        "telemetry_overhead": bench_telemetry_overhead(scale),
    }
    return {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
    }


#: (label, extractor) pairs of the headline rates a baseline diff compares.
_HEADLINE_METRICS = (
    ("column events/sec", lambda r: r["column_throughput"]["events_per_sec"]),
    (
        "sgt checks/sec @largest",
        lambda r: r["sgt_checks"]["by_size"][-1]["checks_per_sec"],
    ),
    (
        "sgt records/sec @largest",
        lambda r: r["sgt_checks"]["by_size"][-1]["records_per_sec"],
    ),
    ("deplist merges/sec", lambda r: r["deplist_merge"]["merges_per_sec"]),
    (
        "scenario txns/wall-sec",
        lambda r: r["scenario"]["transactions_per_wall_sec"],
    ),
)


def compare_payloads(
    current: dict, baseline: dict, *, tolerance: float = 0.5
) -> list[dict[str, object]]:
    """Headline-rate drift of ``current`` against a recorded ``baseline``.

    Returns one row per metric with the ratio and a ``regressed`` flag set
    when current is slower than ``(1 - tolerance) x baseline`` — the CI
    smoke job prints these report-only (machines differ; the committed
    baseline documents a trajectory, it is not a hard gate). Payloads from
    different scales are refused: the workloads differ.
    """
    if current.get("scale") != baseline.get("scale"):
        raise ValueError(
            f"bench scales differ: current {current.get('scale')} vs "
            f"baseline {baseline.get('scale')}; run with --bench-scale "
            f"{baseline.get('scale')} to compare"
        )
    rows: list[dict[str, object]] = []
    for label, extract in _HEADLINE_METRICS:
        now = float(extract(current["results"]))
        then = float(extract(baseline["results"]))
        if then:
            ratio = now / then
        else:
            # Nothing to compare against (e.g. a smoke scale too small to
            # commit any transaction): equal-zero is parity, not a blow-up.
            ratio = 1.0 if now == 0 else math.inf
        rows.append(
            {
                "metric": label,
                "current": round(now, 1),
                "baseline": round(then, 1),
                "ratio": round(ratio, 3),
                "regressed": ratio < (1.0 - tolerance),
            }
        )
    return rows


_BASELINE_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def baseline_series(directory: str) -> list[str]:
    """The committed ``BENCH_<n>.json`` series in ``directory``, oldest first.

    Ordering is numeric on ``<n>`` (the PR number that recorded the
    payload), not lexicographic, so ``BENCH_10`` sorts after ``BENCH_9``.
    """
    entries: list[tuple[int, str]] = []
    for name in os.listdir(directory):
        match = _BASELINE_NAME.match(name)
        if match:
            entries.append((int(match.group(1)), os.path.join(directory, name)))
    entries.sort()
    return [path for _, path in entries]


def trajectory_rows(
    series: list[tuple[str, dict]], *, tolerance: float = 0.5
) -> list[dict[str, object]]:
    """Headline metrics across a whole baseline series, oldest -> newest.

    ``series`` holds ``(label, payload)`` pairs in trajectory order —
    typically every committed ``BENCH_<n>.json`` plus the run just
    finished. One row per headline metric, one column per point, plus the
    cumulative newest/oldest ratio and the same report-only ``regressed``
    flag as :func:`compare_payloads`. All points must share one scale: the
    trajectory documents one workload's history, not a mix.
    """
    if not series:
        raise ValueError("bench trajectory needs at least one payload")
    scales = {payload.get("scale") for _, payload in series}
    if len(scales) > 1:
        raise ValueError(
            f"bench scales differ along the trajectory: {sorted(scales, key=str)}; "
            "a series only documents drift at one scale"
        )
    rows: list[dict[str, object]] = []
    for label, extract in _HEADLINE_METRICS:
        values = [float(extract(payload["results"])) for _, payload in series]
        first, last = values[0], values[-1]
        if first:
            ratio = last / first
        else:
            ratio = 1.0 if last == 0 else math.inf
        row: dict[str, object] = {"metric": label}
        for (point_label, _), value in zip(series, values):
            row[point_label] = round(value, 1)
        row["total_ratio"] = round(ratio, 3)
        row["regressed"] = ratio < (1.0 - tolerance)
        rows.append(row)
    return rows
