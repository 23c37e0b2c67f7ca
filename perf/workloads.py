"""The six workloads of the benchmark and the constants that size them.

Every workload is closed (one driver, at most two compute threads, two
persistent connections) and batch: fixed seeded input, run as fast as
possible. A *unit* is one complete pass over that input; a child process
repeats units until its share of ``--seconds`` is used, so a metric is a
median over units of identical work and an op count repeats exactly.

Sizes are constants, not flags. They are smaller than the figures in the
issue that introduced the benchmark because the driver's contract caps a
whole run (three fresh processes, set-up and verification included) near
20 s: each is chosen so one unit takes 1.1-1.3 s on the recording host
(2 cores), three units fit one child's 4 s measured phase, and the layer the
workload exists for still does most of the work. ``TINY`` holds the
test-only sizes of ``perf/test_perf_harness.py``.

Only public names of ``repro`` are used, and every input derives from
``seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import socket
import tempfile
import threading
import time

from repro.core.strategies import Strategy
from repro.dispatch.client import FleetSpec
from repro.dispatch.codec import encode_result
from repro.dispatch.coordinator import DispatchSpec
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import journal_path
from repro.dispatch.worker import run_worker
from repro.experiments import runner
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed, run_sweep
from repro.monitor.sgt import SerializationGraphTester
from repro.scenario.library import regional_backends_scenario
from repro.scenario.runner import build_scenario, collect_scenario_result
from repro.types import CommittedTransaction
from repro.workloads.synthetic import ParetoClusterWorkload, PerfectClusterWorkload

__all__ = [
    "DEFAULT_SEED",
    "HELD_BACK_SEED",
    "SIZES",
    "TINY",
    "WORKLOADS",
    "UnitCheck",
    "serial_reference",
]

#: Seed of everyday runs. ``HELD_BACK_SEED`` is never used while a change
#: is written; a claim must also hold on it.
DEFAULT_SEED = 21
HELD_BACK_SEED = 1409

#: Where the fleet daemon keeps its journals: inside the checkout.
TMP_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".tmp")
#: Fleet daemon and one-shot coordinator poll tick, and the client's.
POLL_INTERVAL = 0.05
#: Compute threads of the loopback workloads (= ``nproc`` of the host).
WORKERS = 2

SIZES = {
    # Simulated seconds (measured, warm-up). 22 s of the read-heavy column
    # is ~180k events / ~13k transactions.
    "column_read": {"duration": 22.0, "warmup": 3.0},
    # 8 s of the update-heavy column is ~120k events / ~6k transactions.
    "column_write": {"duration": 8.0, "warmup": 2.0},
    "scenario_routed": {"duration": 8.5, "warmup": 2.0},
    # History beyond anything a column builds (<= 3e4), still ~1.25 s.
    "sgt_replay": {"updates": 64_000, "checks": 32_000, "sample": 200},
    # ~5 ms a point serially, ~6 ms through the wire.
    "fleet_loopback": {"points": 220},
    "dispatch_oneshot": {"points": 220},
}

TINY = {
    "column_read": {"duration": 1.0, "warmup": 0.5},
    "column_write": {"duration": 0.5, "warmup": 0.25},
    "scenario_routed": {"duration": 1.0, "warmup": 0.5},
    "sgt_replay": {"updates": 2_000, "checks": 600, "sample": 200},
    "fleet_loopback": {"points": 12},
    "dispatch_oneshot": {"points": 12},
}


@dataclasses.dataclass(slots=True)
class UnitCheck:
    """What verifying one unit of work found."""

    #: Operations the unit completed (exact for a seed).
    ops: int
    #: Operations whose output failed verification.
    failed: int
    #: SHA-256 over the unit's normalised result.
    digest: str
    #: Share of checked read-only transactions (or read sets) judged
    #: consistent, in percent — a simulated statistic, exact for a seed.
    consistent_pct: float
    #: Exact counters by per-layer metric name.
    exact: dict[str, float]
    #: Timings taken inside the unit, by name (host time).
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Loopbacks: one digest per sweep point, for the serial reference.
    points: list[str] | None = None
    #: What went wrong, for the log.
    problems: list[str] = dataclasses.field(default_factory=list)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """SHA-256 of a column or scenario result, run-environment stripped."""
    return _sha(normalized_artifact(encode_result(result)))


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


class Workload:
    """One named workload: set-up, a repeatable unit of work, its check."""

    name = ""
    #: What one op is.
    op = ""
    why = ""

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = seed
        self.size = (TINY if tiny else SIZES)[self.name]

    def setup(self) -> None:
        """Generate inputs from the seed; build what outlives a unit."""

    def run_unit(self, index: int):
        """Do one unit of work (this is what gets timed)."""
        raise NotImplementedError

    def check(self, unit) -> UnitCheck:
        """Verify a finished unit (not timed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what :meth:`setup` started."""

    def constants(self) -> dict[str, object]:
        return dict(self.size)


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


def _testers(monitor) -> list[SerializationGraphTester]:
    testers = [monitor.tester]
    for namespace in monitor.backend_namespaces:
        tester = monitor.tester_for(namespace)
        if all(tester is not seen for seen in testers):
            testers.append(tester)
    return testers


def _check_simulation(sim, monitor, edges, counts, db_stats, digest) -> UnitCheck:
    """Invariants of one finished simulation plus its exact counters.

    ``edges`` are per-edge :class:`ColumnResult`; ``counts`` is the
    measured-window classification of the whole fleet.
    """
    problems = []
    for index, edge in enumerate(edges):
        for label, stats in (
            ("read", edge.read_client_stats),
            ("update", edge.update_client_stats),
        ):
            if stats.committed + stats.aborted > stats.launched:
                problems.append(f"edge {index}: {label} client finished > launched")
    classified = monitor.summary.read_only.total
    bucketed = sum(bucket.total for _, bucket in monitor.series.buckets())
    if classified != bucketed:
        problems.append(f"monitor classified {classified}, series hold {bucketed}")
    if counts.total > classified:
        problems.append("measured window counts exceed the monitor total")
    testers = _testers(monitor)
    if not all(tester.verify_update_dag() for tester in testers):
        problems.append("conflict graph is not a DAG")

    reads = sum(edge.cache_stats.reads for edge in edges)
    hits = sum(edge.cache_stats.hits for edge in edges)
    ops = db_stats.committed + sum(
        edge.cache_stats.transactions_committed for edge in edges
    )
    exact = {
        "sim.events": sim.events_executed,
        "sim.channel.sends": sum(edge.channel_stats.sent for edge in edges),
        "sim.channel.dropped": sum(edge.channel_stats.dropped for edge in edges),
        "cache.read.hit_ratio": hits / reads if reads else 0.0,
        "cache.evictions": sum(
            edge.cache_stats.capacity_evictions
            + edge.cache_stats.strategy_evictions
            + edge.cache_stats.ttl_expirations
            for edge in edges
        ),
        "core.detections": sum(
            edge.detections_eq1 + edge.detections_eq2 for edge in edges
        ),
        "core.useful_abort_ratio": (
            counts.aborted_necessary / counts.aborted if counts.aborted else 0.0
        ),
        "db.commits": db_stats.committed,
        "db.aborts": db_stats.aborted,
        "monitor.sgt.expansions": sum(tester.expansions for tester in testers),
        "result.inconsistent_pct": 100.0 * counts.inconsistency_ratio,
        "result.detected_pct": 100.0 * counts.detection_ratio,
        "result.hit_pct": _pct(hits, reads),
    }
    return UnitCheck(
        ops=ops,
        failed=ops if problems else 0,
        digest=digest,
        consistent_pct=100.0 * (1.0 - counts.inconsistency_ratio),
        exact=exact,
        problems=problems,
    )


class _Column(Workload):
    """The paper's §IV column: one cache, one database, k = 5, ABORT,
    20 % invalidation loss, a cache that holds the whole working set."""

    op = "committed txn"
    read_rate = 0.0
    update_rate = 0.0
    population = {"n_objects": 2000, "cluster_size": 5, "alpha": 1.0}

    def setup(self) -> None:
        self.objects = ParetoClusterWorkload(**self.population)
        self.config = ColumnConfig(
            seed=self.seed,
            duration=self.size["duration"],
            warmup=self.size["warmup"],
            read_rate=self.read_rate,
            update_rate=self.update_rate,
            deplist_max=5,
            strategy=Strategy.ABORT,
            invalidation_loss=0.2,
            cache_capacity=None,
        )

    def run_unit(self, index: int):
        column = runner.build_column(self.config, self.objects)
        column.sim.run(until=self.config.total_time)
        return column, runner.collect_result(column)

    def check(self, unit) -> UnitCheck:
        column, result = unit
        return _check_simulation(
            column.sim,
            column.monitor,
            [result],
            result.counts,
            result.db_stats,
            result_digest(result),
        )

    def constants(self) -> dict[str, object]:
        return {
            **self.size,
            **self.population,
            "read_rate": self.read_rate,
            "update_rate": self.update_rate,
        }


class ColumnRead(_Column):
    name = "column_read"
    why = (
        "read-heavy column (500 reads/s, 100 updates/s): the figure-point unit; "
        "CacheServer.read, detector and monitor do most of the work, hit ~88 %"
    )
    read_rate = 500.0
    update_rate = 100.0


class ColumnWrite(_Column):
    name = "column_write"
    why = (
        "same stack, rates flipped (600 updates/s, 100 reads/s): 2PC, locks, WAL, "
        "deplist merge and invalidation fan-out carry it; the read path is cold"
    )
    read_rate = 100.0
    update_rate = 600.0


class ScenarioRouted(Workload):
    name = "scenario_routed"
    op = "committed txn"
    why = (
        "2 regions x 2 edges over 2 sharded backends, each cache 25 % of its "
        "slice: routing plus the miss and eviction path (hit ~49 %)"
    )

    def setup(self) -> None:
        spec = regional_backends_scenario(
            regions=2,
            edges_per_region=2,
            objects_per_region=200,
            shards=2,
            duration=self.size["duration"],
            warmup=self.size["warmup"],
            seed=self.seed,
        )
        self.spec = dataclasses.replace(
            spec,
            edges=[dataclasses.replace(edge, cache_capacity=50) for edge in spec.edges],
        )

    def run_unit(self, index: int):
        scenario = build_scenario(self.spec)
        scenario.sim.run(until=self.spec.total_time)
        return scenario, collect_scenario_result(scenario)

    def check(self, unit) -> UnitCheck:
        scenario, result = unit
        return _check_simulation(
            scenario.sim,
            scenario.monitor,
            result.edges,
            result.fleet.counts,
            result.db_stats,
            result_digest(result),
        )

    def constants(self) -> dict[str, object]:
        return {
            **self.size,
            "regions": 2,
            "edges_per_region": 2,
            "objects_per_region": 200,
            "shards": 2,
            "cache_capacity": 50,
        }


# ----------------------------------------------------------------------
# Monitor replay
# ----------------------------------------------------------------------


class SgtReplay(Workload):
    name = "sgt_replay"
    op = "record or check"
    why = (
        "a 2PL-style commit log replayed into the serialization-graph tester, "
        "then k=5 read sets checked: the monitor does all the work, the rest none"
    )
    keys = 2000

    def setup(self) -> None:
        rng = random.Random(self.seed)
        current: dict[str, int] = {}
        previous: dict[str, int] = {}
        self.history: list[CommittedTransaction] = []
        for version in range(1, self.size["updates"] + 1):
            keys = [f"k{index}" for index in rng.sample(range(self.keys), 3)]
            reads = {key: current.get(key, 0) for key in keys}
            writes = {key: version for key in keys[:2]}
            self.history.append(
                CommittedTransaction(txn_id=version, reads=reads, writes=writes)
            )
            for key in writes:
                previous[key] = current.get(key, 0)
                current[key] = version
        # Bounded staleness, as a cache-fed monitor sees it: each entry is
        # the current version (70 %) or the one before (30 %).
        written = list(current)
        self.read_sets: list[dict[str, int]] = []
        for _ in range(self.size["checks"]):
            chosen = rng.sample(written, min(5, len(written)))
            self.read_sets.append(
                {
                    key: current[key] if rng.random() < 0.7 else previous[key]
                    for key in chosen
                }
            )

    def run_unit(self, index: int):
        tester = SerializationGraphTester()
        start = time.perf_counter()
        for txn in self.history:
            tester.record_update(txn)
        recorded = time.perf_counter()
        verdicts = [tester.is_consistent(reads) for reads in self.read_sets]
        checked = time.perf_counter()
        return tester, verdicts, recorded - start, checked - recorded

    def check(self, unit) -> UnitCheck:
        tester, verdicts, record_s, check_s = unit
        problems = []
        ops = len(self.history) + len(verdicts)
        expansions = tester.expansions  # explain_inconsistency does not count
        stride = max(1, len(verdicts) // self.size["sample"])
        mismatches = 0
        for position in range(0, len(verdicts), stride):
            witness = tester.explain_inconsistency(self.read_sets[position])
            if (witness is None) != verdicts[position]:
                problems.append(f"read set {position}: verdict and witness disagree")
                mismatches += 1
        failed = mismatches
        if not tester.verify_update_dag():
            problems.append("conflict graph is not a DAG")
            failed = ops
        inconsistent = verdicts.count(False)
        digest = _sha(
            "".join("1" if ok else "0" for ok in verdicts) + f"|{expansions}"
        )
        return UnitCheck(
            ops=ops,
            failed=failed,
            digest=digest,
            consistent_pct=_pct(len(verdicts) - inconsistent, len(verdicts)),
            exact={
                "monitor.sgt.expansions": expansions,
                "result.inconsistent_pct": _pct(inconsistent, len(verdicts)),
            },
            timings={"record_s": record_s, "check_s": check_s},
            problems=problems,
        )

    def constants(self) -> dict[str, object]:
        return {**self.size, "keys": self.keys, "reads": 3, "writes": 2, "k": 5}


# ----------------------------------------------------------------------
# Loopback sweeps
# ----------------------------------------------------------------------


def loopback_spec(seed: int, points: int) -> SweepSpec:
    """``points`` trivial columns: the wire, not the simulation, is the work.

    The monitor window equals the warm-up so that the 0.04 s measured
    window is its own bucket and the points report classification counts.
    """
    objects = PerfectClusterWorkload(n_objects=100, cluster_size=5)
    return SweepSpec(
        name="perf-loopback",
        root_seed=seed,
        points=[
            SweepPoint(
                label=f"p{index}",
                config=ColumnConfig(
                    seed=derive_seed(seed, index),
                    duration=0.04,
                    warmup=0.02,
                    monitor_window=0.02,
                ),
                workload=objects,
            )
            for index in range(points)
        ],
    )


def _sweep_check(results, journal: str | None) -> UnitCheck:
    """Per-point digests and pooled counters of one loopback sweep.

    Whether each point equals the serial run is decided by the parent,
    which holds the ``jobs=1`` reference; a malformed journal fails every
    point here.
    """
    points = [result_digest(result)[:16] for result in results]
    problems = []
    if journal is not None:
        with open(journal, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        indices = sorted(r.get("index") for r in records[1:] if r.get("kind") == "point")
        if (
            not records
            or records[0].get("kind") != "sweep"
            or len(records) != len(points) + 1
            or indices != list(range(len(points)))
        ):
            problems.append("journal is not a header plus each index exactly once")
    committed = sum(result.counts.committed for result in results)
    inconsistent = sum(result.counts.inconsistent for result in results)
    necessary = sum(result.counts.aborted_necessary for result in results)
    aborted = sum(result.counts.aborted for result in results)
    reads = sum(result.cache_stats.reads for result in results)
    hits = sum(result.cache_stats.hits for result in results)
    return UnitCheck(
        ops=len(points),
        failed=len(points) if problems else 0,
        digest=_sha("".join(points)),
        consistent_pct=100.0 - _pct(inconsistent, committed),
        exact={
            "sim.channel.sends": sum(r.channel_stats.sent for r in results),
            "sim.channel.dropped": sum(r.channel_stats.dropped for r in results),
            "cache.read.hit_ratio": hits / reads if reads else 0.0,
            "core.detections": sum(
                r.detections_eq1 + r.detections_eq2 for r in results
            ),
            "core.useful_abort_ratio": necessary / aborted if aborted else 0.0,
            "db.commits": sum(r.db_stats.committed for r in results),
            "db.aborts": sum(r.db_stats.aborted for r in results),
            "result.inconsistent_pct": _pct(inconsistent, committed),
            "result.detected_pct": _pct(necessary, necessary + inconsistent),
            "result.hit_pct": _pct(hits, reads),
        },
        points=points,
        problems=problems,
    )


def serial_reference(name: str, seed: int, *, tiny: bool = False) -> dict | None:
    """The ``jobs=1`` run a loopback workload must equal, point by point.

    ``None`` for workloads that have no cross-executor reference.
    """
    if name not in ("fleet_loopback", "dispatch_oneshot"):
        return None
    points = (TINY if tiny else SIZES)[name]["points"]
    start = time.perf_counter()
    serial = run_sweep(loopback_spec(seed, points), jobs=1)
    wall = time.perf_counter() - start
    return {
        "points": [result_digest(result)[:16] for result in serial.results],
        "wall_s": wall,
    }


def _start_workers(host: str, port: int, **kwargs) -> list[threading.Thread]:
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"perf-worker-{index}", "connect_retry_delay": 0.01}
            | kwargs,
            name=f"perf-worker-{index}",
            daemon=True,
        )
        for index in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    return threads


def _join(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=30.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not stop")


class FleetLoopback(Workload):
    name = "fleet_loopback"
    op = "sweep point"
    why = (
        "trivial points through an in-process fleet daemon (journal, HMAC, "
        "fsync off) and 2 workers: wire, codec, lease queue, auth and journal"
    )
    secret = "perf-loopback"

    def setup(self) -> None:
        self.spec = loopback_spec(self.seed, self.size["points"])
        os.makedirs(TMP_DIR, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(prefix="fleet-", dir=TMP_DIR)
        self.daemon = FleetDaemon(
            FleetConfig(
                journal_dir=self.tmp.name,
                secret=self.secret,
                poll_interval=POLL_INTERVAL,
                fsync=False,
            )
        )
        self.daemon.start()
        self.host, self.port = self.daemon.address
        self.workers = _start_workers(self.host, self.port, secret=self.secret)

    def run_unit(self, index: int):
        sweep_name = f"unit-{index}"
        result = run_sweep(
            self.spec,
            dispatch=FleetSpec(
                host=self.host,
                port=self.port,
                secret=self.secret,
                poll_interval=POLL_INTERVAL,
                # Named per unit: the daemon resumes a sweep it has seen.
                name=sweep_name,
            ),
        )
        return result, journal_path(self.tmp.name, sweep_name)

    def check(self, unit) -> UnitCheck:
        result, journal = unit
        return _sweep_check(result.results, journal)

    def close(self) -> None:
        self.daemon.shutdown()
        _join(self.workers)
        self.tmp.cleanup()

    def constants(self) -> dict[str, object]:
        return {
            **self.size,
            "workers": WORKERS,
            "poll_interval": POLL_INTERVAL,
            "fsync": False,
            "point": "PerfectClusterWorkload(100, 5), 0.04 s + 0.02 s",
        }


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class DispatchOneshot(Workload):
    name = "dispatch_oneshot"
    op = "sweep point"
    why = (
        "the same points through run_sweep(dispatch=DispatchSpec): the "
        "journal-less --dispatch path; beside fleet_loopback it isolates what "
        "journalling and auth cost"
    )

    def setup(self) -> None:
        self.spec = loopback_spec(self.seed, self.size["points"])

    def run_unit(self, index: int):
        port = _free_port()
        workers = _start_workers("127.0.0.1", port)
        try:
            result = run_sweep(
                self.spec,
                dispatch=DispatchSpec(port=port, poll_interval=POLL_INTERVAL),
            )
        finally:
            _join(workers)
        return result

    def check(self, unit) -> UnitCheck:
        return _sweep_check(unit.results, None)

    def constants(self) -> dict[str, object]:
        return {**self.size, "workers": WORKERS, "poll_interval": POLL_INTERVAL}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ColumnRead,
        ColumnWrite,
        ScenarioRouted,
        SgtReplay,
        FleetLoopback,
        DispatchOneshot,
    )
}
