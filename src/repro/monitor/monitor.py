"""The consistency monitor: the omniscient observer of Figure 2.

An experiment-only component. It taps every backend database's commit
stream and every cache's finished-transaction stream, classifies each
read-only transaction with a serialization-graph tester, and accumulates
both cumulative counts and a per-window time series. It never influences
the system under test.

Version namespaces
------------------
Versions are commit-sequence numbers *of one backend*: two backends both
allocate versions 1, 2, 3, ... and their orders are unrelated. The monitor
therefore keys every serialization-graph edge by ``(backend, version)``,
realised as one :class:`SerializationGraphTester` per backend namespace —
updates recorded under namespace ``b`` only ever meet read sets observed at
caches wired to ``b``. Single-backend wiring needs no namespace at all: the
default namespace is bound to the first backend that registers, so the
legacy ``add_commit_listener(monitor.record_update)`` hookup stays valid.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.monitor.sgt import SerializationGraphTester
from repro.monitor.stats import (
    ABORTED_NECESSARY,
    ABORTED_UNNECESSARY,
    CONSISTENT,
    INCONSISTENT,
    ClassCounts,
    MonitorSummary,
    TimeSeries,
)
from repro.sim.core import Simulator
from repro.types import (
    CommittedTransaction,
    ReadOnlyTransactionRecord,
    TransactionOutcome,
)

__all__ = ["ConsistencyMonitor"]

#: One place a classification is counted: a summary and its series' buckets.
_View = tuple[MonitorSummary, dict[int, ClassCounts]]


class ConsistencyMonitor:
    """Collects transactions and rigorously detects inconsistencies.

    Wire it up with::

        monitor = ConsistencyMonitor(sim)
        database.add_commit_listener(monitor.record_update)
        cache.add_transaction_listener(monitor.record_read_only)

    For a routed backend tier, tag each stream with its backend namespace::

        for database in databases:
            monitor.bind_backend(database.namespace)
            database.add_commit_listener(
                lambda txn, _b=database.namespace: monitor.record_update(txn, backend=_b)
            )
        cache.add_transaction_listener(
            lambda rec: monitor.record_read_only(rec, source="edge0", backend="eu")
        )
    """

    def __init__(self, sim: Simulator, *, window: float = 1.0) -> None:
        #: Tester of the default namespace (legacy single-backend wiring,
        #: and the first backend bound via :meth:`bind_backend`).
        self.tester = SerializationGraphTester()
        self._testers: dict[str | None, SerializationGraphTester] = {
            None: self.tester
        }
        self._default_namespace_bound = False
        #: The run's tracer (None untraced), read once at construction.
        self._tracer = sim.tracer
        self.summary = MonitorSummary()
        self.series = TimeSeries(window=window)
        #: Per-source (per-edge) views, keyed by the ``source`` tag passed to
        #: :meth:`record_read_only`. One shared monitor classifies the whole
        #: fleet while each edge keeps its own summary and time series.
        self.source_summaries: dict[str, MonitorSummary] = {}
        self.source_series: dict[str, TimeSeries] = {}
        #: Per-backend views, keyed by the ``backend`` namespace. These
        #: count read-only classifications only; update-commit counts per
        #: backend come from each backend's own ``DatabaseStats``.
        self.backend_summaries: dict[str, MonitorSummary] = {}
        self.backend_series: dict[str, TimeSeries] = {}
        #: Witnesses of committed-inconsistent transactions, for debugging
        #: and tests (bounded to avoid unbounded growth in long runs).
        self.inconsistency_witnesses: list[ReadOnlyTransactionRecord] = []
        self._witness_limit = 100
        #: ``(source, backend)`` -> the tester and the ``(summary, series
        #: buckets)`` views one classification lands in; see :meth:`_bind`.
        self._bindings: dict[
            tuple[str | None, str | None],
            tuple[SerializationGraphTester, tuple[_View, ...]],
        ] = {}

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------

    def bind_backend(self, backend: str) -> SerializationGraphTester:
        """Declare a backend version namespace; returns its tester.

        The first backend bound shares the default namespace's tester, so
        streams recorded without a ``backend`` tag (the legacy wiring) and
        streams tagged with that backend's name land in the same graph.
        Every later backend gets its own independent tester.
        """
        tester = self._testers.get(backend)
        if tester is None:
            if not self._default_namespace_bound:
                tester = self.tester
                tester.namespace = backend
                self._default_namespace_bound = True
            else:
                tester = SerializationGraphTester(namespace=backend)
            self._testers[backend] = tester
        return tester

    def tester_for(self, backend: str | None) -> SerializationGraphTester:
        """The serialization-graph tester of one backend namespace.

        Unknown names raise instead of lazily creating a tester: a typo'd
        backend tag would otherwise classify reads against an empty history
        — everything trivially consistent — and silently zero that stream's
        inconsistency. Declare namespaces with :meth:`bind_backend` during
        wiring, as the scenario runner does.
        """
        if backend is None:
            return self.tester
        tester = self._testers.get(backend)
        if tester is None:
            raise SimulationError(
                f"unknown backend namespace {backend!r} (bound: "
                f"{self.backend_namespaces}); call bind_backend() during "
                "wiring before recording tagged streams"
            )
        return tester

    @property
    def backend_namespaces(self) -> list[str]:
        """Every named backend namespace, in bind order."""
        return [name for name in self._testers if name is not None]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def record_update(
        self, txn: CommittedTransaction, backend: str | None = None
    ) -> None:
        """Add one committed update transaction to ``backend``'s history."""
        self.tester_for(backend).record_update(txn)
        self.summary.update_commits += 1

    def record_read_only(
        self,
        record: ReadOnlyTransactionRecord,
        source: str | None = None,
        backend: str | None = None,
    ) -> None:
        """Classify one finished read-only transaction.

        ``source`` optionally names the edge the transaction ran against;
        tagged records additionally accumulate into that source's own
        summary and series (the scenario runner's per-edge views).
        ``backend`` names the version namespace the record's versions were
        observed in — the transaction is classified against that backend's
        history only, and accumulates into that backend's summary and
        series. The fleet-wide counts stay unified either way.
        """
        binding = self._bindings.get((source, backend))
        if binding is None:
            binding = self._bind(source, backend)
        tester, views = binding
        non_repeatable = record.non_repeatable
        consistent = (not non_repeatable) and tester.is_consistent(record.reads)
        if record.outcome is TransactionOutcome.COMMITTED:
            label = CONSISTENT if consistent else INCONSISTENT
            if not consistent and len(self.inconsistency_witnesses) < self._witness_limit:
                self.inconsistency_witnesses.append(record)
        else:
            label = ABORTED_UNNECESSARY if consistent else ABORTED_NECESSARY
        index = int(record.finish_time / self.series.window)
        for summary, buckets in views:
            if non_repeatable:
                summary.non_repeatable += 1
            summary.read_only.add(label)
            buckets[index].add(label)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                record.finish_time,
                "sgt",
                "check",
                {
                    "txn": record.txn_id,
                    "label": label,
                    "source": source,
                    "backend": backend,
                    "reads": len(record.reads),
                },
            )

    def _bind(
        self, source: str | None, backend: str | None
    ) -> tuple[SerializationGraphTester, tuple[_View, ...]]:
        """Resolve, once per tag pair, where its classifications land.

        Made when the pair records its first transaction, never before: a
        tag's summary and series exist exactly when it classified something.
        """
        tester = self.tester_for(backend)  # raises before any view exists
        views = [(self.summary, self.series._buckets)]
        for tag, summaries, series in (
            (source, self.source_summaries, self.source_series),
            (backend, self.backend_summaries, self.backend_series),
        ):
            if tag is None:
                continue
            if tag not in summaries:
                summaries[tag] = MonitorSummary()
                series[tag] = TimeSeries(window=self.series.window)
            views.append((summaries[tag], series[tag]._buckets))
        binding = self._bindings[(source, backend)] = (tester, tuple(views))
        return binding

    # ------------------------------------------------------------------
    # Convenience accessors used by the experiments
    # ------------------------------------------------------------------

    @property
    def inconsistency_ratio(self) -> float:
        return self.summary.inconsistency_ratio

    @property
    def detection_ratio(self) -> float:
        return self.summary.detection_ratio

    @property
    def abort_ratio(self) -> float:
        return self.summary.abort_ratio
