"""Single-column (one-edge) experiment runner — a shim over the scenario layer.

Historically this module wired the whole of Figure 2 by hand; with the
scenario redesign the wiring lives in :mod:`repro.scenario.runner`, and the
single-column entry points here build a one-edge
:class:`~repro.scenario.spec.ScenarioSpec` instead. The scenario layer
preserves the historical RNG stream names and transaction-id range for its
first edge, so these shims reproduce the pre-scenario results bit for bit —
all nine figure modules run unchanged on top of them.

:class:`ColumnResult` itself now lives in :mod:`repro.scenario.results` and
is re-exported here under its historical import path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.base import CacheServer
from repro.clients.read_client import ReadOnlyClient
from repro.clients.update_client import UpdateClient
from repro.db.database import Database
from repro.experiments.config import ColumnConfig
from repro.monitor.monitor import ConsistencyMonitor
from repro.scenario.results import ColumnResult
from repro.scenario.runner import build_scenario, collect_column_result
from repro.scenario.spec import ScenarioSpec
from repro.sim.channel import Channel
from repro.sim.core import Simulator
from repro.workloads.base import Workload

__all__ = ["ColumnResult", "run_column", "build_column", "Column"]


@dataclass(slots=True)
class Column:
    """A fully wired column, exposed for integration tests and examples."""

    sim: Simulator
    config: ColumnConfig
    database: Database
    cache: CacheServer
    channel: Channel
    monitor: ConsistencyMonitor
    #: ``None`` when ``config.update_rate`` is 0 (a read-only column).
    update_client: UpdateClient | None
    read_client: ReadOnlyClient


def build_column(
    config: ColumnConfig,
    workload: Workload,
    *,
    read_workload: Workload | None = None,
) -> Column:
    """Wire every component of Figure 2 without running the clock."""
    spec = ScenarioSpec.from_column(config, workload, read_workload=read_workload)
    scenario = build_scenario(spec)
    edge = scenario.edges[0]
    return Column(
        sim=scenario.sim,
        config=config,
        database=scenario.database,
        cache=edge.cache,
        channel=edge.channel,
        monitor=scenario.monitor,
        update_client=edge.update_client,
        read_client=edge.read_client,
    )


def run_column(
    config: ColumnConfig,
    workload: Workload,
    *,
    read_workload: Workload | None = None,
) -> ColumnResult:
    """Run one column to completion and collect its metrics."""
    column = build_column(config, workload, read_workload=read_workload)
    column.sim.run(until=config.total_time)
    return collect_result(column)


def collect_result(column: Column) -> ColumnResult:
    """Extract a :class:`ColumnResult` from a finished column.

    Delegates to the scenario layer's assembler so the single-column and
    per-edge extraction paths cannot drift.
    """
    return collect_column_result(
        column.config.total_time,
        column.monitor.series,
        column.config.warmup,
        cache=column.cache,
        db_stats=column.database.stats,
        channel_stats=column.channel.stats,
        update_client=column.update_client,
        read_client=column.read_client,
    )
