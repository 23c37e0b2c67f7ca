"""Declarative multi-edge, multi-backend topologies: the scenario layer.

The paper's setting is many edge caches in front of one transactional
backend; this package makes that topology — generalised to a routed tier of
backends — a first-class, declarative input:

* :mod:`repro.scenario.spec` — :class:`EdgeSpec` (one cache + channel +
  client population), :class:`BackendSpec` (one backend database: shards
  and optional per-backend overrides) and :class:`ScenarioSpec` (a
  validated fleet of edges placed on a backend tier, sharing one clock and
  one consistency monitor); ``as_dict``/``from_dict`` round-trip specs
  through JSON.
* :mod:`repro.scenario.runner` — :func:`build_scenario` / :func:`run_scenario`
  wire and execute a fleet: one ``Database`` per backend, each edge routed
  to its placement, per-backend version namespaces at the monitor. A
  one-edge scenario on the default backend reproduces the historical
  single-column runner bit for bit.
* :mod:`repro.scenario.results` — :class:`ColumnResult` (the per-edge view,
  re-exported by :mod:`repro.experiments.runner` under its historical path),
  :class:`BackendAggregates` (per-backend load + consistency split) and
  :class:`ScenarioResult` with :class:`FleetAggregates`.
* :mod:`repro.scenario.library` — ready-made fleets (geo-skewed regions,
  flash crowds, heterogeneous invalidation loss, regional backend tiers,
  hot-backend overload) that the single-column API could not express.

The sweep engine (:mod:`repro.experiments.sweep`) accepts scenario points,
so grids over whole topologies — backend counts and shard counts included —
parallelise exactly like figure columns.
"""

from repro.scenario.library import (
    flash_crowd_scenario,
    geo_skewed_scenario,
    heterogeneous_loss_fleet,
    hot_backend_overload,
    region_failure_drill,
    regional_backends_scenario,
)
from repro.scenario.results import (
    BackendAggregates,
    ColumnResult,
    FleetAggregates,
    ScenarioResult,
)
from repro.scenario.runner import (
    Scenario,
    ScenarioEdge,
    build_scenario,
    run_scenario,
)
from repro.scenario.spec import (
    DEFAULT_BACKEND_NAME,
    BackendSpec,
    EdgeSpec,
    ScenarioSpec,
)

__all__ = [
    "BackendAggregates",
    "BackendSpec",
    "ColumnResult",
    "DEFAULT_BACKEND_NAME",
    "EdgeSpec",
    "FleetAggregates",
    "Scenario",
    "ScenarioEdge",
    "ScenarioResult",
    "ScenarioSpec",
    "build_scenario",
    "flash_crowd_scenario",
    "geo_skewed_scenario",
    "heterogeneous_loss_fleet",
    "hot_backend_overload",
    "region_failure_drill",
    "regional_backends_scenario",
    "run_scenario",
]
