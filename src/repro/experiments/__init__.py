"""Experiment harness: the single-column setup of Figure 2 plus one module
per evaluation figure.

* :mod:`repro.experiments.config` — the experiment knobs (rates, loss,
  dependency-list bound, strategy, cache protocol).
* :mod:`repro.experiments.runner` — builds simulator + database +
  invalidation channel + cache + clients + monitor, runs, collects results.
* :mod:`repro.experiments.fig3_alpha` … :mod:`repro.experiments.fig8_strategies`
  — parameter sweeps reproducing Figures 3–8.
* :mod:`repro.experiments.theorem1` — the unbounded-resources configuration
  of Theorem 1.
* :mod:`repro.experiments.sweep` — the declarative, ``multiprocessing``-backed
  sweep engine every figure module builds its grid on; its points are single
  columns or whole multi-edge scenarios (:mod:`repro.scenario`).
* :mod:`repro.experiments.scenarios` — the CLI's multi-edge scenario
  experiment over the :mod:`repro.scenario.library` fleets.
* :mod:`repro.experiments.report` — plain-text table rendering and JSON
  artifact output shared by the CLI, benches and examples.
"""

from repro.experiments.config import ColumnConfig
from repro.experiments.runner import ColumnResult, run_column
from repro.experiments.sweep import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    derive_seed,
    run_sweep,
)

__all__ = [
    "ColumnConfig",
    "ColumnResult",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "derive_seed",
    "run_column",
    "run_sweep",
]
