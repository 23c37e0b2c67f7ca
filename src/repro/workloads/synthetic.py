"""Synthetic workloads (§V-A1) and their time-varying variants.

The basic construction uses ``n_objects`` objects divided into clusters of
``cluster_size`` (paper: 2000 objects, clusters of 5). Two static families:

* **perfect clustering** — each transaction picks one cluster uniformly and
  draws all its accesses (with repetition) inside that cluster;
* **approximate clustering** — each access is the cluster head plus a
  bounded-Pareto offset, wrapping around the object range, so small Pareto
  ``alpha`` degrades towards uniform access and large ``alpha`` approaches
  perfect clustering (Fig. 3 sweeps ``alpha`` from 1/32 to 4).

Two dynamic wrappers reproduce the convergence experiments:

* :class:`PhaseSwitchWorkload` — uniform accesses until a switch time, then
  perfectly clustered (Fig. 4, switch at t=58 s);
* :class:`DriftingClusterWorkload` — perfectly clustered, but the cluster
  boundaries shift by one object every ``shift_interval`` seconds, wrapping
  at the end of the range (Fig. 5, shift every 3 minutes).

Every index is drawn through :func:`repro.sim.rng.integers_below`, which is
stream-identical to the ``Generator.integers`` form these classes used to
spell (one scalar draw for the cluster head, one ``size=k`` draw for the
offsets): same values, same generator state afterwards, so every seeded result
downstream is unchanged (``tests/unit/test_workload_streams.py`` keeps the
numpy form as the reference and holds the draws against a recording).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import BoundedPareto, integers_below
from repro.types import Key
from repro.workloads.base import index_of, key_for

__all__ = [
    "PerfectClusterWorkload",
    "ParetoClusterWorkload",
    "UniformWorkload",
    "PhaseSwitchWorkload",
    "DriftingClusterWorkload",
    "MixtureWorkload",
    "OffsetWorkload",
]


class _SyntheticBase:
    """Shared validation and key universe for the synthetic families."""

    def __init__(self, n_objects: int, txn_size: int) -> None:
        if n_objects < 1:
            raise ConfigurationError(f"n_objects must be positive, got {n_objects}")
        if txn_size < 1:
            raise ConfigurationError(f"txn_size must be positive, got {txn_size}")
        self.n_objects = n_objects
        self.txn_size = txn_size
        self._keys = [key_for(i) for i in range(n_objects)]

    def all_keys(self) -> Sequence[Key]:
        return self._keys


class UniformWorkload(_SyntheticBase):
    """Every access uniform over the whole object range (no clustering)."""

    def __init__(self, n_objects: int = 2000, txn_size: int = 5) -> None:
        super().__init__(n_objects, txn_size)

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        keys = self._keys
        return [keys[i] for i in integers_below(rng, self.n_objects, self.txn_size)]


class PerfectClusterWorkload(_SyntheticBase):
    """Accesses fully contained in one uniformly chosen cluster.

    "Clustering is perfect and each transaction chooses a single cluster and
    chooses 5 times with repetitions within this cluster."
    """

    def __init__(
        self, n_objects: int = 2000, cluster_size: int = 5, txn_size: int = 5
    ) -> None:
        super().__init__(n_objects, txn_size)
        if cluster_size < 1 or n_objects % cluster_size:
            raise ConfigurationError(
                f"cluster_size {cluster_size} must divide n_objects {n_objects}"
            )
        self.cluster_size = cluster_size
        self.n_clusters = n_objects // cluster_size

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        cluster_size = self.cluster_size
        head = integers_below(rng, self.n_clusters, 1)[0] * cluster_size
        keys = self._keys
        return [
            keys[head + offset]
            for offset in integers_below(rng, cluster_size, self.txn_size)
        ]


class ParetoClusterWorkload(_SyntheticBase):
    """Approximately clustered accesses via a bounded Pareto offset.

    "Each object is chosen using a bounded Pareto distribution starting at
    the head of its cluster i (a product of 5). If the Pareto variable plus
    the offset results in a number outside the range (i.e., larger than
    1999), the count wraps back to 0."
    """

    def __init__(
        self,
        n_objects: int = 2000,
        cluster_size: int = 5,
        alpha: float = 1.0,
        txn_size: int = 5,
    ) -> None:
        super().__init__(n_objects, txn_size)
        if cluster_size < 1 or n_objects % cluster_size:
            raise ConfigurationError(
                f"cluster_size {cluster_size} must divide n_objects {n_objects}"
            )
        self.cluster_size = cluster_size
        self.n_clusters = n_objects // cluster_size
        self.alpha = alpha
        self._pareto = BoundedPareto(alpha, low=1.0, high=float(n_objects))

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        head = integers_below(rng, self.n_clusters, 1)[0] * self.cluster_size
        keys, n_objects = self._keys, self.n_objects
        return [
            keys[(head + offset) % n_objects]
            for offset in self._pareto.sample_offsets(rng, self.txn_size)
        ]


class PhaseSwitchWorkload:
    """Delegates to one workload before ``switch_time`` and another after.

    Fig. 4 uses ``PhaseSwitchWorkload(UniformWorkload(1000),
    PerfectClusterWorkload(1000), switch_time=58.0)``.
    """

    def __init__(self, before, after, switch_time: float) -> None:
        before_keys = list(before.all_keys())
        after_keys = list(after.all_keys())
        if set(before_keys) != set(after_keys):
            raise ConfigurationError(
                "phase workloads must share one key universe "
                f"({len(before_keys)} vs {len(after_keys)} keys)"
            )
        self.before = before
        self.after = after
        self.switch_time = switch_time

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        active = self.before if now < self.switch_time else self.after
        return active.access_set(rng, now)

    def all_keys(self) -> Sequence[Key]:
        return self.before.all_keys()


def _synthetic_index(key: Key) -> int:
    """``index_of(key)`` for a key :func:`key_for` wrote, else an error.

    ``index_of`` only strips a character, so a graph node key ``n5`` would
    read as index 5 and be renamed ``o000005`` — straight into the synthetic
    key space of a neighbouring slice.
    """
    try:
        index = index_of(key)
    except ValueError:
        index = None
    if index is None or key_for(index) != key:
        raise ConfigurationError(
            f"OffsetWorkload shifts synthetic keys such as {key_for(0)!r}; "
            f"inner key {key!r} is not one"
        )
    return index


class OffsetWorkload:
    """Shifts every key of an inner workload by a fixed object offset.

    The multi-edge scenarios use this to give each edge region its own
    disjoint slice of the key space: ``OffsetWorkload(inner, offset=2000)``
    maps the inner workload's ``o000000..`` universe onto ``o002000..``.
    An inner key outside that synthetic family is rejected at construction.
    """

    def __init__(self, inner, offset: int) -> None:
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        self.inner = inner
        self.offset = offset
        self._keys = [
            key_for(_synthetic_index(key) + offset) for key in inner.all_keys()
        ]
        self._mapping = dict(zip(inner.all_keys(), self._keys))

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        return [self._mapping[key] for key in self.inner.access_set(rng, now)]

    def all_keys(self) -> Sequence[Key]:
        return self._keys


class MixtureWorkload:
    """Chooses one of several workloads per transaction, by weight.

    Models client populations whose traffic mixes distributions — e.g. a
    geo edge whose transactions are mostly local but occasionally touch a
    globally shared segment. The choice consumes one draw from the client's
    random stream per transaction; each component keeps its own key
    universe, and ``all_keys`` is their order-preserving union.
    """

    def __init__(self, components: Sequence[tuple[float, object]]) -> None:
        if not components:
            raise ConfigurationError("MixtureWorkload needs at least one component")
        weights = [float(weight) for weight, _ in components]
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise ConfigurationError(
                f"mixture weights must be >= 0 with a positive sum, got {weights}"
            )
        total = sum(weights)
        self.components = [
            (weight / total, workload)
            for weight, (_, workload) in zip(weights, components)
        ]
        keys: dict[Key, None] = {}
        for _, workload in self.components:
            for key in workload.all_keys():
                keys.setdefault(key)
        self._keys = list(keys)

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        draw = rng.random()
        cumulative = 0.0
        for weight, workload in self.components:
            cumulative += weight
            if draw < cumulative:
                return workload.access_set(rng, now)
        return self.components[-1][1].access_set(rng, now)

    def all_keys(self) -> Sequence[Key]:
        return self._keys


class DriftingClusterWorkload(_SyntheticBase):
    """Perfect clusters whose boundaries shift by one every interval.

    "Every 3 minutes the cluster structure shifts by 1 (0-4, 5-9, 10-14 ->
    1-4(sic), 5-10, 11-15 ...), and wrapping back to zero after 1999."
    After ``s`` shifts, cluster ``j`` covers indices
    ``(j*cluster_size + s) mod n`` through ``(j*cluster_size + s +
    cluster_size - 1) mod n``.
    """

    def __init__(
        self,
        n_objects: int = 2000,
        cluster_size: int = 5,
        shift_interval: float = 180.0,
        txn_size: int = 5,
    ) -> None:
        super().__init__(n_objects, txn_size)
        if cluster_size < 1 or n_objects % cluster_size:
            raise ConfigurationError(
                f"cluster_size {cluster_size} must divide n_objects {n_objects}"
            )
        if shift_interval <= 0:
            raise ConfigurationError(
                f"shift_interval must be positive, got {shift_interval}"
            )
        self.cluster_size = cluster_size
        self.n_clusters = n_objects // cluster_size
        self.shift_interval = shift_interval

    def shift_at(self, now: float) -> int:
        return int(now / self.shift_interval)

    def access_set(self, rng: np.random.Generator, now: float) -> list[Key]:
        shift = self.shift_at(now)
        cluster_size = self.cluster_size
        head = integers_below(rng, self.n_clusters, 1)[0] * cluster_size + shift
        keys, n_objects = self._keys, self.n_objects
        return [
            keys[(head + offset) % n_objects]
            for offset in integers_below(rng, cluster_size, self.txn_size)
        ]
