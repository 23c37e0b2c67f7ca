"""Unit tests for the synthetic workload generators (§V-A1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import BoundedPareto
from repro.workloads.base import index_of, key_for
from repro.workloads.synthetic import (
    DriftingClusterWorkload,
    OffsetWorkload,
    ParetoClusterWorkload,
    PerfectClusterWorkload,
    PhaseSwitchWorkload,
    UniformWorkload,
)


class TestKeyNaming:
    def test_round_trip(self) -> None:
        for index in (0, 7, 1999, 123456):
            assert index_of(key_for(index)) == index

    def test_keys_sort_numerically(self) -> None:
        keys = [key_for(i) for i in range(200)]
        assert keys == sorted(keys)


class TestPerfectClusters:
    def test_accesses_confined_to_one_cluster(self, rng) -> None:
        workload = PerfectClusterWorkload(n_objects=2000, cluster_size=5)
        for _ in range(200):
            accesses = workload.access_set(rng, now=0.0)
            clusters = {index_of(k) // 5 for k in accesses}
            assert len(clusters) == 1
            assert len(accesses) == 5

    def test_repetitions_allowed(self, rng) -> None:
        workload = PerfectClusterWorkload(n_objects=100, cluster_size=5)
        saw_repeat = any(
            len(set(workload.access_set(rng, 0.0))) < 5 for _ in range(100)
        )
        assert saw_repeat  # 5 draws from 5 objects repeat often

    def test_all_clusters_reachable(self, rng) -> None:
        workload = PerfectClusterWorkload(n_objects=50, cluster_size=5)
        clusters = set()
        for _ in range(500):
            clusters.add(index_of(workload.access_set(rng, 0.0)[0]) // 5)
        assert clusters == set(range(10))

    def test_cluster_size_must_divide(self) -> None:
        with pytest.raises(ConfigurationError):
            PerfectClusterWorkload(n_objects=11, cluster_size=5)

    def test_all_keys(self) -> None:
        workload = PerfectClusterWorkload(n_objects=10, cluster_size=5)
        assert len(workload.all_keys()) == 10


class TestParetoClusters:
    def test_high_alpha_stays_in_cluster(self, rng) -> None:
        workload = ParetoClusterWorkload(n_objects=2000, cluster_size=5, alpha=4.0)
        in_cluster = 0
        total = 0
        for _ in range(300):
            accesses = workload.access_set(rng, 0.0)
            head = index_of(accesses[0]) // 5  # approximation: first access
            for key in accesses:
                total += 1
                if index_of(key) // 5 == head:
                    in_cluster += 1
        assert in_cluster / total > 0.9

    def test_low_alpha_spreads_widely(self, rng) -> None:
        workload = ParetoClusterWorkload(n_objects=2000, cluster_size=5, alpha=1 / 32)
        distinct_clusters = set()
        for _ in range(300):
            for key in workload.access_set(rng, 0.0):
                distinct_clusters.add(index_of(key) // 5)
        assert len(distinct_clusters) > 100

    def test_wraparound_stays_in_range(self, rng) -> None:
        workload = ParetoClusterWorkload(n_objects=50, cluster_size=5, alpha=0.1)
        for _ in range(500):
            for key in workload.access_set(rng, 0.0):
                assert 0 <= index_of(key) < 50

    @pytest.mark.parametrize("alpha", [1 / 32, 1.0, 4.0])
    def test_access_set_returns_the_keys_of_the_scalar_form(self, alpha) -> None:
        """The pre-vectorisation loop, kept here as the reference."""
        workload = ParetoClusterWorkload(
            n_objects=2000, cluster_size=5, alpha=alpha, txn_size=5
        )
        pareto = BoundedPareto(alpha, low=1.0, high=2000.0)
        keys = workload.all_keys()
        scalar_rng = np.random.default_rng(11)
        vector_rng = np.random.default_rng(11)
        for _ in range(200):
            head = int(scalar_rng.integers(0, workload.n_clusters)) * 5
            expected = [
                keys[(head + pareto.sample_offset(scalar_rng)) % 2000]
                for _ in range(5)
            ]
            assert workload.access_set(vector_rng, 0.0) == expected

    def test_invalid_alpha_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            ParetoClusterWorkload(alpha=0.0)


class TestUniform:
    def test_spreads_over_everything(self, rng) -> None:
        workload = UniformWorkload(n_objects=100, txn_size=5)
        seen = set()
        for _ in range(500):
            seen.update(index_of(k) for k in workload.access_set(rng, 0.0))
        assert len(seen) == 100

    def test_invalid_sizes_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            UniformWorkload(n_objects=0)
        with pytest.raises(ConfigurationError):
            UniformWorkload(n_objects=10, txn_size=0)


class TestPhaseSwitch:
    def test_delegates_by_time(self, rng) -> None:
        workload = PhaseSwitchWorkload(
            before=UniformWorkload(1000),
            after=PerfectClusterWorkload(1000, cluster_size=5),
            switch_time=58.0,
        )
        # After the switch every access set is single-cluster.
        for _ in range(100):
            accesses = workload.access_set(rng, now=60.0)
            assert len({index_of(k) // 5 for k in accesses}) == 1
        # Before, essentially never.
        multi = sum(
            1
            for _ in range(100)
            if len({index_of(k) // 5 for k in workload.access_set(rng, 10.0)}) > 1
        )
        assert multi > 80

    def test_key_universe_must_match(self) -> None:
        with pytest.raises(ConfigurationError):
            PhaseSwitchWorkload(UniformWorkload(10), UniformWorkload(20), 1.0)

    def test_all_keys_from_before_phase(self) -> None:
        workload = PhaseSwitchWorkload(UniformWorkload(10), UniformWorkload(10), 1.0)
        assert len(workload.all_keys()) == 10


class TestDrift:
    def test_shift_index_advances_with_time(self) -> None:
        workload = DriftingClusterWorkload(n_objects=20, cluster_size=5, shift_interval=180.0)
        assert workload.shift_at(0.0) == 0
        assert workload.shift_at(179.9) == 0
        assert workload.shift_at(180.0) == 1
        assert workload.shift_at(900.0) == 5

    def test_clusters_shift_by_one(self, rng) -> None:
        workload = DriftingClusterWorkload(n_objects=20, cluster_size=5, shift_interval=10.0)
        # At shift s, cluster j covers indices (5j + s + 0..4) mod 20, so
        # un-shifting every accessed index must land inside one cluster.
        for now, shift in ((0.0, 0), (10.0, 1), (25.0, 2)):
            for _ in range(50):
                indices = {index_of(k) for k in workload.access_set(rng, now)}
                unshifted = {(i - shift) % 20 for i in indices}
                clusters = {u // 5 for u in unshifted}
                assert len(clusters) == 1

    def test_wraps_around_the_range(self, rng) -> None:
        workload = DriftingClusterWorkload(n_objects=20, cluster_size=5, shift_interval=1.0)
        seen = set()
        for now in np.linspace(0, 19, 20):
            for _ in range(20):
                seen.update(index_of(k) for k in workload.access_set(rng, float(now)))
        assert seen == set(range(20))

    def test_invalid_interval_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            DriftingClusterWorkload(shift_interval=0.0)


class TestOffset:
    def test_synthetic_families_shift_unchanged(self) -> None:
        for inner in (
            UniformWorkload(n_objects=10),
            PerfectClusterWorkload(n_objects=10, cluster_size=5),
        ):
            shifted = OffsetWorkload(inner, offset=200)
            assert list(shifted.all_keys()) == [key_for(200 + i) for i in range(10)]
            left, right = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(50):
                inner_keys = inner.access_set(left, 0.0)
                expected = [key_for(index_of(key) + 200) for key in inner_keys]
                assert shifted.access_set(right, 0.0) == expected

    def test_offsets_nest(self) -> None:
        nested = OffsetWorkload(OffsetWorkload(UniformWorkload(n_objects=3), 10), 5)
        assert list(nested.all_keys()) == ["o000015", "o000016", "o000017"]

    def test_keys_that_do_not_round_trip_are_rejected(self) -> None:
        """``index_of`` strips one character: ``n5`` must not become ``o000005``."""
        import networkx as nx

        from repro.workloads.walker import RandomWalkWorkload

        walk = RandomWalkWorkload(nx.path_graph(4))
        with pytest.raises(ConfigurationError, match="'n0'"):
            OffsetWorkload(walk, offset=5)

        class Named:
            def all_keys(self):
                return ["o000000", "user:alice"]

        with pytest.raises(ConfigurationError, match="'user:alice'"):
            OffsetWorkload(Named(), offset=5)

    def test_negative_offset_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            OffsetWorkload(UniformWorkload(n_objects=3), offset=-1)


class TestCodec:
    """JSON round-tripping of the portable workload families."""

    def round_trip(self, workload):
        import json

        from repro.workloads.codec import workload_from_dict, workload_to_dict

        payload = json.loads(json.dumps(workload_to_dict(workload)))
        return workload_from_dict(payload)

    def test_flat_families_round_trip(self) -> None:
        for workload in (
            UniformWorkload(n_objects=50, txn_size=3),
            PerfectClusterWorkload(n_objects=50, cluster_size=5),
            ParetoClusterWorkload(n_objects=50, cluster_size=5, alpha=0.5),
            DriftingClusterWorkload(
                n_objects=50, cluster_size=5, shift_interval=7.0
            ),
        ):
            rebuilt = self.round_trip(workload)
            assert type(rebuilt) is type(workload)
            assert list(rebuilt.all_keys()) == list(workload.all_keys())

    def test_round_trip_preserves_draw_sequence(self) -> None:
        workload = ParetoClusterWorkload(n_objects=50, cluster_size=5, alpha=0.5)
        rebuilt = self.round_trip(workload)
        left = workload.access_set(np.random.default_rng(3), 0.0)
        right = rebuilt.access_set(np.random.default_rng(3), 0.0)
        assert left == right

    def test_wrappers_round_trip_recursively(self) -> None:
        from repro.workloads.synthetic import MixtureWorkload, OffsetWorkload

        offset = OffsetWorkload(UniformWorkload(n_objects=10), offset=100)
        rebuilt = self.round_trip(offset)
        assert list(rebuilt.all_keys()) == list(offset.all_keys())

        mixture = MixtureWorkload(
            [(0.75, UniformWorkload(n_objects=10)), (0.25, offset)]
        )
        rebuilt = self.round_trip(mixture)
        assert [w for w, _ in rebuilt.components] == [0.75, 0.25]
        assert list(rebuilt.all_keys()) == list(mixture.all_keys())

        phases = PhaseSwitchWorkload(
            UniformWorkload(n_objects=20),
            PerfectClusterWorkload(n_objects=20, cluster_size=5),
            switch_time=3.0,
        )
        rebuilt = self.round_trip(phases)
        assert rebuilt.switch_time == 3.0
        assert type(rebuilt.after) is PerfectClusterWorkload

    def test_non_portable_types_rejected(self) -> None:
        from repro.workloads.codec import workload_from_dict, workload_to_dict

        with pytest.raises(ConfigurationError, match="not portable"):
            workload_to_dict(object())
        with pytest.raises(ConfigurationError):
            workload_from_dict({"type": "NoSuchWorkload"})
        with pytest.raises(ConfigurationError):
            workload_from_dict({"n_objects": 5})
        # A misspelled field in a hand-edited spec gets the codec's clean
        # error, not a raw TypeError from the constructor.
        with pytest.raises(ConfigurationError, match="bad UniformWorkload"):
            workload_from_dict(
                {"type": "UniformWorkload", "n_objects": 5, "txn_siz": 3}
            )
