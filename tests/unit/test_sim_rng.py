"""Unit tests for named random streams and the bounded Pareto sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import BoundedPareto, RngStreams


class TestRngStreams:
    def test_same_name_returns_same_generator(self) -> None:
        streams = RngStreams(seed=7)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent(self) -> None:
        streams = RngStreams(seed=7)
        a = streams.stream("a").random(100)
        b = streams.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_draws(self) -> None:
        first = RngStreams(seed=11).stream("workload").random(50)
        second = RngStreams(seed=11).stream("workload").random(50)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self) -> None:
        first = RngStreams(seed=11).stream("workload").random(50)
        second = RngStreams(seed=12).stream("workload").random(50)
        assert not np.allclose(first, second)

    def test_new_consumer_does_not_perturb_existing_stream(self) -> None:
        plain = RngStreams(seed=5)
        baseline = plain.stream("clients").random(20)

        with_extra = RngStreams(seed=5)
        with_extra.stream("a-brand-new-consumer").random(100)
        perturbed = with_extra.stream("clients").random(20)
        np.testing.assert_array_equal(baseline, perturbed)

    def test_fork_gives_distinct_family(self) -> None:
        base = RngStreams(seed=5)
        forked = base.fork(1)
        assert forked.seed != base.seed
        a = base.stream("x").random(10)
        b = forked.stream("x").random(10)
        assert not np.allclose(a, b)


class TestBoundedPareto:
    def test_samples_respect_bounds(self) -> None:
        dist = BoundedPareto(alpha=1.0, low=1.0, high=100.0)
        rng = np.random.default_rng(3)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 1.0
        assert max(samples) <= 100.0

    def test_cdf_endpoints(self) -> None:
        dist = BoundedPareto(alpha=2.0, low=1.0, high=50.0)
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.0
        assert dist.cdf(50.0) == 1.0
        assert dist.cdf(1000.0) == 1.0

    def test_cdf_is_monotone(self) -> None:
        dist = BoundedPareto(alpha=0.5, low=1.0, high=2000.0)
        xs = np.linspace(1.0, 2000.0, 64)
        values = [dist.cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_empirical_cdf_matches_analytic(self) -> None:
        dist = BoundedPareto(alpha=1.0, low=1.0, high=2000.0)
        rng = np.random.default_rng(9)
        samples = np.array([dist.sample(rng) for _ in range(20000)])
        for x in (2.0, 5.0, 20.0, 200.0):
            empirical = float(np.mean(samples <= x))
            assert empirical == pytest.approx(dist.cdf(x), abs=0.02)

    def test_high_alpha_concentrates_at_cluster_head(self) -> None:
        """Paper: at alpha=4 almost all accesses fall within the cluster."""
        dist = BoundedPareto(alpha=4.0, low=1.0, high=2000.0)
        rng = np.random.default_rng(2)
        offsets = [dist.sample_offset(rng) for _ in range(5000)]
        within_cluster = sum(1 for o in offsets if o < 5) / len(offsets)
        assert within_cluster > 0.99

    def test_low_alpha_spreads_over_the_whole_range(self) -> None:
        """Paper: at alpha=1/32 the distribution is "almost uniform".

        A bounded Pareto at alpha -> 0 converges to log-uniform, so the exact
        within-cluster mass is ln(6)/ln(2000) ~ 26 %, far below the >99 % of
        alpha=4 — that spread is what the paper's statement captures.
        """
        dist = BoundedPareto(alpha=1 / 32, low=1.0, high=2000.0)
        rng = np.random.default_rng(2)
        offsets = [dist.sample_offset(rng) for _ in range(5000)]
        within_cluster = sum(1 for o in offsets if o < 5) / len(offsets)
        assert within_cluster < 0.30
        # Mass genuinely reaches the far end of the range.
        assert max(offsets) > 1000

    def test_sample_offset_zero_based(self) -> None:
        dist = BoundedPareto(alpha=4.0, low=1.0, high=10.0)
        rng = np.random.default_rng(5)
        offsets = {dist.sample_offset(rng) for _ in range(500)}
        assert 0 in offsets
        assert min(offsets) == 0

    @pytest.mark.parametrize("alpha", [1 / 32, 1.0, 4.0])
    def test_vector_draw_equals_the_scalar_sequence(self, alpha) -> None:
        dist = BoundedPareto(alpha=alpha, low=1.0, high=2000.0)
        scalar_rng = np.random.default_rng(77)
        vector_rng = np.random.default_rng(77)
        for count in (1, 5, 5, 64, 3):
            scalar = [dist.sample_offset(scalar_rng) for _ in range(count)]
            assert dist.sample_offsets(vector_rng, count) == scalar
        # Both generators sit at the same point of the PCG64 stream.
        assert scalar_rng.random() == vector_rng.random()

    @pytest.mark.parametrize("alpha,low,high", [(0.0, 1, 10), (-1, 1, 10), (1, 0, 10), (1, 10, 10), (1, 20, 10)])
    def test_invalid_parameters_rejected(self, alpha, low, high) -> None:
        with pytest.raises(ConfigurationError):
            BoundedPareto(alpha=alpha, low=low, high=high)
