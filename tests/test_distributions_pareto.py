"""Unit tests for the Pareto distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distributions import ParetoDistribution


class TestParetoConstruction:
    def test_valid_parameters(self):
        dist = ParetoDistribution(tmin=10.0, beta=1.5)
        assert dist.tmin == 10.0
        assert dist.beta == 1.5

    @pytest.mark.parametrize("tmin", [0.0, -1.0])
    def test_rejects_non_positive_tmin(self, tmin):
        with pytest.raises(ValueError):
            ParetoDistribution(tmin=tmin, beta=1.5)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_rejects_non_positive_beta(self, beta):
        with pytest.raises(ValueError):
            ParetoDistribution(tmin=10.0, beta=beta)


class TestParetoBasics:
    def test_cdf_zero_below_tmin(self):
        dist = ParetoDistribution(20.0, 1.5)
        assert dist.cdf(5.0) == 0.0

    def test_cdf_matches_closed_form(self):
        dist = ParetoDistribution(20.0, 1.5)
        assert dist.cdf(40.0) == pytest.approx(1.0 - (20.0 / 40.0) ** 1.5)

    def test_mean_closed_form(self):
        dist = ParetoDistribution(20.0, 1.5)
        assert dist.mean() == pytest.approx(20.0 * 1.5 / 0.5)

    def test_mean_infinite_for_beta_at_most_one(self):
        assert math.isinf(ParetoDistribution(20.0, 1.0).mean())
        assert math.isinf(ParetoDistribution(20.0, 0.7).mean())


class TestParetoSampling:
    def test_samples_at_least_tmin(self, rng):
        dist = ParetoDistribution(20.0, 1.5)
        samples = dist.sample(5000, rng=rng)
        assert np.all(samples >= 20.0)

    def test_sample_mean_close_to_analytical(self, rng):
        dist = ParetoDistribution(20.0, 2.5)  # finite variance for a stable mean
        samples = dist.sample(200000, rng=rng)
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.05)

    def test_sample_tail_fraction_matches_sf(self, rng):
        dist = ParetoDistribution(20.0, 1.5)
        samples = dist.sample(100000, rng=rng)
        empirical = np.mean(samples > 100.0)
        assert empirical == pytest.approx(1.0 - dist.cdf(100.0), rel=0.1)

    def test_sample_one_returns_float(self, rng):
        value = ParetoDistribution(20.0, 1.5).sample_one(rng=rng)
        assert isinstance(value, float)
        assert value >= 20.0

    def test_deterministic_given_seed(self):
        dist = ParetoDistribution(20.0, 1.5)
        a = dist.sample(10, rng=np.random.default_rng(7))
        b = dist.sample(10, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestParetoOrderStatistics:
    def test_min_of_returns_scaled_beta(self):
        dist = ParetoDistribution(20.0, 1.5)
        minimum = dist.min_of(3)
        assert minimum.tmin == 20.0
        assert minimum.beta == pytest.approx(4.5)

    def test_min_of_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ParetoDistribution(20.0, 1.5).min_of(0)

    def test_expected_min_lemma1(self):
        dist = ParetoDistribution(20.0, 1.5)
        # Lemma 1: E[min of n] = tmin * n * beta / (n * beta - 1)
        assert dist.expected_min_of(2) == pytest.approx(20.0 * 3.0 / 2.0)

    def test_expected_min_of_one_equals_mean(self):
        dist = ParetoDistribution(20.0, 1.5)
        assert dist.expected_min_of(1) == pytest.approx(dist.mean())

    def test_expected_min_infinite_when_divergent(self):
        dist = ParetoDistribution(20.0, 0.5)
        assert math.isinf(dist.expected_min_of(1))

    def test_expected_min_matches_sampling(self, rng):
        dist = ParetoDistribution(20.0, 1.5)
        samples = dist.sample((50000, 3), rng=rng) if False else None
        draws = np.minimum.reduce([dist.sample(50000, rng=rng) for _ in range(3)])
        assert draws.mean() == pytest.approx(dist.expected_min_of(3), rel=0.03)

    def test_min_of_distribution_matches_sampling(self, rng):
        dist = ParetoDistribution(20.0, 1.5)
        minimum = dist.min_of(4)
        draws = np.minimum.reduce([dist.sample(20000, rng=rng) for _ in range(4)])
        assert np.mean(draws > 30.0) == pytest.approx(1.0 - minimum.cdf(30.0), rel=0.1)


class TestParetoConditionalMeans:
    def test_conditional_mean_below_bounds(self):
        dist = ParetoDistribution(20.0, 1.5)
        value = dist.conditional_mean_below(100.0)
        assert 20.0 < value < 100.0

    def test_conditional_mean_below_matches_sampling(self, rng):
        dist = ParetoDistribution(20.0, 1.5)
        samples = dist.sample(400000, rng=rng)
        below = samples[samples <= 100.0]
        assert below.mean() == pytest.approx(dist.conditional_mean_below(100.0), rel=0.02)

    def test_conditional_mean_below_rejects_small_bound(self):
        with pytest.raises(ValueError):
            ParetoDistribution(20.0, 1.5).conditional_mean_below(10.0)

    def test_conditional_mean_below_beta_one_limit(self):
        dist = ParetoDistribution(20.0, 1.0)
        value = dist.conditional_mean_below(100.0)
        assert 20.0 < value < 100.0

    def test_conditional_mean_above_is_pareto_scaled(self):
        dist = ParetoDistribution(20.0, 1.5)
        assert dist.conditional_mean_above(100.0) == pytest.approx(100.0 * 3.0)

    def test_conditional_mean_above_matches_sampling(self, rng):
        dist = ParetoDistribution(20.0, 1.8)
        samples = dist.sample(400000, rng=rng)
        above = samples[samples > 60.0]
        assert above.mean() == pytest.approx(dist.conditional_mean_above(60.0), rel=0.05)

