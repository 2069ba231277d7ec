"""Tests for the queueing analytics and the model 2/3/4 simulators (§4.3)."""

import random

import pytest

from repro.analysis import geometric_pmf, total_variation_distance
from repro.errors import ConfigurationError
from repro.queueing import (
    expected_queue_length,
    expected_sojourn_time,
    geometric_ratio,
    interdeparture_histogram,
    mean_completion,
    model4_prediction,
    observe_single_server,
    optimal_lambda,
    radio_completion_phases,
    sample_stationary_queue_length,
    simulate_model2,
    simulate_model3,
    simulate_model4,
    stationary_distribution,
    stationary_probability,
    tandem_completion_time,
    utilization,
)
from repro.core import LAMBDA_STAR, MU


class TestClosedForms:
    def test_p0(self):
        assert stationary_probability(0, lam=0.1, mu=0.4) == pytest.approx(
            1 - 0.1 / 0.4
        )

    def test_distribution_sums_to_one(self):
        dist = stationary_distribution(0.15, 0.4, j_max=200)
        assert sum(dist) == pytest.approx(1.0, abs=1e-9)

    def test_expected_queue_length_consistent_with_distribution(self):
        lam, mu = 0.2, 0.5
        dist = stationary_distribution(lam, mu, j_max=400)
        mean_from_dist = sum(j * p for j, p in enumerate(dist))
        assert mean_from_dist == pytest.approx(
            expected_queue_length(lam, mu), abs=1e-9
        )

    def test_littles_law(self):
        lam, mu = 0.12, 0.3
        assert expected_sojourn_time(lam, mu) == pytest.approx(
            expected_queue_length(lam, mu) / lam
        )

    def test_sojourn_formula(self):
        assert expected_sojourn_time(0.1, 0.3) == pytest.approx(
            (1 - 0.1) / (0.3 - 0.1)
        )

    def test_theorem_43(self):
        lam, mu = 0.1, 0.25
        assert tandem_completion_time(5, 3, lam, mu) == pytest.approx(
            5 / lam + 3 * (1 - lam) / (mu - lam)
        )

    def test_optimal_lambda_balances_terms(self):
        mu = MU
        lam = optimal_lambda(mu)
        assert lam == pytest.approx(LAMBDA_STAR)
        assert 1 / lam == pytest.approx((1 - lam) / (mu - lam))

    def test_utilization(self):
        assert utilization(0.1, 0.4) == pytest.approx(0.25)

    def test_stability_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_queue_length(0.5, 0.4)
        with pytest.raises(ConfigurationError):
            stationary_probability(1, lam=0.3, mu=0.3)

    def test_ratio_below_one_under_stability(self):
        assert 0 < geometric_ratio(0.2, 0.6) < 1


class TestSingleServerSimulation:
    @pytest.fixture(scope="class")
    def observation(self):
        return observe_single_server(
            lam=0.15, mu=0.4, steps=150_000, rng=random.Random(77)
        )

    def test_mean_queue_length_matches(self, observation):
        predicted = expected_queue_length(0.15, 0.4)
        assert observation.mean_queue_length == pytest.approx(
            predicted, rel=0.08
        )

    def test_stationary_distribution_matches(self, observation):
        empirical = [observation.empirical_p(j) for j in range(8)]
        predicted = stationary_distribution(0.15, 0.4, j_max=7)
        assert total_variation_distance(empirical, predicted) < 0.02

    def test_sojourn_time_matches_little(self, observation):
        predicted = expected_sojourn_time(0.15, 0.4)
        assert observation.mean_sojourn_time == pytest.approx(
            predicted, rel=0.08
        )

    def test_departure_rate_is_lambda(self, observation):
        """Hsu–Burke: the departure process has rate λ."""
        assert observation.departure_rate == pytest.approx(0.15, rel=0.05)

    def test_interdeparture_gaps_geometric(self, observation):
        """Hsu–Burke: interdeparture gaps ~ Geometric(λ)."""
        hist = interdeparture_histogram(observation, max_gap=25)
        empirical = [hist.get(g, 0.0) for g in range(1, 20)]
        predicted = [geometric_pmf(0.15, g) for g in range(1, 20)]
        assert total_variation_distance(empirical, predicted) < 0.03

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            observe_single_server(0.5, 0.4, 100, random.Random(0))
        with pytest.raises(ConfigurationError):
            observe_single_server(0.1, 0.4, 0, random.Random(0))


class TestStationarySampling:
    def test_sample_distribution_matches(self):
        lam, mu = 0.12, 0.3
        rng = random.Random(5)
        counts = {}
        trials = 40_000
        for _ in range(trials):
            j = sample_stationary_queue_length(lam, mu, rng)
            counts[j] = counts.get(j, 0) + 1
        empirical = [counts.get(j, 0) / trials for j in range(6)]
        predicted = stationary_distribution(lam, mu, j_max=5)
        assert total_variation_distance(empirical, predicted) < 0.02


class TestTandemModels:
    def test_model2_deterministic_with_mu_one(self):
        result = simulate_model2([0, 0, 3], mu=1.0, rng=random.Random(0))
        # 3 messages at level 3: last one needs 3 hops, one leaves level 1
        # per step after the pipeline fills: completion = 3 + (3 - 1) = 5.
        assert result.steps == 5

    def test_model3_counts_all_arrivals(self):
        result = simulate_model3(4, 3, mu=0.5, lam=0.2, rng=random.Random(1))
        assert result.delivered == 4
        assert result.steps >= 4 / 0.2 * 0.5  # sanity: not absurdly fast

    def test_model4_reports_initial_backlog(self):
        result = simulate_model4(
            3, 4, mu=0.4, lam=0.2, rng=random.Random(2)
        )
        assert result.initial_backlog >= 0

    def test_theorem_43_matches_model4_simulation(self):
        k, depth, mu = 10, 4, 0.5
        lam = 0.25
        predicted = model4_prediction(k, depth, mu=mu, lam=lam)
        mean, _samples = mean_completion(
            lambda rng: simulate_model4(k, depth, mu, lam, rng),
            replications=400,
            seed=9,
        )
        assert mean == pytest.approx(predicted, rel=0.06)

    def test_model_chain_ordering(self):
        """Lemmas 4.10/4.11: E[T2] ≤ E[T3] ≤ E[T4] at matched parameters."""
        k, depth, mu = 8, 5, MU
        lam = optimal_lambda(mu)
        reps = 500
        m2, _ = mean_completion(
            lambda rng: simulate_model2((0,) * (depth - 1) + (k,), mu, rng),
            replications=reps,
            seed=3,
        )
        m3, _ = mean_completion(
            lambda rng: simulate_model3(k, depth, mu, lam, rng),
            replications=reps,
            seed=4,
        )
        m4, _ = mean_completion(
            lambda rng: simulate_model4(k, depth, mu, lam, rng),
            replications=reps,
            seed=5,
        )
        slack = 1.03  # Monte-Carlo tolerance
        assert m2 <= m3 * slack
        assert m3 <= m4 * slack

    def test_model3_bounded_by_theorem_43(self):
        k, depth, mu = 6, 4, MU
        lam = optimal_lambda(mu)
        mean, _ = mean_completion(
            lambda rng: simulate_model3(k, depth, mu, lam, rng),
            replications=400,
            seed=6,
        )
        assert mean <= model4_prediction(k, depth, mu=mu, lam=lam) * 1.03

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            simulate_model3(-1, 3, 0.5, 0.2, random.Random(0))
        with pytest.raises(ConfigurationError):
            simulate_model4(2, 0, 0.5, 0.2, random.Random(0))
        with pytest.raises(ConfigurationError):
            simulate_model2([-1], 0.5, random.Random(0))

    def test_radio_completion_phases(self):
        assert radio_completion_phases(100, 24) == 5
        assert radio_completion_phases(96, 24) == 4
        with pytest.raises(ConfigurationError):
            radio_completion_phases(10, 0)


class TestBusyPeriods:
    """Busy/idle cycle structure of the Bernoulli server."""

    def test_mean_busy_period_formula(self):
        from repro.queueing import mean_busy_period, observe_busy_periods

        lam, mu = 0.1, 0.3
        obs = observe_busy_periods(lam, mu, 200_000, random.Random(3))
        assert obs.mean_busy == pytest.approx(
            mean_busy_period(lam, mu), rel=0.05
        )

    def test_mean_idle_period_is_geometric(self):
        from repro.queueing import mean_idle_period, observe_busy_periods

        lam, mu = 0.2, 0.5
        obs = observe_busy_periods(lam, mu, 200_000, random.Random(5))
        assert obs.mean_idle == pytest.approx(
            mean_idle_period(lam), rel=0.05
        )

    def test_busy_fraction_equals_utilization(self):
        """Cycle view consistency: E[B]/(E[B]+E[I]) = λ/µ = 1 − p_0."""
        from repro.queueing import (
            busy_fraction,
            observe_busy_periods,
            utilization,
        )

        lam, mu = 0.15, 0.4
        assert busy_fraction(lam, mu) == pytest.approx(
            utilization(lam, mu)
        )
        obs = observe_busy_periods(lam, mu, 200_000, random.Random(7))
        assert obs.busy_fraction == pytest.approx(lam / mu, rel=0.05)

    def test_validation(self):
        from repro.queueing import mean_busy_period, observe_busy_periods
        from repro.queueing.busy import mean_idle_period

        with pytest.raises(ConfigurationError):
            mean_busy_period(0.5, 0.4)
        with pytest.raises(ConfigurationError):
            mean_idle_period(0.0)
        with pytest.raises(ConfigurationError):
            observe_busy_periods(0.1, 0.3, 0, random.Random(0))

    def test_empty_observation_is_nan(self):
        from repro.queueing import BusyPeriodObservation

        import math as math_module

        obs = BusyPeriodObservation()
        assert math_module.isnan(obs.mean_busy)
        assert obs.busy_fraction == 0.0
