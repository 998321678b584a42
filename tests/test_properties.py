"""Property-based tests (hypothesis) of the core invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    RESTART_SERIES_MAX_X,
    _restart_tail_quadrature,
    _restart_tail_series,
    expected_machine_time,
    expected_machine_time_restart,
)
from repro.core.model import StragglerModel, StrategyName
from repro.core.optimizer import ChronosOptimizer, brute_force_optimum
from repro.core.pocd import pocd
from repro.core.utility import UtilityParameters, net_utility
from repro.distributions import ParetoDistribution
from repro.simulator.engine import SimulationEngine

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# Strategy generating a well-formed straggler model.
models = st.builds(
    StragglerModel,
    tmin=st.floats(min_value=5.0, max_value=60.0),
    beta=st.floats(min_value=1.05, max_value=1.95),
    num_tasks=st.integers(min_value=1, max_value=200),
    deadline=st.floats(min_value=150.0, max_value=1000.0),
    tau_est=st.floats(min_value=0.0, max_value=100.0),
    tau_kill=st.floats(min_value=100.0, max_value=140.0),
    phi_est=st.floats(min_value=0.0, max_value=0.9),
)

chronos_strategies = st.sampled_from(StrategyName.chronos_strategies())
r_values = st.integers(min_value=0, max_value=8)


class TestPoCDProperties:
    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_pocd_is_probability(self, model, strategy, r):
        value = pocd(model, strategy, r)
        assert 0.0 <= value <= 1.0

    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_pocd_monotone_in_r(self, model, strategy, r):
        assert pocd(model, strategy, r + 1) >= pocd(model, strategy, r) - 1e-12

    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_pocd_monotone_in_deadline(self, model, strategy, r):
        looser = model.with_deadline(model.deadline * 1.5)
        assert pocd(looser, strategy, r) >= pocd(model, strategy, r) - 1e-12

    @SETTINGS
    @given(model=models, r=r_values)
    def test_theorem7_clone_dominates_restart(self, model, r):
        assert (
            pocd(model, StrategyName.CLONE, r)
            >= pocd(model, StrategyName.SPECULATIVE_RESTART, r) - 1e-12
        )

    @SETTINGS
    @given(model=models, r=r_values)
    def test_theorem7_resume_dominates_restart(self, model, r):
        assert (
            pocd(model, StrategyName.SPECULATIVE_RESUME, r)
            >= pocd(model, StrategyName.SPECULATIVE_RESTART, r) - 1e-12
        )

    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_pocd_decreases_with_tasks(self, model, strategy, r):
        bigger = model.with_num_tasks(model.num_tasks * 2)
        assert pocd(bigger, strategy, r) <= pocd(model, strategy, r) + 1e-12


class TestCostProperties:
    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_cost_positive(self, model, strategy, r):
        value = expected_machine_time(model, strategy, r)
        assert value > 0.0 or math.isinf(value)

    @SETTINGS
    @given(model=models, r=r_values)
    def test_clone_cost_increment_matches_theorem2(self, model, r):
        """Adding one clone adds tau_kill of kill-time and sharpens the min.

        The exact increment from Theorem 2 is
        ``tau_kill + tmin/(beta(r+2)-1) - tmin/(beta(r+1)-1)``.
        """
        increment = expected_machine_time(model, StrategyName.CLONE, r + 1) - (
            expected_machine_time(model, StrategyName.CLONE, r)
        )
        expected = (
            model.num_tasks
            * (
                model.tau_kill
                + model.tmin / (model.beta * (r + 2) - 1.0)
                - model.tmin / (model.beta * (r + 1) - 1.0)
            )
        )
        assert increment == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @SETTINGS
    @given(model=models, r=st.integers(min_value=1, max_value=8))
    def test_resume_not_more_expensive_than_restart(self, model, r):
        resume = expected_machine_time(model, StrategyName.SPECULATIVE_RESUME, r)
        restart = expected_machine_time(model, StrategyName.SPECULATIVE_RESTART, r)
        if math.isfinite(resume) and math.isfinite(restart):
            assert resume <= restart * (1.0 + 1e-9)

    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_cost_linear_in_num_tasks(self, model, strategy, r):
        single = expected_machine_time(model.with_num_tasks(1), strategy, r)
        double = expected_machine_time(model.with_num_tasks(2), strategy, r)
        if math.isfinite(single):
            assert double == pytest.approx(2.0 * single, rel=1e-9)


class TestTheorem4TailProperties:
    """The two evaluation forms of Theorem 4's tail integral."""

    @SETTINGS
    @given(
        beta=st.floats(min_value=1.01, max_value=5.0),
        r=st.floats(min_value=1e-3, max_value=64.0),
        x=st.floats(min_value=RESTART_SERIES_MAX_X - 0.1, max_value=RESTART_SERIES_MAX_X + 0.07),
    )
    def test_series_and_quadrature_agree_around_the_switch(self, beta, r, x):
        # Both forms are exact for 1/2 < x < 1 (the series just needs more
        # terms as x grows), so the switch between them cannot show a step.
        series = _restart_tail_series(beta, beta * r, x)
        quadrature = _restart_tail_quadrature(beta, beta * r, x)
        assert quadrature == pytest.approx(series, rel=1e-10)

    @SETTINGS
    @given(
        tmin=st.floats(min_value=1.0, max_value=60.0),
        beta=st.floats(min_value=1.05, max_value=5.0),
        span=st.floats(min_value=1.05, max_value=40.0),
        detect=st.floats(min_value=0.0, max_value=0.999),
        r=st.floats(min_value=1e-9, max_value=1e-3),
    )
    def test_restart_cost_continuous_near_zero_r(self, tmin, beta, span, detect, r):
        # The line search probes r = 1e-4 next to the r = 0 special case
        # (E[T | T > D]); the r > 0 formula must meet it continuously.
        deadline = tmin * span
        tau_est = detect * (deadline - tmin)
        model = StragglerModel(tmin=tmin, beta=beta, num_tasks=10, deadline=deadline,
                               tau_est=tau_est, tau_kill=tau_est)
        at_zero = expected_machine_time_restart(model, 0)
        for probe in (r, 1e-4):
            value = expected_machine_time_restart(model, probe)
            assert math.isfinite(value)
            # |dE/dr| / E is at most ~20 over these ranges.
            assert abs(value - at_zero) <= 100.0 * probe * at_zero


class TestOptimizerProperties:
    @SETTINGS
    @given(
        model=models,
        strategy=chronos_strategies,
        theta=st.sampled_from([1e-6, 1e-5, 1e-4, 1e-3]),
        r_min=st.sampled_from([0.0, 0.5, 0.9]),
    )
    def test_algorithm1_matches_brute_force(self, model, strategy, theta, r_min):
        """Theorem 9 as a property: the hybrid optimizer is globally optimal."""
        optimizer = ChronosOptimizer(
            model, theta=theta, unit_price=1.0, r_min_pocd=r_min, r_max=32
        )
        result = optimizer.optimize(strategy)
        _, best_utility = brute_force_optimum(model, strategy, optimizer.parameters, r_max=32)
        if math.isfinite(best_utility):
            assert result.utility == pytest.approx(best_utility, abs=1e-9)
        else:
            assert not math.isfinite(result.utility)

    @SETTINGS
    @given(model=models, strategy=chronos_strategies, r=r_values)
    def test_net_utility_never_nan(self, model, strategy, r):
        value = net_utility(model, strategy, r, UtilityParameters(theta=1e-4))
        assert not math.isnan(value)


class TestParetoProperties:
    @SETTINGS
    @given(
        tmin=st.floats(min_value=0.5, max_value=100.0),
        beta=st.floats(min_value=1.05, max_value=4.0),
        n=st.integers(min_value=1, max_value=10),
    )
    def test_expected_min_decreasing_in_n(self, tmin, beta, n):
        dist = ParetoDistribution(tmin, beta)
        assert dist.expected_min_of(n + 1) <= dist.expected_min_of(n) + 1e-12
        assert dist.expected_min_of(n) >= tmin

    @SETTINGS
    @given(
        tmin=st.floats(min_value=0.5, max_value=100.0),
        beta=st.floats(min_value=1.05, max_value=4.0),
        bound=st.floats(min_value=1.1, max_value=20.0),
    )
    def test_conditional_means_bracket_threshold(self, tmin, beta, bound):
        dist = ParetoDistribution(tmin, beta)
        threshold = tmin * bound
        assert dist.conditional_mean_below(threshold) <= threshold
        assert dist.conditional_mean_above(threshold) >= threshold


class TestEngineProperties:
    @SETTINGS
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30))
    def test_events_execute_in_nondecreasing_time(self, delays):
        engine = SimulationEngine(seed=0)
        executed = []
        for delay in delays:
            engine.schedule_after(delay, lambda: executed.append(engine.now))
        engine.run()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)
