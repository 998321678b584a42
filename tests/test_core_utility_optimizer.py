"""Unit tests for the net utility, concavity thresholds and Algorithm 1."""

from __future__ import annotations

import math

import pytest

from repro.core.cost import expected_machine_time
from repro.core.model import StragglerModel, StrategyName
from repro.core.optimizer import ChronosOptimizer, brute_force_optimum
from repro.core.pocd import pocd
from repro.core.utility import (
    UtilityParameters,
    concavity_threshold,
    concavity_threshold_clone,
    concavity_threshold_restart,
    concavity_threshold_resume,
    net_utility,
    pocd_utility,
)

ALL_CHRONOS = StrategyName.chronos_strategies()


class TestUtilityParameters:
    def test_defaults(self):
        params = UtilityParameters()
        assert params.theta == 1e-4
        assert params.r_min_pocd == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -1.0},
            {"unit_price": -0.1},
            {"r_min_pocd": 1.0},
            {"r_min_pocd": -0.2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            UtilityParameters(**kwargs)


class TestPoCDUtility:
    def test_log10_of_margin(self):
        assert pocd_utility(0.9, 0.0) == pytest.approx(math.log10(0.9))

    def test_negative_infinity_when_infeasible(self):
        assert pocd_utility(0.3, 0.5) == -math.inf
        assert pocd_utility(0.5, 0.5) == -math.inf


class TestNetUtility:
    def test_matches_manual_computation(self, model):
        params = UtilityParameters(theta=1e-4, unit_price=2.0, r_min_pocd=0.1)
        r = 2
        expected = math.log10(pocd(model, StrategyName.CLONE, r) - 0.1) - 1e-4 * 2.0 * (
            expected_machine_time(model, StrategyName.CLONE, r)
        )
        assert net_utility(model, StrategyName.CLONE, r, params) == pytest.approx(expected)

    def test_infeasible_returns_minus_inf(self, model):
        params = UtilityParameters(r_min_pocd=0.999999)
        assert net_utility(model, StrategyName.CLONE, 0, params) == -math.inf

    def test_rejects_negative_r(self, model):
        with pytest.raises(ValueError):
            net_utility(model, StrategyName.CLONE, -1, UtilityParameters())

    def test_difference_sign_changes_around_optimum(self, model):
        params = UtilityParameters(theta=1e-4)
        strategy = StrategyName.SPECULATIVE_RESUME
        r_opt, _ = brute_force_optimum(model, strategy, params)

        def step(r):  # U(r + 1) - U(r)
            return net_utility(model, strategy, r + 1, params) - net_utility(
                model, strategy, r, params
            )

        assert step(r_opt) <= 0.0
        if r_opt > 0:
            assert step(r_opt - 1) >= 0.0
        assert step(r_opt + 1) < step(max(r_opt - 1, 0))


class TestConcavityThresholds:
    def test_generic_matches_paper_clone(self, model):
        assert concavity_threshold(model, StrategyName.CLONE) == pytest.approx(
            concavity_threshold_clone(model), rel=1e-9
        )

    def test_generic_matches_paper_restart(self, model):
        assert concavity_threshold(model, StrategyName.SPECULATIVE_RESTART) == pytest.approx(
            concavity_threshold_restart(model), rel=1e-9
        )

    def test_generic_matches_paper_resume(self, model):
        assert concavity_threshold(model, StrategyName.SPECULATIVE_RESUME) == pytest.approx(
            concavity_threshold_resume(model), rel=1e-9
        )

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_pocd_concave_above_threshold(self, model, strategy):
        """Discrete second difference of PoCD is negative above Gamma."""
        gamma = concavity_threshold(model, strategy)
        start = max(0, math.ceil(gamma))
        for r in range(start, start + 5):
            second_diff = (
                pocd(model, strategy, r + 2)
                - 2.0 * pocd(model, strategy, r + 1)
                + pocd(model, strategy, r)
            )
            assert second_diff <= 1e-12

    def test_threshold_grows_with_num_tasks(self, model):
        small = concavity_threshold(model.with_num_tasks(2), StrategyName.CLONE)
        large = concavity_threshold(model.with_num_tasks(200), StrategyName.CLONE)
        assert large > small


class TestAlgorithm1:
    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    @pytest.mark.parametrize("theta", [1e-6, 1e-4, 1e-3, 1e-2])
    def test_matches_brute_force(self, model, strategy, theta):
        """Theorem 9: Algorithm 1 finds the global optimum."""
        optimizer = ChronosOptimizer(model, theta=theta, unit_price=1.0)
        result = optimizer.optimize(strategy)
        r_star, u_star = brute_force_optimum(model, strategy, optimizer.parameters)
        assert result.utility == pytest.approx(u_star, abs=1e-9)
        assert result.r_opt == r_star

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_matches_brute_force_many_tasks(self, strategy):
        model = StragglerModel(
            tmin=15.0, beta=1.2, num_tasks=300, deadline=120.0, tau_est=30.0, tau_kill=60.0
        )
        optimizer = ChronosOptimizer(model, theta=1e-5, unit_price=1.0)
        result = optimizer.optimize(strategy)
        r_star, u_star = brute_force_optimum(model, strategy, optimizer.parameters)
        assert result.r_opt == r_star
        assert result.utility == pytest.approx(u_star, abs=1e-9)

    def test_result_fields_consistent(self, model):
        optimizer = ChronosOptimizer(model, theta=1e-4, unit_price=2.0)
        result = optimizer.optimize(StrategyName.SPECULATIVE_RESUME)
        assert result.cost == pytest.approx(2.0 * result.machine_time)
        assert result.pocd == pytest.approx(
            pocd(model, StrategyName.SPECULATIVE_RESUME, result.r_opt)
        )
        assert result.feasible
        assert result.evaluations >= 1
        assert result.r_opt in result.utility_by_r

    def test_large_theta_minimises_cost(self, model):
        """With a huge theta the optimizer effectively minimises E(T).

        For Clone that means r = 0 (its cost is strictly increasing in r);
        for the speculative strategies a single extra attempt can *reduce*
        expected machine time (stragglers get killed at tau_kill instead of
        running out their heavy tail), so we only assert that the chosen r
        minimises the machine time.
        """
        optimizer = ChronosOptimizer(model, theta=10.0, unit_price=1.0)
        assert optimizer.optimize(StrategyName.CLONE).r_opt == 0
        for strategy in ALL_CHRONOS:
            result = optimizer.optimize(strategy)
            costs = {r: expected_machine_time(model, strategy, r) for r in range(10)}
            assert result.r_opt == min(costs, key=costs.get)

    def test_lax_deadline_needs_no_speculation(self, loose_model):
        optimizer = ChronosOptimizer(loose_model.with_deadline(2000.0), theta=1e-3)
        result = optimizer.optimize(StrategyName.SPECULATIVE_RESUME)
        assert result.r_opt == 0

    def test_optimal_r_decreases_with_theta(self, model):
        for strategy in ALL_CHRONOS:
            r_values = [
                ChronosOptimizer(model, theta=theta).optimize(strategy).r_opt
                for theta in (1e-6, 1e-4, 1e-2)
            ]
            assert all(b <= a for a, b in zip(r_values, r_values[1:]))

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_optimal_r_does_not_rise_with_the_deadline(self, model, strategy):
        """Section V: a laxer deadline needs no more extra attempts.

        Over deadlines of 1.5 to 10 mean task times, r* never rises and
        the PoCD at the laxest deadline is at least that at the tightest.
        Between neighbours the PoCD may dip where r* drops (S-Resume:
        0.9983 at 1.5, 0.9977 at 2).
        """
        results = [
            ChronosOptimizer(model.with_deadline(factor * model.mean_task_time)).optimize(strategy)
            for factor in (1.5, 2.0, 4.0, 10.0)
        ]
        r_values = [result.r_opt for result in results]
        assert all(b <= a for a, b in zip(r_values, r_values[1:]))
        assert r_values[-1] < r_values[0]
        assert results[-1].pocd >= results[0].pocd

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_lighter_tail_raises_pocd_and_cuts_machine_time(self, model, strategy):
        """Section V: at r = 1, PoCD rises and machine time falls as beta grows."""
        models = [model.with_beta(beta) for beta in (1.1, 1.5, 1.9)]
        pocds = [pocd(swept, strategy, 1) for swept in models]
        costs = [expected_machine_time(swept, strategy, 1) for swept in models]
        assert all(a < b for a, b in zip(pocds, pocds[1:]))
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_infeasible_r_min(self, model):
        optimizer = ChronosOptimizer(model, theta=1e-4, r_min_pocd=0.999999999)
        result = optimizer.optimize(StrategyName.CLONE)
        assert not result.feasible or result.pocd > 0.999999999

    def test_r_min_above_the_concavity_threshold(self):
        """Regression: Rmin = 0.9 makes every r below 6 infeasible.

        Phase 1 used to start at ceil(Gamma) = 4, where the utility is
        -inf and flat, and return r = 0 with U = -inf.
        """
        model = StragglerModel(
            tmin=30, beta=1.5, num_tasks=100, deadline=60, tau_est=12, tau_kill=12
        )
        optimizer = ChronosOptimizer(model, theta=1e-4, r_min_pocd=0.9)
        result = optimizer.optimize(StrategyName.CLONE)
        best_r, best_u = brute_force_optimum(model, StrategyName.CLONE, optimizer.parameters)
        assert (result.r_opt, result.utility) == (best_r, best_u)
        assert best_r == 7 and best_u == pytest.approx(-2.2872, abs=1e-4)
        assert pocd(model, StrategyName.CLONE, 5) <= 0.9 < pocd(model, StrategyName.CLONE, 6)

    @pytest.mark.parametrize(
        ("strategy", "r_expected"),
        [(StrategyName.SPECULATIVE_RESTART, 5), (StrategyName.SPECULATIVE_RESUME, 4)],
    )
    def test_infinite_cost_returns_the_smallest_r_meeting_r_min(self, strategy, r_expected):
        """Regression: beta = 1 makes the speculative strategies' expected
        machine time infinite, so every utility is -inf.  The result must
        still meet Rmin: an integer hill climb used to step below the
        feasible r and keep it on the (U, -r) tie-break."""
        model = StragglerModel(
            tmin=15, beta=1.0, num_tasks=10, deadline=45, tau_est=13.5, tau_kill=36
        )
        result = ChronosOptimizer(model, theta=1e-4, r_min_pocd=0.9).optimize(strategy)
        assert not result.feasible
        assert result.r_opt == r_expected
        assert pocd(model, strategy, r_expected - 1) <= 0.9 < result.pocd

    def test_unreachable_r_min_is_infeasible_without_search(self, model):
        optimizer = ChronosOptimizer(model, theta=1e-4, r_min_pocd=0.9, r_max=0)
        result = optimizer.optimize(StrategyName.CLONE)
        assert not result.feasible
        assert result.r_opt == 0 and result.evaluations == 1

    def test_optimize_all_and_best(self, model):
        optimizer = ChronosOptimizer(model, theta=1e-4)
        results = optimizer.optimize_all()
        assert set(results) == set(ALL_CHRONOS)
        best = optimizer.best_strategy()
        assert best.utility == max(res.utility for res in results.values())

    def test_utility_method(self, model):
        optimizer = ChronosOptimizer(model, theta=1e-4)
        assert optimizer.utility(StrategyName.CLONE, 1) == pytest.approx(
            net_utility(model, StrategyName.CLONE, 1, optimizer.parameters)
        )

    def test_rejects_negative_r_max(self, model):
        with pytest.raises(ValueError):
            ChronosOptimizer(model, r_max=-1)


class TestAlgorithm1Grid:
    """Algorithm 1 against the brute-force reference over a slice of the
    (t_min, beta, N, D/t_min, timing, theta, Rmin) space, including
    infinite-cost tails (beta <= 1) and 300-task jobs.

    Where the utility is finite the optimum matches exactly, except on
    plateaus where U keeps rising by an ulp or two (one task, theta =
    1e-6): there the ascent stops at the first step that does not improve
    U in floating point, and the scan may find a larger r a few ulps
    higher.  Where every utility is -inf, the result is the smallest r
    that meets Rmin, or 0 when none does.
    """

    MODELS = [
        pytest.param(tmin, beta, n, span, timing, id=f"t{tmin}-b{beta}-n{n}-d{span}-{timing}")
        for tmin, beta, n, span, timing in [
            (5.0, 0.8, 10, 3.0, (0.3, 0.8)),
            (15.0, 1.0, 10, 3.0, (0.3, 0.8)),
            (15.0, 1.0, 300, 6.0, (0.2, 0.5)),
            (15.0, 1.2, 300, 6.0, (0.3, 0.8)),
            (30.0, 1.5, 100, 3.0, (0.2, 0.5)),
            (5.0, 1.5, 300, 1.5, (0.2, 0.5)),
            (15.0, 2.5, 1, 6.0, (0.5, 0.5)),
            (30.0, 2.5, 300, 3.0, (0.3, 0.8)),
        ]
    ]

    @pytest.mark.parametrize(("tmin", "beta", "n", "span", "timing"), MODELS)
    @pytest.mark.parametrize("r_min", [0.0, 0.5, 0.9, 0.99])
    def test_matches_brute_force(self, tmin, beta, n, span, timing, r_min):
        deadline = tmin * span
        model = StragglerModel(
            tmin=tmin, beta=beta, num_tasks=n, deadline=deadline,
            tau_est=timing[0] * deadline, tau_kill=timing[1] * deadline,
        )
        for strategy in ALL_CHRONOS:
            for theta in (1e-6, 1e-4, 1e-2):
                optimizer = ChronosOptimizer(model, theta=theta, r_min_pocd=r_min)
                result = optimizer.optimize(strategy)
                r_star, u_star = brute_force_optimum(model, strategy, optimizer.parameters)
                case = (strategy.value, theta)
                if math.isfinite(u_star):
                    assert result.utility == pytest.approx(u_star, rel=1e-14), case
                    if result.utility == u_star:
                        assert result.r_opt == r_star, case
                    continue
                assert not result.feasible, case
                meets = [r for r in range(65) if pocd(model, strategy, r) > r_min]
                assert result.r_opt == (meets[0] if meets else 0), case
