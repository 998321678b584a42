"""Unit tests for the expected machine time / cost (Theorems 2, 4, 6)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost import (
    _GL_RULE,
    RESTART_SERIES_MAX_X,
    _restart_tail_integral,
    expected_cost,
    expected_machine_time,
    expected_machine_time_clone,
    expected_machine_time_restart,
    expected_machine_time_resume,
)
from repro.core.model import StragglerModel, StrategyName

ALL_CHRONOS = StrategyName.chronos_strategies()

#: High-precision values of Theorem 4's tail integral; regenerate with
#: ``python tests/data/make_restart_tail_reference.py`` (needs mpmath).
TAIL_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "restart_tail_reference.json").read_text()
)


def tail_integral(beta, tmin, deadline, tau_est, r):
    """``int_{D-tau}^inf (D/(w+tau))**beta (tmin/w)**(beta r) dw`` via the cost module."""
    d_after = deadline - tau_est
    return _restart_tail_integral(
        beta, beta * r, d_after, tmin / d_after, tau_est / deadline
    )


class TestTheorem2Clone:
    def test_closed_form(self, model):
        r = 2
        expected = model.num_tasks * (
            r * model.tau_kill
            + model.tmin
            + model.tmin / (model.beta * (r + 1) - 1.0)
        )
        assert expected_machine_time_clone(model, r) == pytest.approx(expected)

    def test_r_zero_is_mean_job_time(self, model):
        assert expected_machine_time_clone(model, 0) == pytest.approx(
            model.num_tasks * model.mean_task_time
        )

    def test_infinite_when_min_divergent(self):
        m = StragglerModel(tmin=20.0, beta=0.6, num_tasks=10, deadline=100.0)
        assert math.isinf(expected_machine_time_clone(m, 0))

    def test_monotone_in_r(self, model):
        values = [expected_machine_time_clone(model, r) for r in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_negative_r(self, model):
        with pytest.raises(ValueError):
            expected_machine_time_clone(model, -1)


class TestTheorem4Restart:
    def test_r_zero_is_unconditional_mean(self, model):
        # With no speculation the machine time is just the mean task time.
        assert expected_machine_time_restart(model, 0) == pytest.approx(
            model.num_tasks * model.mean_task_time, rel=1e-6
        )

    def test_finite_for_positive_r(self, model):
        for r in range(1, 5):
            assert math.isfinite(expected_machine_time_restart(model, r))

    def test_infinite_for_heavy_tail(self):
        m = StragglerModel(tmin=20.0, beta=0.9, num_tasks=10, deadline=100.0, tau_est=40.0, tau_kill=80.0)
        assert math.isinf(expected_machine_time_restart(m, 2))

    def test_conditional_decomposition_bounds(self, model):
        # The straggler branch adds time, so cost with speculation at small r
        # must stay below the no-speculation cost (stragglers get killed).
        no_spec = model.num_tasks * model.mean_task_time
        with_spec = expected_machine_time_restart(model, 1)
        assert with_spec < no_spec

    def test_increasing_in_r_eventually(self, model):
        # Each extra attempt adds (tau_kill - tau_est) of machine time per
        # straggler, so cost grows in r beyond the first few values.
        values = [expected_machine_time_restart(model, r) for r in range(1, 8)]
        assert values[-1] > values[0]


class TestTheorem4TailIntegral:
    """The closed-form tail integral against the committed mpmath table."""

    ROWS = [dict(zip(TAIL_REFERENCE["columns"], row)) for row in TAIL_REFERENCE["rows"]]

    def test_gauss_legendre_rule_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(len(_GL_RULE))
        ours = sorted(_GL_RULE)
        assert [node for node, _ in ours] == pytest.approx(list(nodes), abs=1e-15)
        assert [weight for _, weight in ours] == pytest.approx(list(weights), abs=1e-14)

    def test_table_covers_both_evaluation_paths(self):
        xs = [row["tau_est"] / row["deadline"] for row in self.ROWS]
        assert min(xs) == 0.0
        assert any(x > RESTART_SERIES_MAX_X for x in xs)
        assert sum(x <= RESTART_SERIES_MAX_X for x in xs) > len(xs) // 2

    def test_matches_high_precision_reference(self):
        worst = 0.0
        for row in self.ROWS:
            value = tail_integral(
                row["beta"], row["tmin"], row["deadline"], row["tau_est"], row["r"]
            )
            if row["value"] < 1e-290:
                # Below the asserted range the answer must still be tiny
                # and well formed, never garbage from a cancelled sum.
                assert 0.0 <= value < 1e-280, row
                continue
            error = abs(value - row["value"]) / row["value"]
            assert error <= 1e-10, (row, value)
            worst = max(worst, error)
        assert worst > 0.0  # the comparison really ran

    def test_where_scipy_quad_was_five_percent_off(self):
        row = TAIL_REFERENCE["quad_regression"]
        value = tail_integral(
            row["beta"], row["tmin"], row["deadline"], row["tau_est"], row["r"]
        )
        assert value == pytest.approx(row["value"], rel=1e-10)
        assert abs(row["scipy_quad"] - row["value"]) / row["value"] > 0.04

    def test_no_speculation_limit(self):
        # tau_est = 0 reduces the tail to the elementary
        # d (tmin/d)**e / (beta + e - 1).
        beta, tmin, deadline, r = 1.7, 12.0, 90.0, 3.0
        expected = deadline * (tmin / deadline) ** (beta * r) / (beta + beta * r - 1.0)
        assert tail_integral(beta, tmin, deadline, 0.0, r) == pytest.approx(expected, rel=1e-15)

    def test_restart_window_shorter_than_tmin(self):
        # D - tau_est <= tmin: no restart can help; the straggler branch is
        # the original attempt's conditional mean measured after tau_est.
        m = StragglerModel(tmin=20.0, beta=1.5, num_tasks=4, deadline=60.0,
                           tau_est=45.0, tau_kill=50.0)
        p_miss = m.straggler_probability
        below = m.attempt_distribution.conditional_mean_below(m.deadline)
        after = m.attempt_distribution.conditional_mean_above(m.deadline) - m.tau_est
        above = m.tau_est + 2 * (m.tau_kill - m.tau_est) + after
        expected = m.num_tasks * (below * (1 - p_miss) + above * p_miss)
        assert expected_machine_time_restart(m, 2) == pytest.approx(expected, rel=1e-15)


class TestTheorem6Resume:
    def test_closed_form(self, model):
        r = 2
        p_miss = model.straggler_probability
        below = model.attempt_distribution.conditional_mean_below(model.deadline)
        exponent = model.beta * (r + 1)
        above = (
            model.tau_est
            + r * (model.tau_kill - model.tau_est)
            + model.tmin * model.remaining_work_fraction**exponent / (exponent - 1.0)
            + model.tmin
        )
        expected = model.num_tasks * (below * (1 - p_miss) + above * p_miss)
        assert expected_machine_time_resume(model, r) == pytest.approx(expected)

    def test_finite_for_all_r(self, model):
        for r in range(6):
            assert math.isfinite(expected_machine_time_resume(model, r))

    def test_cheaper_than_restart_at_same_r(self, model):
        # Work preservation avoids reprocessing, so S-Resume is cheaper.
        for r in range(1, 5):
            assert expected_machine_time_resume(model, r) < expected_machine_time_restart(
                model, r
            )

    def test_cheaper_than_clone_at_same_r(self, model):
        for r in range(1, 5):
            assert expected_machine_time_resume(model, r) < expected_machine_time_clone(model, r)

    def test_infinite_for_heavy_tail(self):
        m = StragglerModel(
            tmin=20.0, beta=0.8, num_tasks=10, deadline=100.0, tau_est=40.0, tau_kill=80.0
        )
        assert math.isinf(expected_machine_time_resume(m, 1))


class TestGenericDispatch:
    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_dispatch_positive(self, model, strategy):
        assert expected_machine_time(model, strategy, 2) > 0.0

    def test_rejects_baseline(self, model):
        with pytest.raises(ValueError):
            expected_machine_time(model, StrategyName.MANTRI, 1)

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_scales_linearly_with_num_tasks(self, model, strategy):
        one = expected_machine_time(model.with_num_tasks(1), strategy, 2)
        ten = expected_machine_time(model.with_num_tasks(10), strategy, 2)
        assert ten == pytest.approx(10.0 * one, rel=1e-9)

    def test_expected_cost_scales_with_price(self, model):
        base = expected_cost(model, StrategyName.CLONE, 1, unit_price=1.0)
        double = expected_cost(model, StrategyName.CLONE, 1, unit_price=2.0)
        assert double == pytest.approx(2.0 * base)

    def test_expected_cost_rejects_negative_price(self, model):
        with pytest.raises(ValueError):
            expected_cost(model, StrategyName.CLONE, 1, unit_price=-1.0)
