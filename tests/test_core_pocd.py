"""Unit tests for the closed-form PoCD (Theorems 1, 3, 5)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import (
    log_miss_probability_slope,
    pocd,
    pocd_clone,
    pocd_no_speculation,
    pocd_restart,
    pocd_resume,
    required_attempts_for_target,
    task_miss_probability,
    task_miss_probability_clone,
    task_miss_probability_restart,
    task_miss_probability_resume,
)

ALL_CHRONOS = StrategyName.chronos_strategies()


class TestTheorem1Clone:
    def test_closed_form(self, model):
        r = 2
        expected = (1.0 - (model.tmin / model.deadline) ** (model.beta * (r + 1))) ** model.num_tasks
        assert pocd_clone(model, r) == pytest.approx(expected)

    def test_r_zero_equals_no_speculation(self, model):
        assert pocd_clone(model, 0) == pytest.approx(pocd_no_speculation(model))

    def test_miss_probability_power_structure(self, model):
        p1 = task_miss_probability_clone(model, 0)
        p3 = task_miss_probability_clone(model, 2)
        assert p3 == pytest.approx(p1**3)

    def test_rejects_negative_r(self, model):
        with pytest.raises(ValueError):
            pocd_clone(model, -1)


class TestTheorem3Restart:
    def test_closed_form(self, model):
        r = 2
        expected_miss = (
            model.tmin ** (model.beta * (r + 1))
            / (model.deadline**model.beta * (model.deadline - model.tau_est) ** (model.beta * r))
        )
        assert pocd_restart(model, r) == pytest.approx((1.0 - expected_miss) ** model.num_tasks)

    def test_r_zero_matches_clone_r_zero(self, model):
        # With no extra attempts the strategies are identical.
        assert pocd_restart(model, 0) == pytest.approx(pocd_clone(model, 0))

    def test_degenerate_detection_window(self):
        # D - tau_est <= tmin: restarted attempts can never help.
        m = StragglerModel(
            tmin=20.0, beta=1.5, num_tasks=5, deadline=100.0, tau_est=85.0, tau_kill=95.0
        )
        assert pocd_restart(m, 3) == pytest.approx(pocd_restart(m, 0))


class TestTheorem5Resume:
    def test_closed_form(self, model):
        r = 2
        phi_bar = 1.0 - model.effective_phi_est
        expected_miss = (
            phi_bar ** (model.beta * (r + 1))
            * model.tmin ** (model.beta * (r + 2))
            / (
                model.deadline**model.beta
                * (model.deadline - model.tau_est) ** (model.beta * (r + 1))
            )
        )
        assert pocd_resume(model, r) == pytest.approx((1.0 - expected_miss) ** model.num_tasks)

    def test_zero_progress_reduces_to_restart_with_one_more_attempt(self, model):
        complete = StragglerModel(
            tmin=20.0,
            beta=1.5,
            num_tasks=10,
            deadline=100.0,
            tau_est=40.0,
            tau_kill=80.0,
            phi_est=0.0,
        )
        # phi = 0 reduces the resumed attempts to full restarts plus one.
        assert pocd_resume(complete, 1) == pytest.approx(pocd_restart(complete, 2), rel=1e-9)

    def test_resume_beats_restart_at_same_r(self, model):
        for r in range(4):
            assert pocd_resume(model, r) >= pocd_restart(model, r)


class TestPoCDGeneric:
    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_dispatch_matches_specific(self, model, strategy):
        specific = {
            StrategyName.CLONE: pocd_clone,
            StrategyName.SPECULATIVE_RESTART: pocd_restart,
            StrategyName.SPECULATIVE_RESUME: pocd_resume,
        }[strategy]
        assert pocd(model, strategy, 2) == pytest.approx(specific(model, 2))

    def test_rejects_baseline_strategy(self, model):
        with pytest.raises(ValueError):
            pocd(model, StrategyName.MANTRI, 1)

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_pocd_in_unit_interval(self, model, strategy):
        for r in range(6):
            value = pocd(model, strategy, r)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_pocd_increases_with_r(self, model, strategy):
        values = [pocd(model, strategy, r) for r in range(6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_pocd_increases_with_deadline(self, model, strategy):
        tight = pocd(model, strategy, 1)
        loose = pocd(model.with_deadline(300.0), strategy, 1)
        assert loose >= tight

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_pocd_decreases_with_more_tasks(self, model, strategy):
        few = pocd(model.with_num_tasks(5), strategy, 1)
        many = pocd(model.with_num_tasks(50), strategy, 1)
        assert many <= few

    @pytest.mark.parametrize("strategy", ALL_CHRONOS)
    def test_miss_probability_dispatch(self, model, strategy):
        assert 0.0 <= task_miss_probability(model, strategy, 1) <= 1.0

    def test_miss_probability_rejects_baseline(self, model):
        with pytest.raises(ValueError):
            task_miss_probability(model, StrategyName.HADOOP_SPECULATION, 1)


class TestPoCDHelpers:
    def test_required_attempts_for_target(self, model):
        r = required_attempts_for_target(model, StrategyName.CLONE, 0.99)
        assert pocd(model, StrategyName.CLONE, r) >= 0.99
        if r > 0:
            assert pocd(model, StrategyName.CLONE, r - 1) < 0.99

    def test_required_attempts_rejects_bad_target(self, model):
        with pytest.raises(ValueError):
            required_attempts_for_target(model, StrategyName.CLONE, 1.5)

    def test_required_attempts_unreachable(self):
        m = StragglerModel(tmin=20.0, beta=0.2, num_tasks=200, deadline=21.0)
        with pytest.raises(ValueError):
            required_attempts_for_target(m, StrategyName.CLONE, 0.999999, r_max=1)

    def test_one_more_attempt_raises_pocd(self, model):
        assert pocd(model, StrategyName.CLONE, 2) - pocd(model, StrategyName.CLONE, 1) > 0.0

    def test_log_miss_slope_negative(self, model):
        for strategy in ALL_CHRONOS:
            assert log_miss_probability_slope(model, strategy) < 0.0

    def test_resume_miss_probability_zero_when_no_work_left(self, model):
        complete = model.with_phi_est(0.999999999)
        value = task_miss_probability_resume(complete, 1)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_restart_miss_uses_detection_window(self, model):
        # Larger tau_est shrinks the window and raises the miss probability.
        early = task_miss_probability_restart(replace(model, tau_est=10.0, tau_kill=80.0), 2)
        late = task_miss_probability_restart(replace(model, tau_est=70.0, tau_kill=80.0), 2)
        assert late > early
