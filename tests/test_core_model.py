"""Unit tests for StragglerModel and StrategyName."""

from __future__ import annotations


import pytest

from repro.core.model import StragglerModel, StrategyName


class TestStrategyName:
    def test_chronos_strategies(self):
        chronos = StrategyName.chronos_strategies()
        assert StrategyName.CLONE in chronos
        assert StrategyName.SPECULATIVE_RESTART in chronos
        assert StrategyName.SPECULATIVE_RESUME in chronos
        assert len(chronos) == 3

    def test_is_chronos_flag(self):
        assert StrategyName.CLONE.is_chronos
        assert not StrategyName.MANTRI.is_chronos

    def test_display_names(self):
        assert StrategyName.SPECULATIVE_RESUME.display_name == "S-Resume"
        assert StrategyName.HADOOP_NO_SPECULATION.display_name == "Hadoop-NS"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("clone", StrategyName.CLONE),
            ("Speculative-Restart", StrategyName.SPECULATIVE_RESTART),
            ("s_resume", StrategyName.SPECULATIVE_RESUME),
            ("LATE", StrategyName.HADOOP_SPECULATION),
            ("hadoop-ns", StrategyName.HADOOP_NO_SPECULATION),
            ("Mantri", StrategyName.MANTRI),
        ],
    )
    def test_parse(self, text, expected):
        assert StrategyName.parse(text) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            StrategyName.parse("definitely-not-a-strategy")


class TestStragglerModelValidation:
    def test_valid_model(self, model):
        assert model.tmin == 20.0
        assert model.num_tasks == 10

    def test_rejects_bad_tmin(self):
        with pytest.raises(ValueError):
            StragglerModel(tmin=0.0, beta=1.5, num_tasks=10, deadline=100.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            StragglerModel(tmin=20.0, beta=-1.0, num_tasks=10, deadline=100.0)

    def test_rejects_bad_num_tasks(self):
        with pytest.raises(ValueError):
            StragglerModel(tmin=20.0, beta=1.5, num_tasks=0, deadline=100.0)

    def test_rejects_deadline_below_tmin(self):
        with pytest.raises(ValueError):
            StragglerModel(tmin=20.0, beta=1.5, num_tasks=10, deadline=15.0)

    def test_rejects_tau_est_after_deadline(self):
        with pytest.raises(ValueError):
            StragglerModel(
                tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, tau_est=100.0, tau_kill=120.0
            )

    def test_rejects_tau_kill_before_tau_est(self):
        with pytest.raises(ValueError):
            StragglerModel(
                tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, tau_est=50.0, tau_kill=40.0
            )

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            StragglerModel(
                tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, phi_est=1.0
            )

    def test_rejects_negative_tau_est(self):
        with pytest.raises(ValueError):
            StragglerModel(tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, tau_est=-1.0)


class TestStragglerModelDerived:
    def test_straggler_probability(self, model):
        assert model.straggler_probability == pytest.approx((20.0 / 100.0) ** 1.5)

    def test_mean_task_time(self, model):
        assert model.mean_task_time == pytest.approx(20.0 * 1.5 / 0.5)

    def test_attempt_distribution_parameters(self, model):
        dist = model.attempt_distribution
        assert dist.tmin == model.tmin
        assert dist.beta == model.beta

    def test_effective_phi_uses_explicit_value(self, model):
        assert model.effective_phi_est == 0.4

    def test_effective_phi_derived_when_missing(self):
        m = StragglerModel(
            tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, tau_est=40.0, tau_kill=80.0
        )
        assert 0.0 < m.effective_phi_est < 1.0

    def test_effective_phi_zero_without_detection_time(self):
        m = StragglerModel(tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0)
        assert m.effective_phi_est == 0.0

    def test_remaining_work_fraction(self, model):
        assert model.remaining_work_fraction == pytest.approx(0.6)

    def test_time_after_detection(self, model):
        assert model.time_after_detection == pytest.approx(60.0)


class TestStragglerModelTransformers:
    def test_with_deadline(self, model):
        new = model.with_deadline(200.0)
        assert new.deadline == 200.0
        assert new.tmin == model.tmin

    def test_with_num_tasks(self, model):
        assert model.with_num_tasks(50).num_tasks == 50

    def test_original_unchanged(self, model):
        model.with_deadline(500.0)
        assert model.deadline == 100.0
