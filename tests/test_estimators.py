"""Tests for the estimator ablation (``repro.experiments.estimators``)."""

from __future__ import annotations

import pytest

from repro.core.model import StrategyName
from repro.experiments.estimators import estimation_errors, estimator_ablation
from repro.simulator.entities import JobSpec
from repro.simulator.progress import chronos_estimate_completion, hadoop_estimate_completion
from repro.strategies import StrategyParameters


class TestEstimatorAblation:
    @pytest.fixture
    def jobs(self):
        return [
            JobSpec(
                job_id=f"job-{i}",
                num_tasks=8,
                deadline=90.0,
                tmin=20.0,
                beta=1.3,
                submit_time=i * 10.0,
            )
            for i in range(15)
        ]

    def test_ablation_runs_both_estimators(self, jobs):
        result = estimator_ablation(
            jobs,
            StrategyName.SPECULATIVE_RESUME,
            StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=2),
            seed=3,
        )
        assert result.chronos_report.num_jobs == len(jobs)
        assert result.hadoop_report.num_jobs == len(jobs)
        assert result.hadoop_report.mean_cost > 0.0
        assert -1.0 <= result.pocd_gain <= 1.0

    def test_hadoop_estimator_speculates_more(self, jobs):
        """The JVM-blind estimator over-detects stragglers (more speculation)."""
        result = estimator_ablation(
            jobs,
            StrategyName.SPECULATIVE_RESTART,
            StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=1),
            seed=4,
        )
        assert result.speculation_ratio >= 1.0

    def test_estimation_errors_chronos_smaller(self, job_spec):
        chronos_errors = estimation_errors(
            job_spec, chronos_estimate_completion, jvm_delay=8.0, samples=300, seed=0
        )
        hadoop_errors = estimation_errors(
            job_spec, hadoop_estimate_completion, jvm_delay=8.0, samples=300, seed=0
        )
        mean_abs_chronos = sum(abs(e) for e in chronos_errors) / len(chronos_errors)
        mean_abs_hadoop = sum(abs(e) for e in hadoop_errors) / len(hadoop_errors)
        assert mean_abs_chronos < mean_abs_hadoop

    def test_estimation_errors_validation(self, job_spec):
        with pytest.raises(ValueError):
            estimation_errors(job_spec, chronos_estimate_completion, observation_fraction=0.0)
