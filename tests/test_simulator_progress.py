"""Unit tests for progress scores and completion-time estimators."""

from __future__ import annotations

import math

import pytest

from repro.simulator.entities import Attempt, Job, JobSpec
from repro.simulator.progress import (
    chronos_estimate_completion,
    hadoop_estimate_completion,
    observed_progress,
    predict_resume_offset,
)


def running_attempt(jvm_delay=4.0, processing_time=20.0, launch_time=0.0, offset=0.0) -> Attempt:
    spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
    job = Job(spec=spec)
    attempt = Attempt(task=job.tasks[0], created_time=0.0, start_offset=offset)
    attempt.mark_running(
        launch_time=launch_time,
        jvm_delay=jvm_delay,
        processing_time=processing_time,
    )
    return attempt


class TestObservedProgress:
    def test_zero_before_first_report(self):
        attempt = running_attempt(jvm_delay=5.0)
        assert observed_progress(attempt, 3.0) == 0.0

    def test_tracks_processing_after_report(self):
        attempt = running_attempt(jvm_delay=4.0, processing_time=20.0)
        assert observed_progress(attempt, 14.0) == pytest.approx(0.5)

    def test_waiting_attempt_shows_offset(self):
        spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        attempt = Attempt(task=job.tasks[0], created_time=0.0, start_offset=0.3)
        assert observed_progress(attempt, 50.0) == 0.3


class TestChronosEstimator:
    def test_exact_for_steady_attempt(self):
        """With linear progress the JVM-aware estimate is exact (eq. 30)."""
        attempt = running_attempt(jvm_delay=4.0, processing_time=20.0, launch_time=2.0)
        truth = 2.0 + 4.0 + 20.0
        estimate = chronos_estimate_completion(attempt, now=2.0 + 4.0 + 10.0)
        assert estimate == pytest.approx(truth)

    def test_infinite_before_first_report(self):
        attempt = running_attempt(jvm_delay=5.0)
        assert math.isinf(chronos_estimate_completion(attempt, 4.0))

    def test_infinite_for_waiting_attempt(self):
        spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        attempt = Attempt(task=job.tasks[0], created_time=0.0)
        assert math.isinf(chronos_estimate_completion(attempt, 10.0))

    def test_accounts_for_resume_offset(self):
        attempt = running_attempt(jvm_delay=2.0, processing_time=12.0, offset=0.5)
        # Half of the task's data remains; at 50% of its own work the
        # estimator should predict the true finish time.
        now = 2.0 + 6.0
        assert chronos_estimate_completion(attempt, now) == pytest.approx(2.0 + 12.0)


class TestHadoopEstimator:
    def test_overestimates_with_jvm_delay(self):
        """Ignoring JVM startup inflates the estimate (the paper's motivation)."""
        attempt = running_attempt(jvm_delay=10.0, processing_time=20.0)
        now = 20.0  # 10 s JVM + 10 s processing -> 50% progress
        truth = 30.0
        hadoop = hadoop_estimate_completion(attempt, now)
        chronos = chronos_estimate_completion(attempt, now)
        assert hadoop > truth
        assert chronos == pytest.approx(truth)

    def test_exact_without_jvm_delay(self):
        attempt = running_attempt(jvm_delay=0.0, processing_time=20.0)
        assert hadoop_estimate_completion(attempt, 10.0) == pytest.approx(20.0)

    def test_infinite_without_progress(self):
        attempt = running_attempt(jvm_delay=5.0)
        assert math.isinf(hadoop_estimate_completion(attempt, 2.0))


class TestPredictResumeOffset:
    def test_extrapolates_processing_rate(self):
        attempt = running_attempt(jvm_delay=2.0, processing_time=20.0)
        now = 12.0  # 10 s of processing -> progress 0.5, rate 0.05/s
        offset = predict_resume_offset(attempt, now, jvm_launch_estimate=4.0)
        assert offset == pytest.approx(0.5 + 4.0 * 0.05)

    def test_clipped_below_one(self):
        attempt = running_attempt(jvm_delay=0.0, processing_time=10.0)
        offset = predict_resume_offset(attempt, 9.9, jvm_launch_estimate=100.0)
        assert offset < 1.0

    def test_falls_back_to_current_progress(self):
        attempt = running_attempt(jvm_delay=5.0, processing_time=10.0)
        assert predict_resume_offset(attempt, 3.0, jvm_launch_estimate=0.0) == pytest.approx(0.0)
