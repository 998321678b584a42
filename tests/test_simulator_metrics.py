"""Unit tests for metrics collection and reporting."""

from __future__ import annotations

import math

import pytest

from repro.core.model import StrategyName
from repro.simulator.entities import Attempt, Job, JobSpec
from repro.simulator.metrics import MetricsCollector


def finished_job(job_id="j", num_tasks=2, deadline=100.0, duration=50.0, price=2.0) -> Job:
    spec = JobSpec(
        job_id=job_id,
        num_tasks=num_tasks,
        deadline=deadline,
        tmin=10.0,
        beta=1.5,
        unit_price=price,
    )
    job = Job(spec=spec)
    for task in job.tasks:
        attempt = Attempt(task=task, created_time=0.0)
        task.attempts.append(attempt)
        attempt.mark_running(0.0, 0.0, duration)
        attempt.mark_completed(duration)
        task.completion_time = duration
    job.completion_time = duration
    return job


class TestMetricsCollector:
    def test_empty_report_rejected(self):
        collector = MetricsCollector(StrategyName.CLONE)
        with pytest.raises(ValueError):
            collector.build_report()

    def test_record_job_fields(self):
        collector = MetricsCollector(StrategyName.CLONE)
        record = collector.record_job(finished_job(duration=40.0, price=2.0), now=40.0)
        assert record.met_deadline
        assert record.machine_time == pytest.approx(80.0)
        assert record.cost == pytest.approx(160.0)
        assert record.num_attempts == 2
        assert record.num_speculative_attempts == 0
        assert record.response_time == pytest.approx(40.0)

    def test_missed_deadline_recorded(self):
        collector = MetricsCollector(StrategyName.CLONE)
        record = collector.record_job(finished_job(deadline=10.0, duration=50.0), now=50.0)
        assert not record.met_deadline

    def test_report_aggregates(self):
        collector = MetricsCollector(StrategyName.SPECULATIVE_RESUME)
        collector.record_job(finished_job("a", duration=40.0, deadline=100.0), now=40.0)
        collector.record_job(finished_job("b", duration=200.0, deadline=100.0), now=200.0)
        report = collector.build_report()
        assert report.strategy is StrategyName.SPECULATIVE_RESUME
        assert report.num_jobs == 2
        assert report.pocd == pytest.approx(0.5)
        assert report.mean_machine_time == pytest.approx((80.0 + 400.0) / 2)
        assert report.total_machine_time == pytest.approx(480.0)
        assert report.mean_attempts_per_task == pytest.approx(1.0)
        assert report.r_histogram == {0: 2}

    def test_net_utility(self):
        collector = MetricsCollector(StrategyName.CLONE)
        collector.record_job(finished_job(duration=40.0), now=40.0)
        report = collector.build_report()
        expected = math.log10(1.0 - 0.2) - 1e-3 * report.mean_cost
        assert report.net_utility(r_min_pocd=0.2, theta=1e-3) == pytest.approx(expected)

    def test_net_utility_infeasible(self):
        collector = MetricsCollector(StrategyName.CLONE)
        collector.record_job(finished_job(deadline=10.0, duration=50.0), now=50.0)
        report = collector.build_report()
        assert report.net_utility(r_min_pocd=0.5) == -math.inf

    def test_records_are_immutable_snapshot(self):
        collector = MetricsCollector(StrategyName.CLONE)
        collector.record_job(finished_job(), now=50.0)
        records = collector.records
        assert len(records) == 1
        assert isinstance(records, tuple)
