"""Unit tests for Job / Task / Attempt state machines."""

from __future__ import annotations

import pytest

from repro.simulator.entities import Attempt, AttemptStatus, Job, JobSpec


def make_job(num_tasks=3, deadline=100.0, submit=0.0) -> Job:
    spec = JobSpec(
        job_id="j",
        num_tasks=num_tasks,
        deadline=deadline,
        tmin=20.0,
        beta=1.4,
        submit_time=submit,
    )
    return Job(spec=spec)


class TestJobSpec:
    def test_absolute_deadline(self):
        spec = JobSpec(job_id="j", num_tasks=1, deadline=50.0, tmin=10.0, beta=1.5, submit_time=5.0)
        assert spec.absolute_deadline == 55.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"deadline": 0.0},
            {"tmin": 0.0},
            {"beta": -1.0},
            {"submit_time": -1.0},
            {"unit_price": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(job_id="j", num_tasks=2, deadline=50.0, tmin=10.0, beta=1.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            JobSpec(**base)

    def test_to_straggler_model(self):
        spec = JobSpec(job_id="j", num_tasks=4, deadline=80.0, tmin=10.0, beta=1.5)
        model = spec.to_straggler_model(tau_est=20.0, tau_kill=40.0)
        assert model.num_tasks == 4
        assert model.deadline == 80.0
        assert model.tau_est == 20.0

    def test_attempt_distribution(self):
        spec = JobSpec(job_id="j", num_tasks=4, deadline=80.0, tmin=10.0, beta=1.5)
        assert spec.attempt_distribution.mean() == pytest.approx(30.0)


class TestAttempt:
    def make_attempt(self, offset=0.0):
        """The only attempt of a fresh job, so the job's VM time is its own."""
        job = make_job()
        attempt = Attempt(task=job.tasks[0], created_time=0.0, start_offset=offset)
        job.tasks[0].attempts.append(attempt)
        return attempt

    def test_initial_state(self):
        attempt = self.make_attempt()
        assert attempt.status is AttemptStatus.WAITING
        assert not attempt.is_active
        assert attempt.first_progress_time is None

    def test_rejects_bad_offset(self):
        job = make_job()
        with pytest.raises(ValueError):
            Attempt(task=job.tasks[0], created_time=0.0, start_offset=1.0)

    def test_run_and_complete(self):
        attempt = self.make_attempt()
        attempt.mark_running(launch_time=5.0, jvm_delay=2.0, processing_time=10.0)
        assert attempt.is_active
        assert attempt.first_progress_time == 7.0
        attempt.mark_completed(17.0)
        assert attempt.status is AttemptStatus.COMPLETED
        assert attempt.progress(100.0) == 1.0
        assert attempt.task.job.machine_time(100.0) == pytest.approx(12.0)

    def test_cannot_start_twice(self):
        attempt = self.make_attempt()
        attempt.mark_running(0.0, 1.0, 10.0)
        with pytest.raises(RuntimeError):
            attempt.mark_running(1.0, 1.0, 10.0)

    def test_cannot_complete_from_waiting(self):
        attempt = self.make_attempt()
        with pytest.raises(RuntimeError):
            attempt.mark_completed(1.0)

    def test_kill_waiting_attempt(self):
        attempt = self.make_attempt()
        attempt.mark_killed(3.0)
        assert attempt.status is AttemptStatus.KILLED
        assert attempt.task.job.machine_time(10.0) == 0.0

    def test_kill_running_attempt_counts_machine_time(self):
        attempt = self.make_attempt()
        attempt.mark_running(2.0, 1.0, 100.0)
        attempt.mark_killed(12.0)
        assert attempt.task.job.machine_time(50.0) == pytest.approx(10.0)

    def test_kill_after_completion_is_noop(self):
        attempt = self.make_attempt()
        attempt.mark_running(0.0, 1.0, 5.0)
        attempt.mark_completed(6.0)
        attempt.mark_killed(8.0)
        assert attempt.status is AttemptStatus.COMPLETED

    def test_progress_accounts_for_jvm_delay(self):
        attempt = self.make_attempt()
        attempt.mark_running(0.0, 4.0, 10.0)
        assert attempt.progress(2.0) == 0.0
        assert attempt.progress(9.0) == pytest.approx(0.5)
        assert attempt.progress(100.0) == pytest.approx(1.0)

    def test_progress_with_offset(self):
        attempt = self.make_attempt(offset=0.4)
        attempt.mark_running(0.0, 0.0, 10.0)
        assert attempt.progress(0.0) == pytest.approx(0.4)
        assert attempt.progress(5.0) == pytest.approx(0.4 + 0.5 * 0.6)
        assert attempt.work_fraction == pytest.approx(0.6)

    def test_live_count_follows_the_lifecycle(self):
        attempt = self.make_attempt()
        task = attempt.task
        assert task.live == 1
        attempt.mark_running(0.0, 1.0, 5.0)
        assert task.live == 1
        attempt.mark_completed(6.0)
        assert task.live == 0
        attempt.mark_killed(8.0)  # a no-op for a finished attempt
        assert task.live == 0

    def test_live_count_drops_once_per_kill(self):
        attempt = self.make_attempt()
        attempt.mark_killed(1.0)
        attempt.mark_killed(2.0)
        assert attempt.task.live == 0 and not attempt.is_active

    def test_attempt_ids_unique(self):
        a = self.make_attempt()
        b = self.make_attempt()
        assert a.attempt_id != b.attempt_id


class TestTaskAndJob:
    def test_job_creates_tasks(self):
        job = make_job(num_tasks=5)
        assert len(job.tasks) == 5
        assert not job.is_complete
        assert job.met_deadline is None

    def test_task_ids(self):
        job = make_job()
        assert job.tasks[1].task_id == "j/task-1"

    def test_task_completion_marks_job(self):
        job = make_job(num_tasks=2)
        assert job.remaining_tasks == 2
        for task in job.tasks:
            attempt = Attempt(task=task, created_time=0.0)
            task.attempts.append(attempt)
            attempt.mark_running(0.0, 0.0, 10.0)
            attempt.mark_completed(10.0)
            task.completion_time = 10.0
        job.completion_time = 10.0  # what the master does once none remains
        assert job.is_complete
        assert job.met_deadline is True
        assert job.response_time == pytest.approx(10.0)

    def test_job_misses_deadline(self):
        job = make_job(num_tasks=1, deadline=5.0)
        task = job.tasks[0]
        task.completion_time = job.completion_time = 50.0
        assert job.met_deadline is False

    def test_incomplete_tasks(self):
        job = make_job(num_tasks=3)
        job.tasks[0].completion_time = 5.0
        assert len(job.incomplete_tasks()) == 2

    def test_job_machine_time_sums_attempts(self):
        job = make_job(num_tasks=2)
        for task in job.tasks:
            attempt = Attempt(task=task, created_time=0.0)
            task.attempts.append(attempt)
            attempt.mark_running(0.0, 0.0, 10.0)
            attempt.mark_completed(10.0)
        assert job.machine_time(now=20.0) == pytest.approx(20.0)

    def test_job_machine_time_is_a_sum_of_task_sums(self):
        """VM time runs from launch to end or ``now``; unlaunched attempts cost 0."""
        job = make_job(num_tasks=2)
        first, second = job.tasks
        spans = [(first, 0.0, 3.1), (first, 0.7, None), (second, 1.3, 9.9)]
        for task, launch, end in spans:
            attempt = Attempt(task=task, created_time=0.0, is_original=False)
            task.attempts.append(attempt)
            attempt.mark_running(launch, 0.5, 100.0)
            if end is not None:
                attempt.mark_killed(end)
        waiting = Attempt(task=second, created_time=0.0)
        second.attempts.append(waiting)
        now = 5.2
        expected = sum(
            [sum([3.1 - 0.0, now - 0.7]), sum([min(9.9, now) - 1.3, 0.0])]
        )
        assert job.machine_time(now) == expected  # bit for bit
