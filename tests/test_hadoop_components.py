"""Unit tests for the Hadoop control-plane model (config, RM, NM, AM)."""

from __future__ import annotations

import pytest

from repro.core.model import StrategyName
from repro.hadoop.app_master import ApplicationMaster
from repro.hadoop.config import HadoopConfig
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import Attempt, AttemptStatus, Job, JobSpec
from repro.simulator.metrics import MetricsCollector
from repro.strategies import StrategyParameters, build_strategy


class TestHadoopConfig:
    def test_defaults_valid(self):
        config = HadoopConfig()
        assert config.jvm_startup_mean > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jvm_startup_mean": -1.0},
            {"jvm_startup_jitter": -0.5},
            {"jvm_startup_mean": 1.0, "jvm_startup_jitter": 2.0},
            {"container_grant_delay": -1.0},
            {"speculation_interval": 0.0},
            {"mantri_threshold": -1.0},
            {"mantri_max_extra_attempts": -1},
            {"hadoop_s_max_speculative_per_task": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HadoopConfig(**kwargs)

    def test_instantaneous(self):
        config = HadoopConfig.instantaneous()
        assert config.jvm_startup_mean == 0.0
        assert config.container_grant_delay == 0.0


def build_stack(num_nodes=2, slots=2, config=None):
    engine = SimulationEngine(seed=0)
    config = config if config is not None else HadoopConfig.instantaneous()
    rm = ResourceManager(engine, ClusterConfig(num_nodes=num_nodes, slots_per_node=slots), config)
    nm = NodeManager(engine, rm, config)
    return engine, config, rm, nm


def make_attempts(count):
    """One waiting attempt for each task of a fresh ``count``-task job."""
    spec = JobSpec(job_id="j", num_tasks=count, deadline=100.0, tmin=10.0, beta=1.5)
    return [Attempt(task=task, created_time=0.0) for task in Job(spec=spec).tasks]


def delayed_grants(delay):
    return HadoopConfig(jvm_startup_mean=0.0, jvm_startup_jitter=0.0, container_grant_delay=delay)


class TestResourceManager:
    def test_grants_when_capacity(self):
        engine, _, rm, _ = build_stack()
        (attempt,) = make_attempts(1)
        granted = []
        rm.request_container(attempt, granted.append)
        engine.run()
        assert granted == [attempt]
        assert rm.containers_in_use == 1

    def test_queues_when_full(self):
        engine, _, rm, _ = build_stack(num_nodes=1, slots=1)
        first, second = make_attempts(2)
        granted = []
        rm.request_container(first, granted.append)
        rm.request_container(second, granted.append)
        engine.run()
        assert granted == [first]
        assert rm.pending_requests == 1
        rm.release_container()
        engine.run()
        assert granted == [first, second]

    def test_attempt_killed_while_queued_is_skipped(self):
        engine, _, rm, _ = build_stack(num_nodes=1, slots=1)
        first, second = make_attempts(2)
        granted = []
        rm.request_container(first, granted.append)
        rm.request_container(second, granted.append)
        second.mark_killed(0.0)
        assert rm.pending_requests == 0
        engine.run()
        rm.release_container()
        engine.run()
        assert granted == [first]
        assert rm.containers_in_use == 0

    def test_release_with_nothing_granted_raises(self):
        _, _, rm, _ = build_stack()
        with pytest.raises(RuntimeError):
            rm.release_container()
        assert rm.containers_in_use == 0

    def test_grant_delay_applied(self):
        engine, _, rm, _ = build_stack(config=delayed_grants(2.0))
        times = []
        rm.request_container(make_attempts(1)[0], lambda attempt: times.append(engine.now))
        engine.run()
        assert times == [2.0]

    @pytest.mark.parametrize("grant_delay", [0.0, 1.5])
    def test_grant_calls_back_with_the_attempt(self, grant_delay):
        engine, _, rm, _ = build_stack(config=delayed_grants(grant_delay))
        (attempt,) = make_attempts(1)
        calls = []
        rm.request_container(attempt, calls.append)
        engine.run()
        assert calls == [attempt]
        assert rm.containers_in_use == 1

    def test_attempt_killed_during_the_grant_delay_still_gets_its_grant(self):
        # Only a queued attempt is skipped: one whose slot was already
        # taken receives the grant, and the receiver hands the slot back.
        engine, _, rm, _ = build_stack(num_nodes=1, slots=1, config=delayed_grants(1.0))
        first, second = make_attempts(2)
        granted = []
        rm.request_container(first, granted.append)
        rm.request_container(second, granted.append)
        assert rm.containers_in_use == 1 and rm.pending_requests == 1
        first.mark_killed(0.0)
        engine.run()
        assert granted == [first]
        assert rm.containers_in_use == 1 and rm.pending_requests == 1

    def test_has_idle_capacity(self):
        engine, _, rm, _ = build_stack(num_nodes=1, slots=1)
        assert rm.has_idle_capacity()
        first, second = make_attempts(2)
        granted = []
        rm.request_container(first, granted.append)
        rm.request_container(second, granted.append)
        engine.run()
        assert not rm.has_idle_capacity()
        second.mark_killed(0.0)  # the queue holds nobody who waits
        assert not rm.has_idle_capacity()  # but the one slot is taken
        rm.release_container()
        assert rm.has_idle_capacity()
        assert granted == [first]


class TestNodeManager:
    def test_launch_and_complete(self):
        engine, _, rm, nm = build_stack()
        (attempt,) = make_attempts(1)
        done = []
        rm.request_container(attempt, lambda granted: nm.launch(granted, 10.0, done.append))
        engine.run()
        assert done == [attempt]
        assert attempt.status is AttemptStatus.COMPLETED
        assert engine.now == pytest.approx(10.0)

    def test_kill_cancels_completion_and_releases(self):
        engine, _, rm, nm = build_stack(num_nodes=1, slots=1)
        (attempt,) = make_attempts(1)
        done = []
        rm.request_container(attempt, lambda granted: nm.launch(granted, 10.0, done.append))
        engine.run(until=5.0)
        nm.kill(attempt)
        engine.run()
        assert done == []
        assert attempt.status is AttemptStatus.KILLED
        assert rm.containers_in_use == 0

    @staticmethod
    def _launched_jvm_delays(config, count):
        """The JVM delays of ``count`` attempts launched on an unbounded stack."""
        engine, _, rm, nm = build_stack(num_nodes=0, config=config)
        attempts = make_attempts(count)
        for attempt in attempts:
            rm.request_container(attempt, lambda granted: nm.launch(granted, 10.0, lambda a: None))
        engine.run()
        return [attempt.jvm_delay for attempt in attempts]

    def test_jvm_delay_sampling_range(self):
        config = HadoopConfig(jvm_startup_mean=4.0, jvm_startup_jitter=1.0)
        delays = self._launched_jvm_delays(config, 200)
        assert all(3.0 <= d <= 5.0 for d in delays)
        assert len(set(delays)) > 100  # drawn per launch, not one fixed value

    def test_jvm_delay_is_fixed_without_jitter(self):
        config = HadoopConfig(jvm_startup_mean=4.0, jvm_startup_jitter=0.0)
        assert self._launched_jvm_delays(config, 3) == [4.0, 4.0, 4.0]

    def test_rejects_negative_processing_time(self):
        _, _, rm, nm = build_stack()
        (attempt,) = make_attempts(1)
        rm.request_container(attempt, lambda granted: None)
        with pytest.raises(ValueError):
            nm.launch(attempt, -1.0, lambda a: None)


class TestApplicationMaster:
    def build_am(
        self,
        strategy_name=StrategyName.HADOOP_NO_SPECULATION,
        num_tasks=3,
        fixed_r=None,
        num_nodes=0,
        config=None,
    ):
        engine, config, rm, nm = build_stack(num_nodes=num_nodes, slots=1, config=config)
        spec = JobSpec(job_id="j", num_tasks=num_tasks, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        metrics = MetricsCollector(strategy_name)
        params = StrategyParameters(tau_est=20.0, tau_kill=40.0, fixed_r=fixed_r)
        strategy = build_strategy(strategy_name, params)
        am = ApplicationMaster(
            engine=engine,
            job=job,
            strategy=strategy,
            resource_manager=rm,
            node_manager=nm,
            config=config,
            metrics=metrics,
        )
        return engine, am, job, metrics

    def test_start_launches_one_attempt_per_task(self):
        engine, am, job, _ = self.build_am()
        engine.schedule_at(0.0, am.start)
        engine.run(until=0.0)
        assert all(len(task.attempts) == 1 for task in job.tasks)

    def test_double_start_rejected(self):
        engine, am, job, _ = self.build_am()
        engine.schedule_at(0.0, am.start)
        engine.run(until=1.0)
        with pytest.raises(RuntimeError):
            am.start()

    def test_job_completes_and_records_metrics(self):
        engine, am, job, metrics = self.build_am()
        engine.schedule_at(0.0, am.start)
        engine.run()
        assert am.finished
        assert job.is_complete
        assert len(metrics.records) == 1
        assert metrics.records[0].num_attempts == 3

    def test_clone_launches_r_plus_one(self):
        engine, am, job, _ = self.build_am(StrategyName.CLONE, fixed_r=2)
        engine.schedule_at(0.0, am.start)
        engine.run(until=0.0)
        assert all(len(task.attempts) == 3 for task in job.tasks)
        assert job.extra_attempts == 2

    def test_completion_kills_redundant_attempts(self):
        engine, am, job, _ = self.build_am(StrategyName.CLONE, fixed_r=2)
        engine.schedule_at(0.0, am.start)
        engine.run()
        for task in job.tasks:
            statuses = [a.status for a in task.attempts]
            assert statuses.count(AttemptStatus.COMPLETED) == 1

    def test_scheduled_checks_cancelled_after_finish(self):
        engine, am, job, _ = self.build_am(StrategyName.SPECULATIVE_RESUME, fixed_r=1)
        engine.schedule_at(0.0, am.start)
        engine.run()
        assert am.finished
        # No lingering events should execute after the job completed.
        assert engine.pending_events == 0 or all(
            event.cancelled for event in engine._queue  # noqa: SLF001 - test introspection
        )

    def test_kill_during_the_grant_delay_hands_the_slot_on(self):
        engine, am, job, _ = self.build_am(num_tasks=2, num_nodes=1, config=delayed_grants(1.0))
        engine.schedule_at(0.0, am.start)
        engine.run(until=0.0)
        first, second = (task.attempts[0] for task in job.tasks)
        rm = am.resource_manager
        assert rm.containers_in_use == 1 and rm.pending_requests == 1
        am.kill_attempt(first)  # its slot is granted, its grant not yet delivered
        engine.run(until=1.0)
        # The delivery returned the slot, and the queue handed it on.
        assert first.status is AttemptStatus.KILLED and first.launch_time is None
        assert rm.containers_in_use == 1 and rm.pending_requests == 0
        engine.run(until=2.0)
        assert second.status is AttemptStatus.RUNNING and second.launch_time == 2.0

    def test_attempt_killed_while_queued_draws_no_processing_time(self):
        engine, am, job, _ = self.build_am(num_tasks=2, num_nodes=1)
        engine.schedule_at(0.0, am.start)
        engine.run(until=0.0)
        first, second = (task.attempts[0] for task in job.tasks)
        assert first.status is AttemptStatus.RUNNING and second.status is AttemptStatus.WAITING
        am.kill_attempt(second)
        engine.run()
        assert first.status is AttemptStatus.COMPLETED
        assert second.status is AttemptStatus.KILLED
        assert second.launch_time is None and second.processing_time is None
        assert am.resource_manager.containers_in_use == 0
        # The same stack's duration stream, drawn by hand: the first attempt
        # took the first sample, and the killed one took none.
        reference = self.build_am(num_tasks=2, num_nodes=1)[1]
        samples = reference._duration_samples  # noqa: SLF001 - test introspection
        assert first.processing_time == next(samples)
        assert next(am._duration_samples) == next(samples)  # noqa: SLF001

    def test_launch_attempt_on_complete_task_is_noop(self):
        engine, am, job, _ = self.build_am()
        engine.schedule_at(0.0, am.start)
        engine.run()
        assert am.launch_attempt(job.tasks[0]) is None

    def test_negative_r_from_strategy_rejected(self):
        engine, am, job, _ = self.build_am()

        class BadStrategy:
            name = StrategyName.CLONE

            def plan_job(self, am):
                return -1

            def initial_attempt_count(self, am, task):
                return 1

            def on_job_start(self, am):
                return None

            def on_task_complete(self, am, task, attempt):
                return None

        am._strategy = BadStrategy()  # noqa: SLF001 - fault injection
        with pytest.raises(ValueError):
            am.start()
