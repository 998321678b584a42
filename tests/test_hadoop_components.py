"""Unit tests for the Hadoop control-plane model (config, RM, NM, AM)."""

from __future__ import annotations

import pytest

from repro.core.model import StrategyName
from repro.hadoop.app_master import ApplicationMaster
from repro.hadoop.config import HadoopConfig
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import AttemptStatus, Job, JobSpec
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
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, slots_per_node=slots))
    rm = ResourceManager(engine, cluster, config)
    nm = NodeManager(engine, rm, config)
    return engine, config, cluster, rm, nm


class TestResourceManager:
    def test_grants_when_capacity(self):
        engine, _, _, rm, _ = build_stack()
        granted = []
        rm.request_container(granted.append, "a")
        engine.run()
        assert granted == ["a"]
        assert rm.granted_containers == 1

    def test_queues_when_full(self):
        engine, _, _, rm, _ = build_stack(num_nodes=1, slots=1)
        granted = []
        rm.request_container(granted.append, "first")
        rm.request_container(granted.append, "second")
        engine.run()
        assert granted == ["first"]
        assert rm.pending_requests == 1
        rm.release_container()
        engine.run()
        assert granted == ["first", "second"]

    def test_cancelled_request_skipped(self):
        engine, _, _, rm, _ = build_stack(num_nodes=1, slots=1)
        granted = []
        rm.request_container(granted.append, "first")
        second = rm.request_container(granted.append, "second")
        second.cancel()
        engine.run()
        rm.release_container()
        engine.run()
        assert granted == ["first"]

    def test_release_with_nothing_granted_raises(self):
        _, _, cluster, rm, _ = build_stack()
        with pytest.raises(RuntimeError):
            rm.release_container()
        assert cluster.containers_in_use == 0

    def test_cancelled_request_with_granted_container_returns_it(self):
        config = HadoopConfig(jvm_startup_mean=0.0, jvm_startup_jitter=0.0, container_grant_delay=1.0)
        engine, _, cluster, rm, _ = build_stack(num_nodes=1, slots=1, config=config)
        granted = []
        request = rm.request_container(granted.append, "a")
        request.cancel()
        engine.run()
        assert granted == []
        assert cluster.containers_in_use == 0

    def test_grant_delay_applied(self):
        config = HadoopConfig(container_grant_delay=2.0, jvm_startup_mean=0.0, jvm_startup_jitter=0.0)
        engine, _, _, rm, _ = build_stack(config=config)
        times = []
        rm.request_container(lambda: times.append(engine.now))
        engine.run()
        assert times == [2.0]

    @pytest.mark.parametrize("grant_delay", [0.0, 1.5])
    def test_grant_calls_back_with_the_request_args(self, grant_delay):
        config = HadoopConfig(
            jvm_startup_mean=0.0, jvm_startup_jitter=0.0, container_grant_delay=grant_delay
        )
        engine, _, cluster, rm, _ = build_stack(config=config)
        calls = []
        rm.request_container(lambda a, b: calls.append((a, b)), "a", 2)
        engine.run()
        assert calls == [("a", 2)]
        assert rm.granted_containers == 1
        assert cluster.containers_in_use == 1

    def test_request_cancelled_before_delivery_returns_container_to_the_queue(self):
        config = HadoopConfig(jvm_startup_mean=0.0, jvm_startup_jitter=0.0, container_grant_delay=1.0)
        engine, _, cluster, rm, _ = build_stack(num_nodes=1, slots=1, config=config)
        granted = []
        first = rm.request_container(granted.append, "first")
        rm.request_container(granted.append, "second")
        assert cluster.containers_in_use == 1 and rm.pending_requests == 1
        first.cancel()  # granted a container, not yet delivered
        engine.run()
        # The cancelled delivery released the slot, which the queue handed on.
        assert granted == ["second"]
        assert rm.granted_containers == 1
        assert cluster.containers_in_use == 1
        rm.release_container()
        assert cluster.containers_in_use == 0

    def test_has_idle_capacity(self):
        engine, _, _, rm, _ = build_stack(num_nodes=1, slots=1)
        assert rm.has_idle_capacity()
        granted = []
        rm.request_container(granted.append, "first")
        rm.request_container(granted.append, "second")
        engine.run()
        assert not rm.has_idle_capacity()


class TestNodeManager:
    def test_launch_and_complete(self):
        engine, _, _, rm, nm = build_stack()
        spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        from repro.simulator.entities import Attempt

        attempt = Attempt(task=job.tasks[0], created_time=0.0)
        done = []
        rm.request_container(nm.launch, attempt, 10.0, done.append)
        engine.run()
        assert done == [attempt]
        assert attempt.status is AttemptStatus.COMPLETED
        assert engine.now == pytest.approx(10.0)

    def test_kill_cancels_completion_and_releases(self):
        engine, _, cluster, rm, nm = build_stack(num_nodes=1, slots=1)
        spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        from repro.simulator.entities import Attempt

        attempt = Attempt(task=job.tasks[0], created_time=0.0)
        done = []
        rm.request_container(nm.launch, attempt, 10.0, done.append)
        engine.run(until=5.0)
        nm.kill(attempt)
        engine.run()
        assert done == []
        assert attempt.status is AttemptStatus.KILLED
        assert cluster.containers_in_use == 0

    @staticmethod
    def _launched_jvm_delays(config, count):
        """The JVM delays of ``count`` attempts launched on an unbounded stack."""
        from repro.simulator.entities import Attempt

        engine, _, _, rm, nm = build_stack(num_nodes=0, config=config)
        spec = JobSpec(job_id="j", num_tasks=count, deadline=100.0, tmin=10.0, beta=1.5)
        attempts = [Attempt(task=task, created_time=0.0) for task in Job(spec=spec).tasks]
        for attempt in attempts:
            rm.request_container(nm.launch, attempt, 10.0, lambda a: None)
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
        engine, _, _, rm, nm = build_stack()
        spec = JobSpec(job_id="j", num_tasks=1, deadline=100.0, tmin=10.0, beta=1.5)
        job = Job(spec=spec)
        from repro.simulator.entities import Attempt

        attempt = Attempt(task=job.tasks[0], created_time=0.0)
        assert rm.cluster.allocate()
        with pytest.raises(ValueError):
            nm.launch(attempt, -1.0, lambda a: None)


class TestApplicationMaster:
    def build_am(self, strategy_name=StrategyName.HADOOP_NO_SPECULATION, num_tasks=3, fixed_r=None):
        engine, config, cluster, rm, nm = build_stack(num_nodes=0)
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
