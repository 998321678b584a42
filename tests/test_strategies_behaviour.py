"""Behavioural tests of the six speculation strategies in the simulator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import available_strategies
from repro.core.model import StrategyName
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import AttemptStatus, JobSpec
from repro.simulator.runner import SimulationRunner, default_estimator_for
from repro.simulator.progress import chronos_estimate_completion, hadoop_estimate_completion
from repro.strategies import (
    CloneStrategy,
    HadoopNoSpeculationStrategy,
    HadoopSpeculationStrategy,
    MantriStrategy,
    SpeculativeRestartStrategy,
    SpeculativeResumeStrategy,
    StrategyParameters,
    build_strategy,
)
from repro.hadoop.config import HadoopConfig


def run_single_strategy(name, jobs, params, seed=0, cluster=None, hadoop=None):
    runner = SimulationRunner(
        cluster=cluster if cluster is not None else ClusterConfig(num_nodes=0),
        hadoop=hadoop,
        seed=seed,
    )
    return runner.run(jobs, build_strategy(name, params))


@pytest.fixture
def tight_jobs():
    """Jobs with a deadline tight enough that stragglers matter."""
    return [
        JobSpec(
            job_id=f"job-{i}",
            num_tasks=10,
            deadline=90.0,
            tmin=20.0,
            beta=1.3,
            submit_time=i * 5.0,
        )
        for i in range(30)
    ]


class TestStrategyRegistry:
    def test_all_six_registered(self):
        assert set(available_strategies()) == {name.value for name in StrategyName}

    def test_build_strategy_types(self):
        mapping = {
            StrategyName.CLONE: CloneStrategy,
            StrategyName.SPECULATIVE_RESTART: SpeculativeRestartStrategy,
            StrategyName.SPECULATIVE_RESUME: SpeculativeResumeStrategy,
            StrategyName.HADOOP_NO_SPECULATION: HadoopNoSpeculationStrategy,
            StrategyName.HADOOP_SPECULATION: HadoopSpeculationStrategy,
            StrategyName.MANTRI: MantriStrategy,
        }
        for name, cls in mapping.items():
            assert isinstance(build_strategy(name), cls)

    def test_build_strategy_unknown(self):
        with pytest.raises(ValueError):
            build_strategy("not-a-strategy")

    def test_default_estimators(self):
        assert default_estimator_for(StrategyName.CLONE) is chronos_estimate_completion
        assert default_estimator_for(StrategyName.MANTRI) is hadoop_estimate_completion


class TestStrategyParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_est": -1.0},
            {"tau_est": 10.0, "tau_kill": 5.0},
            {"theta": -1.0},
            {"unit_price": -1.0},
            {"r_min_pocd": 1.5},
            {"fixed_r": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StrategyParameters(**kwargs)

    def test_replace_copies(self):
        params = StrategyParameters(tau_est=10.0, tau_kill=20.0, theta=1e-4)
        assert dataclasses.replace(params, tau_est=5.0, tau_kill=15.0).tau_est == 5.0
        # Original unchanged (frozen dataclass semantics).
        assert params.tau_est == 10.0


class TestHadoopNoSpeculation:
    def test_exactly_one_attempt_per_task(self, tight_jobs, strategy_params):
        report = run_single_strategy(
            StrategyName.HADOOP_NO_SPECULATION, tight_jobs, strategy_params
        )
        assert report.mean_attempts_per_task == pytest.approx(1.0)
        assert report.speculative_attempt_fraction == 0.0
        assert report.r_histogram == {0: len(tight_jobs)}


class TestHadoopSpeculation:
    def test_launches_some_speculation_but_bounded(self, tight_jobs, strategy_params):
        report = run_single_strategy(StrategyName.HADOOP_SPECULATION, tight_jobs, strategy_params)
        assert report.speculative_attempt_fraction > 0.0
        # At most one speculative copy per task by default.
        assert report.mean_attempts_per_task <= 2.0

    def test_improves_pocd_over_no_speculation(self, tight_jobs, strategy_params):
        ns = run_single_strategy(StrategyName.HADOOP_NO_SPECULATION, tight_jobs, strategy_params)
        hs = run_single_strategy(StrategyName.HADOOP_SPECULATION, tight_jobs, strategy_params)
        assert hs.pocd >= ns.pocd


class TestCloneStrategy:
    def test_fixed_r_controls_clones(self, tight_jobs):
        params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=2)
        report = run_single_strategy(StrategyName.CLONE, tight_jobs, params)
        assert report.r_histogram == {2: len(tight_jobs)}
        # r+1 attempts per task are created at job start.
        assert report.mean_attempts_per_task == pytest.approx(3.0)

    def test_optimizer_chooses_r(self, tight_jobs, strategy_params):
        report = run_single_strategy(StrategyName.CLONE, tight_jobs, strategy_params)
        assert all(r >= 0 for r in report.r_histogram)
        assert report.pocd > 0.0

    def test_zero_r_behaves_like_no_speculation(self, tight_jobs):
        params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=0)
        clone = run_single_strategy(StrategyName.CLONE, tight_jobs, params, seed=3)
        ns = run_single_strategy(StrategyName.HADOOP_NO_SPECULATION, tight_jobs, params, seed=3)
        assert clone.mean_attempts_per_task == pytest.approx(ns.mean_attempts_per_task)


class TestSpeculativeStrategies:
    def test_restart_only_speculates_on_stragglers(self, tight_jobs):
        params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=2)
        report = run_single_strategy(StrategyName.SPECULATIVE_RESTART, tight_jobs, params)
        # Fewer attempts than Clone at the same r because only stragglers
        # receive extras.
        assert 1.0 < report.mean_attempts_per_task < 3.0

    def test_resume_improves_pocd_over_no_speculation(self, tight_jobs, strategy_params):
        ns = run_single_strategy(StrategyName.HADOOP_NO_SPECULATION, tight_jobs, strategy_params)
        resume = run_single_strategy(StrategyName.SPECULATIVE_RESUME, tight_jobs, strategy_params)
        assert resume.pocd > ns.pocd

    def test_resume_cheaper_than_restart(self, tight_jobs, strategy_params):
        restart = run_single_strategy(
            StrategyName.SPECULATIVE_RESTART, tight_jobs, strategy_params, seed=11
        )
        resume = run_single_strategy(
            StrategyName.SPECULATIVE_RESUME, tight_jobs, strategy_params, seed=11
        )
        assert resume.mean_machine_time <= restart.mean_machine_time * 1.05

    def test_clone_costs_more_than_resume(self, tight_jobs, strategy_params):
        clone = run_single_strategy(StrategyName.CLONE, tight_jobs, strategy_params, seed=5)
        resume = run_single_strategy(
            StrategyName.SPECULATIVE_RESUME, tight_jobs, strategy_params, seed=5
        )
        assert clone.mean_machine_time > resume.mean_machine_time

    def test_resume_attempts_carry_offsets(self, tight_jobs):
        params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=1)
        report = run_single_strategy(StrategyName.SPECULATIVE_RESUME, tight_jobs, params)
        # Speculative attempts exist and the strategy stayed work-preserving
        # (jobs completed and PoCD is sensible).
        assert report.speculative_attempt_fraction > 0.0
        assert 0.0 < report.pocd <= 1.0


class TestMantri:
    def test_aggressive_speculation(self, tight_jobs, strategy_params):
        mantri = run_single_strategy(
            StrategyName.MANTRI,
            tight_jobs,
            strategy_params,
            hadoop=HadoopConfig(mantri_threshold=10.0),
        )
        resume = run_single_strategy(StrategyName.SPECULATIVE_RESUME, tight_jobs, strategy_params)
        assert mantri.mean_attempts_per_task > resume.mean_attempts_per_task

    def test_high_pocd(self, tight_jobs, strategy_params):
        ns = run_single_strategy(StrategyName.HADOOP_NO_SPECULATION, tight_jobs, strategy_params)
        mantri = run_single_strategy(StrategyName.MANTRI, tight_jobs, strategy_params)
        assert mantri.pocd > ns.pocd

    def test_respects_extra_attempt_cap(self, tight_jobs, strategy_params):
        report = run_single_strategy(
            StrategyName.MANTRI,
            tight_jobs,
            strategy_params,
            hadoop=HadoopConfig(mantri_max_extra_attempts=1, mantri_threshold=5.0),
        )
        capped = run_single_strategy(
            StrategyName.MANTRI,
            tight_jobs,
            strategy_params,
            hadoop=HadoopConfig(mantri_max_extra_attempts=3, mantri_threshold=5.0),
        )
        assert report.mean_attempts_per_task <= capped.mean_attempts_per_task


class TestTimingClipping:
    def test_relative_timing_scales_with_tmin(self):
        jobs = [
            JobSpec(job_id="a", num_tasks=5, deadline=100.0, tmin=20.0, beta=1.4),
            JobSpec(job_id="b", num_tasks=5, deadline=300.0, tmin=60.0, beta=1.4, submit_time=1.0),
        ]
        params = StrategyParameters(
            tau_est=0.3, tau_kill=0.8, fixed_r=1, timing_relative_to_tmin=True
        )
        report = run_single_strategy(StrategyName.SPECULATIVE_RESUME, jobs, params)
        assert report.num_jobs == 2

    def test_timing_clipped_when_deadline_short(self):
        jobs = [JobSpec(job_id="a", num_tasks=5, deadline=30.0, tmin=20.0, beta=1.4)]
        params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=1)
        report = run_single_strategy(StrategyName.SPECULATIVE_RESUME, jobs, params)
        assert report.num_jobs == 1


class TestLiveCount:
    """``Task.live`` equals the number of waiting or running attempts after every event.

    So does ``Job.remaining_tasks`` the number of incomplete tasks.
    """

    @pytest.mark.parametrize("num_nodes", [0, 3], ids=["unbounded", "contended"])
    @pytest.mark.parametrize(
        "name",
        [StrategyName.CLONE, StrategyName.SPECULATIVE_RESTART, StrategyName.SPECULATIVE_RESUME],
    )
    def test_live_count_matches_the_scan_after_every_event(self, name, num_nodes):
        from repro.hadoop.app_master import ApplicationMaster
        from repro.hadoop.node_manager import NodeManager
        from repro.hadoop.resource_manager import ResourceManager
        from repro.simulator.engine import SimulationEngine
        from repro.simulator.entities import Job
        from repro.simulator.metrics import MetricsCollector

        engine = SimulationEngine(seed=3)
        hadoop = HadoopConfig()
        rm = ResourceManager(engine, ClusterConfig(num_nodes=num_nodes, slots_per_node=4), hadoop)
        nm = NodeManager(engine, rm, hadoop)
        strategy = build_strategy(name, StrategyParameters(tau_est=15.0, tau_kill=35.0, fixed_r=2))
        metrics = MetricsCollector(strategy.name)
        jobs = [
            Job(
                spec=JobSpec(
                    job_id=f"job-{i}", num_tasks=6, deadline=45.0, tmin=10.0, beta=1.2,
                    submit_time=4.0 * i,
                )
            )
            for i in range(8)
        ]
        for job in jobs:
            am = ApplicationMaster(
                engine=engine,
                job=job,
                strategy=strategy,
                resource_manager=rm,
                node_manager=nm,
                config=hadoop,
                metrics=metrics,
                estimator=default_estimator_for(strategy.name),
            )
            engine.schedule_at(job.spec.submit_time, am.start)
        tasks = [task for job in jobs for task in job.tasks]
        most_live = 0
        while engine.step():
            for task in tasks:
                assert task.live == sum(
                    attempt.status in (AttemptStatus.WAITING, AttemptStatus.RUNNING)
                    for attempt in task.attempts
                )
                most_live = max(most_live, task.live)
            for job in jobs:
                assert job.remaining_tasks == len(job.incomplete_tasks())
                assert (job.completion_time is None) == (job.remaining_tasks > 0)
        assert most_live > 1  # the strategy ran redundant attempts
        assert len(metrics.records) == len(jobs)
        assert all(task.live == 0 for task in tasks)
