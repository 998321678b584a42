"""Integration tests of the full simulation runner."""

from __future__ import annotations

import gc

import pytest

from repro.api import ScenarioSpec, WorkloadSpec, run
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.simulator.runner import SimulationRunner
from repro.strategies import build_strategy

ALL_STRATEGIES = tuple(StrategyName)


class TestRunnerBasics:
    def test_rejects_empty_job_list(self, strategy_params):
        runner = SimulationRunner()
        with pytest.raises(ValueError):
            runner.run([], build_strategy(StrategyName.CLONE, strategy_params))

    def test_every_job_recorded_once(self, job_stream, strategy_params):
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=1)
        report = runner.run(job_stream, build_strategy(StrategyName.SPECULATIVE_RESUME, strategy_params))
        assert report.num_jobs == len(job_stream)
        assert len(report.job_records) == len(job_stream)
        assert len({record.job_id for record in report.job_records}) == len(job_stream)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_all_strategies_complete_all_jobs(self, job_stream, strategy_params, name):
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=2)
        report = runner.run(job_stream, build_strategy(name, strategy_params))
        assert report.num_jobs == len(job_stream)
        assert all(record.completion_time is not None for record in report.job_records)
        assert 0.0 <= report.pocd <= 1.0
        assert report.mean_machine_time > 0.0

    def test_deterministic_given_seed(self, job_stream, strategy_params):
        runner_a = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=7)
        runner_b = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=7)
        a = runner_a.run(job_stream, build_strategy(StrategyName.SPECULATIVE_RESUME, strategy_params))
        b = runner_b.run(job_stream, build_strategy(StrategyName.SPECULATIVE_RESUME, strategy_params))
        assert a.pocd == b.pocd
        assert a.mean_machine_time == pytest.approx(b.mean_machine_time)

    def test_different_seeds_differ(self, job_stream, strategy_params):
        a = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=1).run(
            job_stream, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        b = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=2).run(
            job_stream, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        assert a.mean_machine_time != pytest.approx(b.mean_machine_time)

    def test_run_strategies_helper(self, job_stream, strategy_params):
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=3)
        strategies = [
            build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params),
            build_strategy(StrategyName.SPECULATIVE_RESUME, strategy_params),
        ]
        reports = runner.run_strategies(job_stream, strategies)
        assert set(reports) == {
            StrategyName.HADOOP_NO_SPECULATION,
            StrategyName.SPECULATIVE_RESUME,
        }

    def test_max_events_truncation_still_reports(self, job_stream, strategy_params):
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=3, max_events=10)
        report = runner.run(job_stream, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params))
        assert report.num_jobs == len(job_stream)


class TestClusterContention:
    def test_small_cluster_delays_jobs(self, strategy_params):
        jobs = [
            JobSpec(
                job_id=f"job-{i}",
                num_tasks=8,
                deadline=100.0,
                tmin=20.0,
                beta=1.5,
                submit_time=0.0,
            )
            for i in range(6)
        ]
        tiny = SimulationRunner(cluster=ClusterConfig(num_nodes=1, slots_per_node=4), seed=4).run(
            jobs, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        big = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=4).run(
            jobs, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        assert tiny.mean_response_time > big.mean_response_time
        assert tiny.pocd <= big.pocd

    def test_queued_attempts_eventually_run(self, strategy_params):
        jobs = [
            JobSpec(
                job_id="burst",
                num_tasks=50,
                deadline=500.0,
                tmin=10.0,
                beta=1.6,
                submit_time=0.0,
            )
        ]
        report = SimulationRunner(
            cluster=ClusterConfig(num_nodes=2, slots_per_node=4), seed=5
        ).run(jobs, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params))
        assert report.job_records[0].completion_time is not None


def _cyclic_garbage_of(simulate) -> int:
    """Objects the cyclic collector finds after one call of ``simulate``."""
    simulate()  # warm process-wide caches (Algorithm 1, registries)
    gc.collect()
    gc.disable()
    try:
        simulate()
        return gc.collect()
    finally:
        gc.enable()


class TestTeardown:
    """A finished run frees its jobs, tasks and attempts by refcount."""

    @pytest.mark.parametrize("max_events", [None, 300])
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_runner_leaves_no_cyclic_garbage(self, strategy_params, name, max_events):
        # A capped run also drops its pending events, queued requests and
        # running attempts (2.4k-5.5k objects in cycles before).
        jobs = [
            JobSpec(job_id=f"job-{i}", num_tasks=10, deadline=100.0, tmin=20.0, beta=1.4,
                    submit_time=5.0 * i)
            for i in range(40)
        ]
        runner = SimulationRunner(
            cluster=ClusterConfig(num_nodes=4, slots_per_node=8), seed=6, max_events=max_events
        )
        strategy = build_strategy(name, strategy_params)
        assert _cyclic_garbage_of(lambda: runner.run(jobs, strategy)) < 100

    def test_run_facade_leaves_no_cyclic_garbage(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec("google-trace", {"num_jobs": 100}),
            strategy="s-resume",
            strategy_params={"tau_est": 0.3, "tau_kill": 0.8, "timing_relative_to_tmin": True},
            cluster={"num_nodes": 0},
        )
        assert _cyclic_garbage_of(lambda: run(spec)) < 100


class TestOverheadSensitivity:
    def test_zero_overhead_config_is_faster(self, job_stream, strategy_params):
        slow = SimulationRunner(
            cluster=ClusterConfig(num_nodes=0),
            hadoop=HadoopConfig(jvm_startup_mean=10.0, jvm_startup_jitter=0.0),
            seed=6,
        ).run(job_stream, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params))
        fast = SimulationRunner(
            cluster=ClusterConfig(num_nodes=0),
            hadoop=HadoopConfig.instantaneous(),
            seed=6,
        ).run(job_stream, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params))
        assert fast.mean_response_time < slow.mean_response_time

    def test_unit_price_scales_cost(self, strategy_params):
        jobs_cheap = [
            JobSpec(job_id="a", num_tasks=5, deadline=100.0, tmin=20.0, beta=1.5, unit_price=1.0)
        ]
        jobs_pricey = [
            JobSpec(job_id="a", num_tasks=5, deadline=100.0, tmin=20.0, beta=1.5, unit_price=3.0)
        ]
        cheap = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=8).run(
            jobs_cheap, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        pricey = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=8).run(
            jobs_pricey, build_strategy(StrategyName.HADOOP_NO_SPECULATION, strategy_params)
        )
        assert pricey.mean_cost == pytest.approx(3.0 * cheap.mean_cost)


class TestPaperShapeInvariants:
    """End-to-end checks of the qualitative orderings the paper reports."""

    @pytest.fixture
    def reports(self, strategy_params):
        jobs = [
            JobSpec(
                job_id=f"job-{i}",
                num_tasks=10,
                deadline=100.0,
                tmin=20.0,
                beta=1.3,
                submit_time=i * 5.0,
            )
            for i in range(60)
        ]
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=42)
        return {
            name: runner.run(jobs, build_strategy(name, strategy_params))
            for name in ALL_STRATEGIES
        }

    def test_hadoop_ns_has_lowest_pocd(self, reports):
        ns = reports[StrategyName.HADOOP_NO_SPECULATION].pocd
        assert all(ns <= report.pocd for report in reports.values())

    def test_chronos_strategies_beat_baseline_pocd(self, reports):
        ns = reports[StrategyName.HADOOP_NO_SPECULATION].pocd
        for name in (StrategyName.SPECULATIVE_RESTART, StrategyName.SPECULATIVE_RESUME):
            assert reports[name].pocd > ns

    def test_resume_at_least_as_good_as_restart(self, reports):
        assert (
            reports[StrategyName.SPECULATIVE_RESUME].pocd
            >= reports[StrategyName.SPECULATIVE_RESTART].pocd - 0.05
        )
        assert (
            reports[StrategyName.SPECULATIVE_RESUME].mean_machine_time
            <= reports[StrategyName.SPECULATIVE_RESTART].mean_machine_time * 1.05
        )

    def test_clone_is_most_expensive_chronos_strategy(self, reports):
        clone = reports[StrategyName.CLONE].mean_machine_time
        assert clone >= reports[StrategyName.SPECULATIVE_RESTART].mean_machine_time
        assert clone >= reports[StrategyName.SPECULATIVE_RESUME].mean_machine_time

    def test_best_utility_is_a_chronos_strategy(self, reports):
        r_min = max(0.0, reports[StrategyName.HADOOP_NO_SPECULATION].pocd - 1e-6)
        utilities = {
            name: report.net_utility(r_min_pocd=r_min, theta=1e-4)
            for name, report in reports.items()
        }
        best = max(utilities, key=utilities.get)
        assert best in (
            StrategyName.SPECULATIVE_RESUME,
            StrategyName.SPECULATIVE_RESTART,
            StrategyName.MANTRI,
        )
        # S-Resume must beat both Hadoop baselines.
        assert utilities[StrategyName.SPECULATIVE_RESUME] > utilities[StrategyName.HADOOP_SPECULATION]
