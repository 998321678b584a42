"""Throughput benchmarks of the simulation substrate itself.

Not tied to a specific table/figure: these measure how fast the
discrete-event simulator processes a trace, which is what determines how
close to the paper's full 2700-job / 1M-task scale the harness can run.
Each also records ``python_calls_per_attempt`` from a separate, untimed
run under a ``sys.setprofile`` counter, and ``gc_passes_per_attempt``,
the cyclic collector's passes during that run: work counts that do not
depend on the host's speed, which ``check_trend.py`` writes into the
trend line without gating them.
"""

from __future__ import annotations

import gc

from conftest import count_calls, run_once

from repro.core.model import StrategyName
from repro.simulator.cluster import ClusterConfig
from repro.simulator.runner import SimulationRunner
from repro.strategies import StrategyParameters, build_strategy
from repro.traces.google_trace import GoogleTraceConfig, SyntheticGoogleTrace


def _collector_passes() -> int:
    """Passes the cyclic collector has made in this process, all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def record_calls_per_attempt(benchmark, run, *args) -> None:
    """Count one more, untimed ``run(*args)`` into ``extra_info``.

    A full collection first empties the young generation, so the pass
    count depends on the run alone, not on what the test allocated
    before it.
    """
    gc.collect()
    passes = _collector_passes()
    report, calls = count_calls(run, *args)
    passes = _collector_passes() - passes
    attempts = sum(record.num_attempts for record in report.job_records)
    benchmark.extra_info["python_calls_per_attempt"] = calls / attempts
    benchmark.extra_info["gc_passes_per_attempt"] = passes / attempts


def test_bench_trace_simulation_throughput(benchmark):
    """Simulate a 100-job synthetic Google trace under S-Resume."""
    jobs = SyntheticGoogleTrace(GoogleTraceConfig.small(num_jobs=100, seed=3)).job_specs()
    params = StrategyParameters(
        tau_est=0.3, tau_kill=0.8, theta=1e-4, timing_relative_to_tmin=True
    )
    runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), seed=3)

    strategy = build_strategy(StrategyName.SPECULATIVE_RESUME, params)
    report = run_once(benchmark, runner.run, jobs, strategy)
    record_calls_per_attempt(benchmark, runner.run, jobs, strategy)
    mean_s = max(benchmark.stats.stats.mean, 1e-9)
    benchmark.extra_info["jobs"] = report.num_jobs
    benchmark.extra_info["pocd"] = report.pocd
    benchmark.extra_info["scenarios_per_sec"] = 1.0 / mean_s
    benchmark.extra_info["jobs_per_sec"] = report.num_jobs / mean_s
    assert report.num_jobs == 100


def test_bench_contended_cluster_simulation(benchmark):
    """Simulate the paper's 40-node testbed shape with container contention."""
    from repro.traces.workloads import benchmark_jobs

    jobs = benchmark_jobs("sort", num_jobs=60, inter_arrival=3.0)
    params = StrategyParameters(tau_est=40.0, tau_kill=80.0, theta=1e-4)
    runner = SimulationRunner(cluster=ClusterConfig(num_nodes=40, slots_per_node=8), seed=4)

    strategy = build_strategy(StrategyName.CLONE, params)
    report = run_once(benchmark, runner.run, jobs, strategy)
    record_calls_per_attempt(benchmark, runner.run, jobs, strategy)
    mean_s = max(benchmark.stats.stats.mean, 1e-9)
    benchmark.extra_info["pocd"] = report.pocd
    benchmark.extra_info["scenarios_per_sec"] = 1.0 / mean_s
    benchmark.extra_info["jobs_per_sec"] = report.num_jobs / mean_s
    assert report.num_jobs == 60
