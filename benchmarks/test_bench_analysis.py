"""Benchmarks of the analytical machinery.

These benches cover the pieces of the paper that are not a single
table/figure: the Algorithm-1 optimizer versus brute force, and the
estimator ablation of Section VI.  The closed forms of Theorems 1-6 are
checked against the simulator by ``tests/test_conformance.py``.
"""

from __future__ import annotations

from bench_support import run_once

from repro.core.model import StragglerModel, StrategyName
from repro.core.optimizer import ChronosOptimizer, brute_force_optimum
from repro.experiments.estimators import estimator_ablation
from repro.simulator.entities import JobSpec
from repro.strategies import StrategyParameters


def reference_model() -> StragglerModel:
    return StragglerModel(
        tmin=20.0, beta=1.5, num_tasks=10, deadline=100.0, tau_est=40.0, tau_kill=80.0, phi_est=0.4
    )


def test_bench_optimizer_algorithm1(benchmark):
    """Algorithm 1 across a grid of jobs; must match brute force everywhere."""

    def run():
        mismatches = 0
        evaluations = 0
        for num_tasks in (5, 20, 100):
            for theta in (1e-5, 1e-4, 1e-3):
                model = reference_model().with_num_tasks(num_tasks)
                optimizer = ChronosOptimizer(model, theta=theta)
                for strategy in StrategyName.chronos_strategies():
                    result = optimizer.optimize(strategy)
                    r_star, _ = brute_force_optimum(model, strategy, optimizer.parameters)
                    evaluations += result.evaluations
                    if result.r_opt != r_star:
                        mismatches += 1
        return mismatches, evaluations

    mismatches, evaluations = run_once(benchmark, run)
    benchmark.extra_info["optimizer_evaluations"] = evaluations
    assert mismatches == 0


def test_bench_estimator_ablation(benchmark):
    """DESIGN.md ablation: Chronos estimator vs default Hadoop estimator."""

    jobs = [
        JobSpec(
            job_id=f"job-{i}",
            num_tasks=8,
            deadline=90.0,
            tmin=20.0,
            beta=1.3,
            submit_time=i * 10.0,
        )
        for i in range(20)
    ]
    params = StrategyParameters(tau_est=40.0, tau_kill=80.0, fixed_r=1)

    result = run_once(
        benchmark,
        estimator_ablation,
        jobs,
        StrategyName.SPECULATIVE_RESTART,
        params,
        seed=1,
    )
    benchmark.extra_info["pocd_gain"] = result.pocd_gain
    benchmark.extra_info["speculation_ratio"] = result.speculation_ratio
    # The JVM-blind estimator speculates at least as much as the Chronos one.
    assert result.speculation_ratio >= 1.0
