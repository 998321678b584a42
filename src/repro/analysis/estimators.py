"""Ablation of the completion-time estimator.

Section VI argues that Hadoop's default completion-time estimate is
unreliable because it ignores JVM startup time, and that Chronos'
JVM-aware estimator (eq. 30) reduces false positives in straggler
detection.  This module quantifies that claim in the simulator: it runs
the same speculative strategy with both estimators and reports estimation
error and the resulting PoCD / cost / speculation volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run as run_scenario
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import Attempt, JobSpec, Task, Job
from repro.simulator.metrics import SimulationReport
from repro.simulator.progress import CompletionTimeEstimator
from repro.strategies import StrategyParameters


@dataclass(frozen=True)
class EstimatorAblationResult:
    """Outcome of running one strategy with two different estimators."""

    strategy: StrategyName
    chronos_report: SimulationReport
    hadoop_report: SimulationReport

    @property
    def pocd_gain(self) -> float:
        """PoCD improvement of the Chronos estimator over Hadoop's."""
        return self.chronos_report.pocd - self.hadoop_report.pocd

    @property
    def cost_ratio(self) -> float:
        """Cost with Hadoop's estimator relative to Chronos' (>1 means savings)."""
        if self.chronos_report.mean_cost == 0:
            return float("inf")
        return self.hadoop_report.mean_cost / self.chronos_report.mean_cost

    @property
    def speculation_ratio(self) -> float:
        """Speculative-attempt volume with Hadoop's estimator vs Chronos'."""
        chronos = self.chronos_report.speculative_attempt_fraction
        hadoop = self.hadoop_report.speculative_attempt_fraction
        if chronos == 0:
            return float("inf") if hadoop > 0 else 1.0
        return hadoop / chronos


def estimator_ablation(
    jobs: Sequence[JobSpec],
    strategy_name: StrategyName = StrategyName.SPECULATIVE_RESUME,
    params: Optional[StrategyParameters] = None,
    cluster: Optional[ClusterConfig] = None,
    hadoop_config: Optional[HadoopConfig] = None,
    seed: int = 0,
) -> EstimatorAblationResult:
    """Run ``strategy_name`` with the Chronos and the Hadoop estimator."""
    params = params if params is not None else StrategyParameters()
    base = ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(job) for job in jobs]}),
        strategy=strategy_name.value,
        strategy_params=params,
        cluster=cluster if cluster is not None else ClusterConfig(),
        hadoop=hadoop_config if hadoop_config is not None else HadoopConfig(),
        estimator="chronos",
        seed=seed,
    )
    chronos_report = run_scenario(base).report
    hadoop_report = run_scenario(base.with_overrides(estimator="hadoop")).report
    return EstimatorAblationResult(
        strategy=strategy_name,
        chronos_report=chronos_report,
        hadoop_report=hadoop_report,
    )


def estimation_errors(
    spec: JobSpec,
    estimator: CompletionTimeEstimator,
    observation_fraction: float = 0.4,
    jvm_delay: float = 3.0,
    samples: int = 500,
    seed: int = 0,
) -> List[float]:
    """Relative estimation errors of an estimator on synthetic attempts.

    Each sample creates one attempt with a known ground-truth duration,
    observes it after ``observation_fraction`` of its processing time has
    elapsed (plus the JVM delay), and records the relative error of the
    estimated completion time.  This isolates estimator quality from the
    rest of the system, mirroring the discussion in Section VI.
    """
    if not 0.0 < observation_fraction < 1.0:
        raise ValueError("observation_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    job = Job(spec=spec)
    errors: List[float] = []
    for index in range(samples):
        task = Task(job=job, index=index % spec.num_tasks)
        attempt = Attempt(task=task, created_time=0.0, is_original=True)
        processing = spec.attempt_distribution.sample_one(rng=rng)
        attempt.mark_running(launch_time=0.0, jvm_delay=jvm_delay, processing_time=processing)
        truth = jvm_delay + processing
        observe_at = jvm_delay + observation_fraction * processing
        estimate = estimator(attempt, observe_at)
        if not np.isfinite(estimate):
            continue
        errors.append((estimate - truth) / truth)
    return errors
