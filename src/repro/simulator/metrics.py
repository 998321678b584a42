"""Metrics accounting: PoCD, machine time, cost and net utility.

The evaluation reports three quantities per strategy (Figures 2-4):

* **PoCD** — the fraction of jobs that finished before their deadline,
* **Cost** — the average machine (VM) running time per job multiplied by
  the unit VM price,
* **Utility** — ``lg(PoCD - Rmin) - theta * Cost``.

:class:`MetricsCollector` accumulates per-job records during a simulation
run; :class:`SimulationReport` is the frozen summary produced at the end.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.model import StrategyName


@dataclass(frozen=True)
class JobRecord:
    """Outcome of a single job."""

    job_id: str
    workload: str
    num_tasks: int
    deadline: float
    submit_time: float
    completion_time: Optional[float]
    met_deadline: bool
    machine_time: float
    cost: float
    num_attempts: int
    num_speculative_attempts: int
    r_used: int

    @property
    def response_time(self) -> Optional[float]:
        """Completion latency from submission, or ``None`` if unfinished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate outcome of simulating a set of jobs under one strategy."""

    strategy: StrategyName
    num_jobs: int
    pocd: float
    mean_machine_time: float
    mean_cost: float
    total_machine_time: float
    total_cost: float
    mean_response_time: float
    mean_attempts_per_task: float
    speculative_attempt_fraction: float
    r_histogram: Dict[int, int]
    job_records: Sequence[JobRecord] = field(default_factory=tuple, repr=False)

    def net_utility(self, r_min_pocd: float = 0.0, theta: float = 1e-4) -> float:
        """Paper-style net utility ``lg(PoCD - Rmin) - theta * mean cost``."""
        margin = self.pocd - r_min_pocd
        if margin <= 0:
            return -math.inf
        return math.log10(margin) - theta * self.mean_cost


class MetricsCollector:
    """Accumulates per-job outcomes during a simulation run."""

    def __init__(self, strategy: StrategyName):
        self._strategy = strategy
        self._records: List[JobRecord] = []

    @property
    def records(self) -> Sequence[JobRecord]:
        """The job records collected so far."""
        return tuple(self._records)

    def record_job(self, job, now: float) -> JobRecord:
        """Snapshot a finished (or abandoned) job into a :class:`JobRecord`."""
        spec = job.spec
        machine_time = job.machine_time(now)
        attempts = [a for task in job.tasks for a in task.attempts]
        speculative = [a for a in attempts if not a.is_original]
        record = JobRecord(
            job_id=spec.job_id,
            workload=spec.workload,
            num_tasks=spec.num_tasks,
            deadline=spec.deadline,
            submit_time=spec.submit_time,
            completion_time=job.completion_time,
            met_deadline=bool(job.met_deadline),
            machine_time=machine_time,
            cost=machine_time * spec.unit_price,
            num_attempts=len(attempts),
            num_speculative_attempts=len(speculative),
            r_used=job.extra_attempts,
        )
        self._records.append(record)
        return record

    def build_report(self) -> SimulationReport:
        """Aggregate all recorded jobs into a :class:`SimulationReport`."""
        records = self._records
        if not records:
            raise ValueError("no jobs were recorded; cannot build a report")
        num_jobs = len(records)
        pocd = sum(1 for r in records if r.met_deadline) / num_jobs
        machine_times = [r.machine_time for r in records]
        costs = [r.cost for r in records]
        response_times = [r.response_time for r in records if r.response_time is not None]
        total_tasks = sum(r.num_tasks for r in records)
        total_attempts = sum(r.num_attempts for r in records)
        total_speculative = sum(r.num_speculative_attempts for r in records)
        r_histogram: Dict[int, int] = {}
        for record in records:
            r_histogram[record.r_used] = r_histogram.get(record.r_used, 0) + 1
        return SimulationReport(
            strategy=self._strategy,
            num_jobs=num_jobs,
            pocd=pocd,
            mean_machine_time=statistics.fmean(machine_times),
            mean_cost=statistics.fmean(costs),
            total_machine_time=sum(machine_times),
            total_cost=sum(costs),
            mean_response_time=statistics.fmean(response_times) if response_times else math.nan,
            mean_attempts_per_task=total_attempts / total_tasks if total_tasks else 0.0,
            speculative_attempt_fraction=(
                total_speculative / total_attempts if total_attempts else 0.0
            ),
            r_histogram=dict(sorted(r_histogram.items())),
            job_records=tuple(records),
        )
