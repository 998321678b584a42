"""Synthetic Google-cluster-trace-like job generator.

The paper's large-scale simulation replays 30 hours of the 2011 Google
cluster trace (2700 jobs, ~1 million tasks), extracting each job's start
time, number of tasks and execution-time distribution, and then samples
task times from a Pareto distribution matched to the trace.  The trace
itself is not redistributable here, so :class:`SyntheticGoogleTrace`
generates a statistically similar workload:

* **arrivals** — a Poisson process whose rate matches the target number
  of jobs over the trace duration, with optional diurnal burstiness,
* **tasks per job** — a discretised log-normal (heavy tailed: most jobs
  are small, a few have thousands of tasks), capped so the total task
  count matches the target,
* **execution times** — per-job Pareto parameters: ``tmin`` drawn from a
  log-normal around a configurable median and ``beta`` drawn uniformly
  from a configurable heavy-tail range (the paper observes ``beta < 2``),
* **deadlines** — a configurable multiple of each job's mean task
  execution time (the paper uses 2x in the Figure 4 sweep).

The generator is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import ParetoDistribution
from repro.simulator.entities import JobSpec
from repro.traces.spot_price import SpotPriceHistory


@dataclass(frozen=True)
class GoogleTraceConfig:
    """Parameters of the synthetic trace.

    Defaults are scaled-down relative to the paper's 30 h / 2700-job /
    1M-task trace so that the experiments run in seconds on a laptop; the
    scale can be turned back up by callers that want the full-size trace.
    """

    duration_hours: float = 30.0
    num_jobs: int = 2700
    mean_tasks_per_job: float = 370.0
    tasks_per_job_sigma: float = 1.1
    min_tasks_per_job: int = 1
    max_tasks_per_job: int = 5000
    tmin_median: float = 20.0
    tmin_sigma: float = 0.35
    beta_range: Tuple[float, float] = (1.1, 1.9)
    deadline_factor: float = 2.0
    diurnal_amplitude: float = 0.3
    seed: int = 2011

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be positive")
        if self.mean_tasks_per_job < 1:
            raise ValueError("mean_tasks_per_job must be at least 1")
        if self.min_tasks_per_job < 1 or self.max_tasks_per_job < self.min_tasks_per_job:
            raise ValueError("invalid tasks-per-job bounds")
        if self.tmin_median <= 0 or self.tmin_sigma < 0:
            raise ValueError("invalid tmin parameters")
        lo, hi = self.beta_range
        if not 0 < lo <= hi:
            raise ValueError("beta_range must be increasing and positive")
        if self.deadline_factor <= 1.0:
            raise ValueError("deadline_factor must exceed 1 (deadline > mean task time)")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must lie in [0, 1)")

    @property
    def duration_seconds(self) -> float:
        """Trace duration in seconds."""
        return self.duration_hours * 3600.0

    @classmethod
    def small(cls, num_jobs: int = 200, seed: int = 2011) -> "GoogleTraceConfig":
        """A laptop-scale trace used by the default experiment harness."""
        return cls(
            duration_hours=2.0,
            num_jobs=num_jobs,
            mean_tasks_per_job=20.0,
            tasks_per_job_sigma=0.8,
            max_tasks_per_job=200,
            seed=seed,
        )


@dataclass(frozen=True)
class TracedJob:
    """One job extracted from the (synthetic) trace."""

    job_id: str
    submit_time: float
    num_tasks: int
    tmin: float
    beta: float
    deadline: float
    unit_price: float

    @property
    def mean_task_time(self) -> float:
        """Mean task execution time implied by the Pareto parameters."""
        return ParetoDistribution(self.tmin, self.beta).mean()

    def to_job_spec(self) -> JobSpec:
        """Convert to the simulator's :class:`JobSpec`."""
        return JobSpec(
            job_id=self.job_id,
            num_tasks=self.num_tasks,
            deadline=self.deadline,
            tmin=self.tmin,
            beta=self.beta,
            submit_time=self.submit_time,
            unit_price=self.unit_price,
            workload="google-trace",
        )


class SyntheticGoogleTrace:
    """Generates a Google-trace-like stream of MapReduce jobs."""

    def __init__(
        self,
        config: Optional[GoogleTraceConfig] = None,
        spot_prices: Optional[SpotPriceHistory] = None,
    ):
        self._config = config if config is not None else GoogleTraceConfig()
        self._spot_prices = spot_prices

    @property
    def config(self) -> GoogleTraceConfig:
        """The trace configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, beta_override: Optional[float] = None) -> List[TracedJob]:
        """Generate the full list of traced jobs (sorted by submission time).

        Parameters
        ----------
        beta_override:
            If given, every job uses this Pareto tail index instead of a
            sampled one.  The Figure 4 experiment sweeps beta this way.
        """
        cfg = self._config
        rng = np.random.default_rng(cfg.seed)
        submit_times = self._sample_arrivals(rng)
        jobs: List[TracedJob] = []
        for index, submit in enumerate(submit_times):
            num_tasks = self._sample_num_tasks(rng)
            tmin = float(rng.lognormal(mean=np.log(cfg.tmin_median), sigma=cfg.tmin_sigma))
            if beta_override is not None:
                beta = float(beta_override)
            else:
                beta = float(rng.uniform(*cfg.beta_range))
            mean_task_time = ParetoDistribution(tmin, beta).mean()
            deadline = cfg.deadline_factor * mean_task_time
            unit_price = (
                self._spot_prices.price_at(submit) if self._spot_prices is not None else 1.0
            )
            jobs.append(
                TracedJob(
                    job_id=f"gtrace-{index}",
                    submit_time=float(submit),
                    num_tasks=num_tasks,
                    tmin=tmin,
                    beta=beta,
                    deadline=float(deadline),
                    unit_price=float(unit_price),
                )
            )
        return jobs

    def job_specs(self, beta_override: Optional[float] = None) -> List[JobSpec]:
        """Generate jobs directly as simulator :class:`JobSpec` objects."""
        return [job.to_job_spec() for job in self.generate(beta_override=beta_override)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_arrivals(self, rng: np.random.Generator) -> Sequence[float]:
        """Poisson arrivals with an optional diurnal intensity modulation."""
        cfg = self._config
        base_rate = cfg.num_jobs / cfg.duration_seconds
        times: List[float] = []
        t = 0.0
        # Thinning with a sinusoidal intensity; the peak rate bounds the
        # proposal process.
        peak_rate = base_rate * (1.0 + cfg.diurnal_amplitude)
        while len(times) < cfg.num_jobs:
            t += float(rng.exponential(1.0 / peak_rate))
            if t > cfg.duration_seconds:
                # Wrap around rather than under-delivering jobs: the precise
                # arrival pattern is not load-bearing for the experiments.
                t = float(rng.uniform(0.0, cfg.duration_seconds))
            intensity = 1.0 + cfg.diurnal_amplitude * np.sin(
                2.0 * np.pi * t / (24.0 * 3600.0)
            )
            if rng.uniform() <= intensity / (1.0 + cfg.diurnal_amplitude):
                times.append(t)
        return sorted(times)

    def _sample_num_tasks(self, rng: np.random.Generator) -> int:
        """Heavy-tailed tasks-per-job: discretised log-normal, clipped."""
        cfg = self._config
        # Choose the log-normal location so the mean matches the target.
        mu = np.log(cfg.mean_tasks_per_job) - 0.5 * cfg.tasks_per_job_sigma**2
        value = rng.lognormal(mean=mu, sigma=cfg.tasks_per_job_sigma)
        return int(np.clip(round(value), cfg.min_tasks_per_job, cfg.max_tasks_per_job))
