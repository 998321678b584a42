"""Application Master: per-job task management and speculation hooks.

The AM is the per-job brain: it creates the job's tasks, asks the RM for
containers, launches attempts on NMs, watches progress, runs the plugged
speculation strategy's hooks (planning ``r`` at submission, detecting
stragglers at ``tau_est``, pruning attempts at ``tau_kill``, periodic
checks for the baselines), and records metrics when the job finishes.

Strategies interact with the AM exclusively through the public helper
methods (``launch_attempt``, ``kill_attempt``, ``estimate_completion``,
``keep_best_attempt`` ...), which keeps every strategy implementation
small and free of simulator plumbing.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.distributions import sample_stream
from repro.hadoop.config import HadoopConfig
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.engine import Event, SimulationEngine
from repro.simulator.entities import Attempt, AttemptStatus, Job, Task
from repro.simulator.metrics import JobRecord, MetricsCollector
from repro.simulator.progress import (
    CompletionTimeEstimator,
    chronos_estimate_completion,
    observed_progress,
)

if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.simulator.runner import SpeculationStrategyProtocol
    from repro.telemetry import Profiler

_WAITING = AttemptStatus.WAITING
_RUNNING = AttemptStatus.RUNNING


class ApplicationMaster:
    """Per-job controller executing one speculation strategy."""

    def __init__(
        self,
        engine: SimulationEngine,
        job: Job,
        strategy: "SpeculationStrategyProtocol",
        resource_manager: ResourceManager,
        node_manager: NodeManager,
        config: HadoopConfig,
        metrics: Optional[MetricsCollector] = None,
        estimator: CompletionTimeEstimator = chronos_estimate_completion,
        rng: Optional[np.random.Generator] = None,
        on_job_complete: Optional[Callable[[Job, JobRecord], None]] = None,
        profiler: Optional["Profiler"] = None,
    ):
        self._engine = engine
        self._job = job
        self._strategy = strategy
        self._rm = resource_manager
        self._nm = node_manager
        self._config = config
        self._metrics = metrics
        self._estimator = estimator
        self._rng = rng if rng is not None else engine.spawn_rng()
        self._on_job_complete = on_job_complete
        #: The run's profiler: Algorithm 1 cache misses are timed into it.
        self.profiler = profiler
        self._scheduled_events: List[Event] = []
        self._finished = False
        #: Speculative (non-original) attempts this AM has killed; the
        #: runner folds it into its telemetry after the run.
        self.speculative_killed = 0
        # One stream per AM: the AM's RNG serves exactly one purpose
        # (attempt durations), so block draws see the same stream as the
        # historical one-sample-per-attempt calls.  Sized to roughly one
        # wave of attempts per RNG round-trip.  The draw holds the RNG,
        # not the AM, so the stream forms no reference cycle.
        self._duration_samples = sample_stream(
            partial(job.spec.attempt_distribution.sample, rng=self._rng),
            min(512, max(8, job.spec.num_tasks)),
        )

    # ------------------------------------------------------------------
    # Read-only accessors used by strategies
    # ------------------------------------------------------------------
    @property
    def engine(self) -> SimulationEngine:
        """The simulation engine."""
        return self._engine

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def job(self) -> Job:
        """The job this AM manages."""
        return self._job

    @property
    def config(self) -> HadoopConfig:
        """Runtime configuration."""
        return self._config

    @property
    def resource_manager(self) -> ResourceManager:
        """The cluster resource manager (for capacity queries)."""
        return self._rm

    @property
    def absolute_deadline(self) -> float:
        """The job's deadline as an absolute simulation time."""
        return self._job.spec.absolute_deadline

    @property
    def finished(self) -> bool:
        """Whether the job has completed and been recorded."""
        return self._finished

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Plan the job and launch the initial attempts of every task."""
        if self._job.start_time is not None:
            raise RuntimeError(f"job {self._job.job_id} was already started")
        self._job.start_time = self._engine.now
        r = int(self._strategy.plan_job(self))
        if r < 0:
            raise ValueError("strategy returned a negative number of extra attempts")
        self._job.extra_attempts = r
        for task in self._job.tasks:
            count = max(1, int(self._strategy.initial_attempt_count(self, task)))
            for index in range(count):
                self.launch_attempt(task, start_offset=0.0, is_original=(index == 0))
        self._strategy.on_job_start(self)

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> Optional[Event]:
        """Schedule a strategy callback; skipped automatically once the job ends."""
        if self._finished:
            return None
        event = self._engine.schedule_after(delay, self._run_unless_finished, callback, args)
        self._scheduled_events.append(event)
        return event

    def _run_unless_finished(self, callback: Callable[..., None], args: tuple) -> None:
        if not self._finished:
            callback(*args)

    # ------------------------------------------------------------------
    # Attempt management
    # ------------------------------------------------------------------
    def launch_attempt(
        self, task: Task, start_offset: float = 0.0, is_original: bool = False
    ) -> Optional[Attempt]:
        """Create an attempt for ``task`` and request a container for it."""
        if task.completion_time is not None or self._finished:
            return None
        attempt = Attempt(task, self._engine.now, start_offset, is_original)
        task.attempts.append(attempt)
        self._rm.request_container(attempt, self._on_container_granted)
        return attempt

    def kill_attempt(self, attempt: Attempt) -> None:
        """Kill an attempt; a queued one is skipped when the RM reaches it."""
        status = attempt.status
        if status is _RUNNING:
            self._nm.kill(attempt)
        elif status is _WAITING:
            attempt.mark_killed(self._engine.now)
        else:
            return
        if not attempt.is_original:
            self.speculative_killed += 1

    def kill_all_but(self, task: Task, survivor: Attempt) -> int:
        """Kill every live attempt of ``task`` except ``survivor``; return count."""
        killed = 0
        for attempt in task.attempts:
            status = attempt.status
            if attempt is not survivor and (status is _RUNNING or status is _WAITING):
                self.kill_attempt(attempt)
                killed += 1
        return killed

    def keep_best_attempt(self, task: Task, by: str = "progress") -> Optional[Attempt]:
        """Keep the best live attempt of ``task`` and kill the rest.

        Parameters
        ----------
        by:
            ``"progress"`` keeps the attempt with the highest progress
            score (Clone at ``tau_kill``); ``"estimate"`` keeps the attempt
            with the smallest estimated completion time (the speculative
            strategies at ``tau_kill``).
        """
        live = [
            attempt
            for attempt in task.attempts
            if attempt.status is _RUNNING or attempt.status is _WAITING
        ]
        if not live:
            return None
        if by == "progress":
            best = max(live, key=partial(observed_progress, now=self._engine.now))
        elif by == "estimate":
            best = min(live, key=self.estimate_completion)
        else:
            raise ValueError(f"unknown selection criterion: {by!r}")
        self.kill_all_but(task, best)
        return best

    def speculative_attempt_count(self, task: Task) -> int:
        """Number of non-original attempts ever created for ``task``."""
        return sum(1 for attempt in task.attempts if not attempt.is_original)

    # ------------------------------------------------------------------
    # Progress / estimation helpers
    # ------------------------------------------------------------------
    def progress(self, attempt: Attempt) -> float:
        """Observable progress score of an attempt at the current time."""
        return observed_progress(attempt, self._engine.now)

    def estimate_completion(self, attempt: Attempt) -> float:
        """Estimated absolute completion time of an attempt."""
        return self._estimator(attempt, self._engine.now)

    def completed_task_durations(self) -> List[float]:
        """Execution durations of already-finished tasks (for baselines)."""
        durations = []
        for task in self._job.tasks:
            if task.completion_time is None or self._job.start_time is None:
                continue
            durations.append(task.completion_time - self._job.start_time)
        return durations

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_container_granted(self, attempt: Attempt) -> None:
        if attempt.status is not _WAITING:
            # Killed during the grant delay.  A waiting attempt belongs to
            # an incomplete task of an unfinished job: a task's completion
            # kills its waiting attempts, and no attempt is launched for a
            # complete task or a finished job.
            self._rm.release_container()
            return
        # ``start_offset`` lies in [0, 1), so the work fraction is in (0, 1].
        processing_time = next(self._duration_samples) * (1.0 - attempt.start_offset)
        self._nm.launch(attempt, processing_time, self._on_attempt_complete)

    def _on_attempt_complete(self, attempt: Attempt) -> None:
        task = attempt.task
        if task.completion_time is not None:
            return
        now = self._engine.now
        task.completion_time = now
        job = self._job
        job.remaining_tasks -= 1
        # Redundant attempts are killed as soon as one attempt succeeds.
        if task.live:
            for other in task.attempts:
                status = other.status
                if status is _RUNNING or status is _WAITING:
                    self.kill_attempt(other)
        self._strategy.on_task_complete(self, task, attempt)
        if not job.remaining_tasks:
            job.completion_time = now
            self._finalize()

    def release(self) -> None:
        """Unlink the finished job's object graph so refcounting can free it.

        A job holds its tasks and each task its attempts, and both link
        back; a cluster's completion callback closes over the simulation
        that holds this AM.  Left linked, a finished run is one big cycle
        that waits for the cyclic collector, so a process's peak memory
        depends on when that collector happens to run.  Call this once the
        report is built: the AM and its job are unusable afterwards.
        """
        job = self._job
        for task in job.tasks:
            task.attempts.clear()
        job.tasks.clear()
        # A run cut short by max_events leaves callbacks into this AM.
        self._scheduled_events.clear()
        self._on_job_complete = None

    def _finalize(self) -> None:
        if self._finished:
            return
        self._finished = True
        for event in self._scheduled_events:
            event.cancelled = True
        self._scheduled_events.clear()
        record = None
        if self._metrics is not None:
            record = self._metrics.record_job(self._job, self._engine.now)
        if self._on_job_complete is not None:
            self._on_job_complete(self._job, record)

