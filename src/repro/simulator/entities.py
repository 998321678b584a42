"""Simulation entities: jobs, tasks and task attempts.

The state machines here mirror Hadoop MapReduce: a *job* consists of N
parallel *tasks*; each task may have several *attempts* (one original plus
clones/speculative copies); a task is done as soon as one attempt finishes
and a job is done when all its tasks are done (eq. 1 of the paper).

Execution-time model
--------------------
Each attempt is assigned a *processing time* drawn from the job's Pareto
distribution, scaled by the fraction of the task's data it has to process
(``work_fraction``, which is less than 1 only for Speculative-Resume
attempts that skip already-processed bytes).  On top of that the attempt
pays a deterministic-per-attempt *JVM launch delay* before any data is
processed — the overhead Chronos' estimator explicitly accounts for.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from repro.core.model import StragglerModel
from repro.distributions import ParetoDistribution


class AttemptStatus(enum.Enum):
    """Lifecycle of a task attempt."""

    WAITING = "waiting"  # created, waiting for a container
    RUNNING = "running"  # occupying a container (JVM launch + processing)
    COMPLETED = "completed"
    KILLED = "killed"


# Module constants: reading a member through the enum class
# (``AttemptStatus.WAITING``) costs a slow metaclass attribute lookup,
# and every attempt changes state two or three times.
_WAITING = AttemptStatus.WAITING
_RUNNING = AttemptStatus.RUNNING
_COMPLETED = AttemptStatus.COMPLETED
_KILLED = AttemptStatus.KILLED

#: The states of an attempt that has not finished.
_LIVE_STATES = (_WAITING, _RUNNING)


@dataclass(frozen=True)
class JobSpec:
    """Static description of a submitted MapReduce job.

    Parameters
    ----------
    job_id:
        Unique identifier.
    num_tasks:
        Number of parallel (map) tasks.
    deadline:
        Deadline in seconds **relative to submission time**.
    tmin, beta:
        Pareto parameters of a single attempt's processing time.
    submit_time:
        Absolute submission time in the simulation.
    unit_price:
        Spot price per unit VM time used for this job's cost accounting.
    data_size_mb:
        Input split size per task (informational; used by workload profiles).
    workload:
        Optional benchmark name (e.g. ``"sort"``).
    """

    job_id: str
    num_tasks: int
    deadline: float
    tmin: float
    beta: float
    submit_time: float = 0.0
    unit_price: float = 1.0
    data_size_mb: float = 128.0
    workload: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("a job needs at least one task")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.tmin <= 0 or self.beta <= 0:
            raise ValueError("Pareto parameters must be positive")
        if self.submit_time < 0:
            raise ValueError("submit_time must be non-negative")
        if self.unit_price < 0:
            raise ValueError("unit_price must be non-negative")

    # Cached: both are read on every deadline check / attempt sample, and
    # the spec is frozen.  (``cached_property`` writes the instance
    # ``__dict__``, bypassing the frozen ``__setattr__`` — which is also
    # why JobSpec deliberately does not use ``slots=True``.)
    @cached_property
    def absolute_deadline(self) -> float:
        """Deadline as an absolute simulation time."""
        return self.submit_time + self.deadline

    @cached_property
    def attempt_distribution(self) -> ParetoDistribution:
        """Pareto distribution of one attempt's processing time."""
        return ParetoDistribution(self.tmin, self.beta)

    def to_straggler_model(
        self,
        tau_est: float,
        tau_kill: float,
        phi_est: Optional[float] = None,
    ) -> StragglerModel:
        """Build the analytical model used to optimize ``r`` for this job."""
        return StragglerModel(
            tmin=self.tmin,
            beta=self.beta,
            num_tasks=self.num_tasks,
            deadline=self.deadline,
            tau_est=tau_est,
            tau_kill=tau_kill,
            phi_est=phi_est,
        )


_attempt_counter = itertools.count()


class Attempt:
    """A single attempt (original, clone or speculative copy) of a task.

    The class is slotted, with one hand-written ``__init__`` that
    validates the offset and counts the attempt into ``task.live``:
    simulations create one instance per attempt (tens of thousands per
    sweep), and progress scoring reads these fields in every estimator
    call.  Two attempts are equal only if they are the same object.
    """

    __slots__ = (
        "task",
        "created_time",
        "start_offset",
        "is_original",
        "attempt_id",
        "status",
        "launch_time",
        "jvm_delay",
        "processing_time",
        "end_time",
        "first_progress_time",
    )

    def __init__(
        self,
        task: "Task",
        created_time: float,
        start_offset: float = 0.0,
        is_original: bool = True,
    ):
        if not 0.0 <= start_offset < 1.0:
            raise ValueError("start_offset must lie in [0, 1)")
        self.task = task
        self.created_time = created_time
        #: Fraction of the task's data already processed.
        self.start_offset = start_offset
        self.is_original = is_original
        self.attempt_id: int = next(_attempt_counter)
        self.status = _WAITING
        #: Container granted / JVM launch starts.
        self.launch_time: Optional[float] = None
        self.jvm_delay = 0.0
        #: Time to process its work fraction.
        self.processing_time: Optional[float] = None
        self.end_time: Optional[float] = None
        #: Time of the first progress report (end of JVM launch); precomputed
        #: in :meth:`mark_running` because the progress estimators read it on
        #: every invocation.
        self.first_progress_time: Optional[float] = None
        task.live += 1

    def __repr__(self) -> str:
        return (
            f"Attempt(attempt_id={self.attempt_id}, status={self.status.name}, "
            f"is_original={self.is_original})"
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def work_fraction(self) -> float:
        """Fraction of the task's data this attempt is responsible for."""
        return 1.0 - self.start_offset

    @property
    def is_active(self) -> bool:
        """Whether the attempt currently occupies a container."""
        return self.status is _RUNNING

    def progress(self, now: float) -> float:
        """Progress score: fraction of the *task's* data processed by ``now``."""
        launch_time = self.launch_time
        processing_time = self.processing_time
        start_offset = self.start_offset
        if launch_time is None or processing_time is None:
            return start_offset
        if self.status is _COMPLETED:
            return 1.0
        end_time = self.end_time
        reference = min(now, end_time) if end_time is not None else now
        elapsed_processing = reference - launch_time - self.jvm_delay
        if elapsed_processing <= 0:
            return start_offset
        fraction_of_own_work = min(1.0, elapsed_processing / processing_time)
        return start_offset + fraction_of_own_work * (1.0 - start_offset)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def mark_running(self, launch_time: float, jvm_delay: float, processing_time: float) -> None:
        """Transition WAITING -> RUNNING when a container is granted."""
        if self.status is not _WAITING:
            raise RuntimeError(f"attempt {self.attempt_id} cannot start from {self.status}")
        if processing_time < 0 or jvm_delay < 0:
            raise ValueError("durations must be non-negative")
        self.status = _RUNNING
        self.launch_time = launch_time
        self.jvm_delay = jvm_delay
        self.processing_time = processing_time
        self.first_progress_time = launch_time + jvm_delay

    def mark_completed(self, now: float) -> None:
        """Transition RUNNING -> COMPLETED."""
        if self.status is not _RUNNING:
            raise RuntimeError(f"attempt {self.attempt_id} cannot complete from {self.status}")
        self.status = _COMPLETED
        self.end_time = now
        self.task.live -= 1

    def mark_killed(self, now: float) -> None:
        """Transition WAITING/RUNNING -> KILLED.  Idempotent for finished attempts."""
        if self.status not in _LIVE_STATES:
            return
        self.status = _KILLED
        self.end_time = now if self.launch_time is not None else self.created_time
        self.task.live -= 1


@dataclass(slots=True)
class Task:
    """One parallel unit of work within a job."""

    job: "Job"
    index: int
    attempts: List[Attempt] = field(default_factory=list)
    completion_time: Optional[float] = None
    #: Attempts that are waiting or running, counted without a scan.
    #: Every :class:`Attempt` adds one when it is created and takes it
    #: back when it completes or is killed.
    live: int = field(default=0, init=False, compare=False)

    @property
    def task_id(self) -> str:
        """Human-readable identifier, e.g. ``job-3/task-7``."""
        return f"{self.job.spec.job_id}/task-{self.index}"

    @property
    def is_complete(self) -> bool:
        """Whether some attempt has finished successfully."""
        return self.completion_time is not None

    @property
    def running_attempts(self) -> List[Attempt]:
        """Attempts currently occupying containers."""
        return [a for a in self.attempts if a.is_active]


@dataclass(slots=True)
class Job:
    """A submitted job and its runtime state."""

    spec: JobSpec
    tasks: List[Task] = field(default_factory=list)
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    extra_attempts: int = 0  # the optimized r used for this job
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Tasks without a ``completion_time``.  Whoever sets a task's
    #: ``completion_time`` (the Application Master) takes one off, and
    #: sets the job's ``completion_time`` when none remains: a count, not
    #: a scan of the tasks on every task completion.
    remaining_tasks: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tasks:
            self.tasks = [Task(job=self, index=i) for i in range(self.spec.num_tasks)]
        self.remaining_tasks = len(self.incomplete_tasks())

    @property
    def job_id(self) -> str:
        """The job identifier from the spec."""
        return self.spec.job_id

    @property
    def is_complete(self) -> bool:
        """Whether every task has completed."""
        return all(task.is_complete for task in self.tasks)

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job met its deadline (``None`` while still running)."""
        if self.completion_time is None:
            return None
        return self.completion_time <= self.spec.absolute_deadline + 1e-9

    @property
    def response_time(self) -> Optional[float]:
        """Job completion latency measured from submission."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.spec.submit_time

    def incomplete_tasks(self) -> List[Task]:
        """Tasks that have not yet finished."""
        return [task for task in self.tasks if task.completion_time is None]

    def machine_time(self, now: float) -> float:
        """Total VM time consumed by the job's attempts up to ``now``.

        An attempt's VM time runs from its launch to its end (or ``now``),
        and one that never launched costs nothing.  Each task's attempts
        are summed first and the task totals then, the order (and so the
        floating-point result) of a sum of per-task sums.
        """
        total = 0
        for task in self.tasks:
            task_total = 0
            for attempt in task.attempts:
                launch = attempt.launch_time
                if launch is None:
                    task_total += 0.0  # a float zero, as the per-attempt sums gave
                    continue
                end = attempt.end_time
                if end is None or end > now:
                    end = now
                task_total += max(0.0, end - launch)
            total += task_total
        return total
