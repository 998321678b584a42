"""Multi-job cluster simulation: arrivals, admission, shared contention.

The controller layers a job-arrival process and a cluster-level
admission scheduler over the existing single-job machinery.  Each
admitted job gets its own Application Master, but *all* jobs share one
engine and one Resource Manager, which counts the cluster's busy slots —
so running jobs contend for container slots exactly the way concurrent
applications do on a real YARN cluster.

The per-job lifecycle is an explicit state machine::

    QUEUED ──▶ ADMITTED ──▶ RUNNING ──▶ COMPLETED
                                   └──▶ MISSED

The stack, the admission of a job and the teardown are the single-job
runner's own (``repro.simulator.runner._Simulation``): a job is admitted
*inside* its arrival event or a later completion, its Application
Master is built and started there, and jobs that never finished are
recorded the same way.  What is cluster-specific stays here: the
arrival stream, the queue, the scheduler's picks, the lifecycle and the
queue samples.  With trace arrivals, ``fifo`` and an unbounded cluster,
every job is admitted at its arrival, so the run is the single-job
runner's run event for event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.api import registry as _api_registry
from repro.cluster.metrics import ClusterReport, build_cluster_report
from repro.cluster.scheduling import ClusterScheduler, SpeculationBudgetScheduler, make_scheduler
from repro.hadoop.app_master import ApplicationMaster
from repro.simulator.entities import JobSpec
from repro.simulator.runner import _Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.spec import ClusterSpec
    from repro.telemetry import Profiler


class JobState(enum.Enum):
    """Lifecycle states of a job inside the cluster simulation."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    COMPLETED = "completed"
    MISSED = "missed"


#: Legal state transitions of the lifecycle machine.
_TRANSITIONS = {
    JobState.QUEUED: {JobState.ADMITTED},
    JobState.ADMITTED: {JobState.RUNNING},
    JobState.RUNNING: {JobState.COMPLETED, JobState.MISSED},
    JobState.COMPLETED: set(),
    JobState.MISSED: set(),
}


@dataclass
class ClusterJob:
    """One job moving through the cluster lifecycle."""

    spec: JobSpec
    arrival_order: int
    state: JobState = JobState.QUEUED
    arrival_time: float = 0.0
    admit_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    master: Optional[ApplicationMaster] = field(default=None, repr=False)
    met_deadline: Optional[bool] = None

    def transition(self, new_state: JobState, now: float) -> None:
        """Move to ``new_state``, enforcing the lifecycle machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise RuntimeError(
                f"illegal job transition {self.state.value} -> {new_state.value} "
                f"for {self.spec.job_id!r}"
            )
        self.state = new_state
        if new_state is JobState.ADMITTED:
            self.admit_time = now
        elif new_state is JobState.RUNNING:
            self.start_time = now
        elif new_state in (JobState.COMPLETED, JobState.MISSED):
            self.finish_time = now

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (JobState.COMPLETED, JobState.MISSED)


class ClusterSimulation:
    """Run one :class:`ClusterSpec` end to end."""

    def __init__(
        self,
        spec: "ClusterSpec",
        profiler: Optional["Profiler"] = None,
    ):
        self._spec = spec
        self._queue: List[ClusterJob] = []
        self._running: List[ClusterJob] = []
        self._jobs: List[ClusterJob] = []
        self._queue_samples: List[Tuple[float, int]] = []
        self._first_arrival: Optional[float] = None

        self._scheduler: ClusterScheduler = make_scheduler(spec.scheduler, spec.scheduler_params)
        if isinstance(self._scheduler, SpeculationBudgetScheduler):
            self._scheduler.bind_capacity(spec.cluster.total_slots)
        self._simulation = _Simulation(
            spec.cluster,
            spec.hadoop,
            spec.seed,
            self._scheduler.wrap_strategy(spec.build_strategy()),
            None if spec.estimator is None else _api_registry.ESTIMATORS.get(spec.estimator),
            profiler,
        )
        self._engine = self._simulation.engine

    @property
    def jobs(self) -> List[ClusterJob]:
        """All lifecycle records, in arrival order."""
        return self._jobs

    def run(self) -> ClusterReport:
        """Execute the simulation and build the cluster report."""
        spec = self._spec
        for order, job_spec in enumerate(spec.build_arrivals()):
            cluster_job = ClusterJob(
                spec=job_spec, arrival_order=order, arrival_time=job_spec.submit_time
            )
            self._jobs.append(cluster_job)
            self._engine.schedule_at(job_spec.submit_time, self._on_arrival, cluster_job)
        self._engine.run(max_events=spec.max_events)
        report = self._simulation.finish((job.spec, job.master) for job in self._jobs)
        first = self._first_arrival if self._first_arrival is not None else 0.0
        return build_cluster_report(
            scheduler=spec.scheduler,
            arrival=spec.arrival.kind,
            simulation=report,
            jobs=self._jobs,
            queue_samples=self._queue_samples,
            total_slots=spec.cluster.total_slots,
            makespan_s=max(0.0, self._engine.now - first),
        )

    # ------------------------------------------------------------------
    # Lifecycle plumbing
    # ------------------------------------------------------------------
    def _on_arrival(self, job: ClusterJob) -> None:
        if self._first_arrival is None:
            self._first_arrival = self._engine.now
        self._queue.append(job)
        self._sample_queue()
        self._dispatch()

    def _sample_queue(self) -> None:
        self._queue_samples.append((self._engine.now, len(self._queue)))

    def _dispatch(self) -> None:
        if not self._queue:
            return
        picks = self._scheduler.select(
            tuple(self._queue),
            tuple(self._running),
            self._simulation.resource_manager.free_slots,
            self._engine.now,
        )
        for job in picks:
            if job not in self._queue:  # defensive: policy returned a stranger
                continue
            self._admit(job)
        if picks:
            self._sample_queue()

    def _admit(self, job: ClusterJob) -> None:
        self._queue.remove(job)
        job.transition(JobState.ADMITTED, self._engine.now)
        self._running.append(job)
        job.transition(JobState.RUNNING, self._engine.now)
        job.master = self._simulation.admit(
            job.spec,
            on_job_complete=lambda _sim_job, record, cj=job: self._on_job_complete(cj, record),
        )

    def _on_job_complete(self, job: ClusterJob, record) -> None:
        job.met_deadline = record.met_deadline
        job.transition(
            JobState.COMPLETED if record.met_deadline else JobState.MISSED, self._engine.now
        )
        if job in self._running:
            self._running.remove(job)
        self._scheduler.on_job_finished(job)
        self._dispatch()
