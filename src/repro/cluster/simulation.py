"""Multi-job cluster simulation: arrivals, admission, shared contention.

The controller layers a job-arrival process and a cluster-level
admission scheduler over the existing single-job machinery.  Each
admitted job gets its own Application Master, but *all* jobs share one
engine, one :class:`~repro.simulator.cluster.Cluster` and one Resource
Manager — so running jobs contend for container slots exactly the way
concurrent applications do on a real YARN cluster.

The per-job lifecycle is an explicit state machine::

    QUEUED ──▶ ADMITTED ──▶ RUNNING ──▶ COMPLETED
                                   └──▶ MISSED

Parity with the single-job façade is engineered, not accidental: a job
is admitted *inside* its arrival event (same event sequence the façade
would give ``master.start``), the Application Master is constructed at
admission (so ``engine.spawn_rng`` children are handed out in admission
order, matching the façade's construction order for batch arrivals), and
the metrics flow through the same :class:`MetricsCollector`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.api import registry as _api_registry
from repro.cluster.arrivals import build_arrivals
from repro.cluster.metrics import ClusterReport, build_cluster_report
from repro.cluster.scheduling import ClusterScheduler, SpeculationBudgetScheduler, make_scheduler
from repro.hadoop.app_master import ApplicationMaster
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import Job, JobSpec
from repro.simulator.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.spec import ClusterSpec


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


#: Lifecycle callback: (phase, job, simulation-time, queue-length).
JobObserver = Callable[[str, ClusterJob, float, int], None]


class ClusterSimulation:
    """Run one :class:`ClusterSpec` end to end."""

    def __init__(self, spec: "ClusterSpec", on_job_event: Optional[JobObserver] = None):
        self._spec = spec
        self._observer = on_job_event
        self._engine = SimulationEngine(seed=spec.seed)
        self._cluster = Cluster(spec.cluster)
        self._resource_manager = ResourceManager(self._engine, self._cluster, spec.hadoop)
        self._node_manager = NodeManager(self._engine, self._resource_manager, spec.hadoop)
        self._queue: List[ClusterJob] = []
        self._running: List[ClusterJob] = []
        self._jobs: List[ClusterJob] = []
        self._queue_samples: List[Tuple[float, int]] = []
        self._first_arrival: Optional[float] = None

        strategy = spec.build_strategy()
        self._metrics = MetricsCollector(strategy.name)
        self._scheduler: ClusterScheduler = make_scheduler(spec.scheduler, spec.scheduler_params)
        if isinstance(self._scheduler, SpeculationBudgetScheduler):
            self._scheduler.bind_capacity(spec.cluster.total_slots)
        self._strategy = self._scheduler.wrap_strategy(strategy)
        estimator_name = spec.estimator
        if estimator_name is not None:
            self._estimator = _api_registry.ESTIMATORS.get(estimator_name)
        else:
            from repro.simulator.runner import default_estimator_for

            self._estimator = default_estimator_for(strategy.name)

    @property
    def jobs(self) -> List[ClusterJob]:
        """All lifecycle records, in arrival order."""
        return self._jobs

    def run(self) -> ClusterReport:
        """Execute the simulation and build the cluster report."""
        spec = self._spec
        arrivals = build_arrivals(spec.arrival.kind, spec.arrival.params, spec.seed)
        for order, job_spec in enumerate(arrivals):
            cluster_job = ClusterJob(
                spec=job_spec, arrival_order=order, arrival_time=job_spec.submit_time
            )
            self._jobs.append(cluster_job)
            self._engine.schedule_at(job_spec.submit_time, self._on_arrival, cluster_job)
        self._engine.run(max_events=spec.max_events)

        # Safety net: jobs still in flight when the event cap tripped (or
        # starved in the queue forever) are recorded as unfinished.
        for job in self._jobs:
            if job.finished:
                continue
            if job.master is not None:
                self._metrics.record_job(job.master.job, self._engine.now)
            else:
                unstarted = Job(spec=job.spec)
                self._metrics.record_job(unstarted, self._engine.now)
                unstarted.tasks.clear()  # each task links back to its job

        # A run cut short by max_events leaves callbacks into the masters.
        self._engine.clear()
        self._resource_manager.clear()
        self._node_manager.clear()
        simulation = self._metrics.build_report()
        first = self._first_arrival if self._first_arrival is not None else 0.0
        return build_cluster_report(
            scheduler=spec.scheduler,
            arrival=spec.arrival.kind,
            simulation=simulation,
            jobs=self._jobs,
            queue_samples=self._queue_samples,
            total_slots=spec.cluster.total_slots,
            makespan_s=max(0.0, self._engine.now - first),
        )

    # ------------------------------------------------------------------
    # Lifecycle plumbing
    # ------------------------------------------------------------------
    def _emit(self, phase: str, job: ClusterJob) -> None:
        if self._observer is not None:
            self._observer(phase, job, self._engine.now, len(self._queue))

    def _on_arrival(self, job: ClusterJob) -> None:
        if self._first_arrival is None:
            self._first_arrival = self._engine.now
        self._queue.append(job)
        self._sample_queue()
        self._emit("arrived", job)
        self._dispatch()

    def _sample_queue(self) -> None:
        self._queue_samples.append((self._engine.now, len(self._queue)))

    def _free_slots(self) -> Optional[int]:
        return self._cluster.free_slots

    def _dispatch(self) -> None:
        if not self._queue:
            return
        picks = self._scheduler.select(
            tuple(self._queue), tuple(self._running), self._free_slots(), self._engine.now
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
        sim_job = Job(spec=job.spec)
        master = ApplicationMaster(
            engine=self._engine,
            job=sim_job,
            strategy=self._strategy,
            resource_manager=self._resource_manager,
            node_manager=self._node_manager,
            config=self._spec.hadoop,
            metrics=self._metrics,
            estimator=self._estimator,
            on_job_complete=lambda _sim_job, record, cj=job: self._on_job_complete(cj, record),
        )
        job.master = master
        self._running.append(job)
        job.transition(JobState.RUNNING, self._engine.now)
        self._emit("started", job)
        master.start()

    def _on_job_complete(self, job: ClusterJob, record) -> None:
        met = bool(record.met_deadline) if record is not None else False
        job.met_deadline = met
        job.transition(JobState.COMPLETED if met else JobState.MISSED, self._engine.now)
        if job in self._running:
            self._running.remove(job)
        self._scheduler.on_job_finished(job)
        self._emit("finished", job)
        self._dispatch()

    # Exposed for tests / diagnostics.
    @property
    def queue_samples(self) -> List[Tuple[float, int]]:
        """Sampled (time, queue-length) path."""
        return self._queue_samples

    @property
    def state_counts(self) -> Dict[str, int]:
        """Current count of jobs per lifecycle state."""
        counts: Dict[str, int] = {}
        for job in self._jobs:
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return counts
