"""High-level simulation driver.

Every simulation runs through ``_Simulation``: it builds a run's
stack (engine, cluster, Resource Manager, Node Manager and metrics
collector), admits a job by constructing its Application Master and
starting it, and at the end records the jobs that never finished,
flushes the engine telemetry and clears the engine, the Resource
Manager and the Node Manager.  Two callers drive it:
:class:`SimulationRunner` admits every job at its submission time and
returns a :class:`~repro.simulator.metrics.SimulationReport`, and
:class:`repro.cluster.ClusterSimulation` queues arrivals and admits
them through a cluster scheduler.

The runner is deliberately stateless across calls to :meth:`run`: each
call builds a fresh stack so experiments can sweep strategies and
parameters without hidden coupling.  Both callers run with CPython's
cyclic collector paused (:func:`_collector_paused`) from building the
stack until the masters are released.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from itertools import zip_longest
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro import telemetry
from repro.core.model import StrategyName
from repro.hadoop.app_master import ApplicationMaster
from repro.hadoop.config import HadoopConfig
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import Job, JobSpec
from repro.simulator.metrics import JobRecord, MetricsCollector, SimulationReport
from repro.simulator.progress import (
    CompletionTimeEstimator,
    chronos_estimate_completion,
    hadoop_estimate_completion,
)
from repro.telemetry.profiler import null_phase


if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.simulator.entities import Attempt, Task
    from repro.strategies.base import StrategyParameters
    from repro.telemetry import Profiler


# Per-run totals, flushed once after the event loop (never from inside
# it — the per-event path stays uninstrumented by design).
_SCENARIO_WALL = telemetry.histogram(
    "chronos_scenario_wall_seconds", "Wall-clock of one scenario simulation"
)
_ENGINE_EVENTS = telemetry.counter(
    "chronos_engine_events_total", "Discrete events processed by simulation engines"
)
_ENGINE_HEAP = telemetry.gauge(
    "chronos_engine_heap_size", "Events left on the heap when the last run stopped"
)
_SPEC_LAUNCHED = telemetry.counter(
    "chronos_speculative_copies_launched_total",
    "Speculative attempts (non-original copies) launched",
)
_SPEC_KILLED = telemetry.counter(
    "chronos_speculative_copies_killed_total",
    "Speculative attempts killed before completing",
)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for one simulation.

    A run builds and drops objects by the ten thousand, so the
    collector would walk the live graph dozens of times per run and
    free nothing: a released run leaves no cycles (``TestTeardown`` in
    ``tests/test_runner_integration.py`` and ``tests/test_cluster.py``
    pins that), and reference counting frees all of it.  The window
    must cover the release too, and the callers drop their stack inside
    it: the allocation count keeps growing while the collector is off,
    so the first allocation after it is back on runs a pass over every
    object the run still holds.

    The flag is process-wide, so it also pauses the collector for any
    other thread that allocates meanwhile, such as a distributed
    worker's ``LeaseKeeper``.  Only the call that turned the collector
    off turns it back on, so nested and concurrent runs never leave it
    off, and a caller that had it off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@runtime_checkable
class SpeculationStrategyProtocol(Protocol):
    """Structural interface the runner (and Application Master) expect.

    Any object with a ``name``, ``params`` and the four hooks below can
    drive a simulation — :class:`repro.strategies.base.SpeculationStrategy`
    subclasses satisfy it, and so can third-party strategies registered
    through :func:`repro.api.register_strategy` without inheriting from
    anything in this package.
    """

    name: StrategyName
    params: "StrategyParameters"

    def plan_job(self, am) -> int:
        """Number of extra attempts ``r`` for a job."""
        ...

    def initial_attempt_count(self, am, task: "Task") -> int:
        """Attempts to launch per task at job start."""
        ...

    def on_job_start(self, am) -> None:
        """Schedule the strategy's checks for a job."""
        ...

    def on_task_complete(self, am, task: "Task", attempt: "Attempt") -> None:
        """Hook invoked when a task finishes."""
        ...


class _Simulation:
    """One run's stack, and the admit and finish steps both callers share.

    Only the Node Manager's and the masters' constructors call
    ``engine.spawn_rng``, and a master is built when its job is
    admitted, so both callers hand out the RNG children in admission
    order.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        hadoop: HadoopConfig,
        seed: int,
        strategy: SpeculationStrategyProtocol,
        estimator: Optional[CompletionTimeEstimator] = None,
        profiler: Optional["Profiler"] = None,
    ):
        self._started = time.perf_counter()
        self.engine = SimulationEngine(seed=seed)
        self._hadoop = hadoop
        self.resource_manager = ResourceManager(self.engine, cluster, hadoop)
        self._node_manager = NodeManager(self.engine, self.resource_manager, hadoop)
        self._metrics = MetricsCollector(strategy.name)
        self._strategy = strategy
        self._estimator = (
            estimator if estimator is not None else default_estimator_for(strategy.name)
        )
        self._profiler = profiler
        #: Every admitted job's master, in admission order.
        self.masters: List[ApplicationMaster] = []

    def admit(
        self,
        spec: JobSpec,
        on_job_complete: Optional[Callable[[Job, JobRecord], None]] = None,
    ) -> ApplicationMaster:
        """Construct the job's Application Master and start it."""
        master = ApplicationMaster(
            engine=self.engine,
            job=Job(spec=spec),
            strategy=self._strategy,
            resource_manager=self.resource_manager,
            node_manager=self._node_manager,
            config=self._hadoop,
            metrics=self._metrics,
            estimator=self._estimator,
            on_job_complete=on_job_complete,
            profiler=self._profiler,
        )
        self.masters.append(master)
        master.start()
        return master

    def finish(
        self, jobs: Iterable[Tuple[JobSpec, Optional[ApplicationMaster]]]
    ) -> SimulationReport:
        """Record the unfinished jobs, build the report and tear down.

        ``jobs`` pairs every arrival, in arrival order, with its master
        (``None`` for a job never admitted).  A ``max_events`` cap or a
        starving queue leaves jobs unfinished; each is recorded as it
        stands.  The masters keep their graphs: callers release them.
        """
        engine = self.engine
        for spec, master in jobs:
            if master is None:
                unstarted = Job(spec=spec)
                self._metrics.record_job(unstarted, engine.now)
                unstarted.tasks.clear()  # each task links back to its job
            elif not master.finished:
                self._metrics.record_job(master.job, engine.now)
        report = self._metrics.build_report()

        # Every kill of a speculative copy goes through
        # ApplicationMaster.kill_attempt, so nothing walks the attempts.
        _SCENARIO_WALL.observe(time.perf_counter() - self._started)
        _ENGINE_EVENTS.inc(engine.processed_events)
        _ENGINE_HEAP.set(engine.pending_events)
        _SPEC_LAUNCHED.inc(sum(record.num_speculative_attempts for record in report.job_records))
        _SPEC_KILLED.inc(sum(master.speculative_killed for master in self.masters))

        # A run cut short by max_events leaves callbacks into the masters.
        engine.clear()
        self.resource_manager.clear()
        self._node_manager.clear()
        return report


class SimulationRunner:
    """Runs a set of jobs under one strategy and reports aggregate metrics.

    A ``profiler`` receives the run's build/simulate/report phases and
    an ``optimize`` phase per Algorithm 1 cache miss.
    """

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        hadoop: Optional[HadoopConfig] = None,
        seed: int = 0,
        max_events: Optional[int] = None,
        profiler: Optional["Profiler"] = None,
    ):
        self._cluster = cluster if cluster is not None else ClusterConfig()
        self._hadoop = hadoop if hadoop is not None else HadoopConfig()
        self._seed = seed
        self._max_events = max_events
        self._profiler = profiler

    def run(
        self,
        jobs: Iterable[JobSpec],
        strategy: SpeculationStrategyProtocol,
        estimator: Optional[CompletionTimeEstimator] = None,
    ) -> SimulationReport:
        """Simulate ``jobs`` under ``strategy`` and return the report.

        Parameters
        ----------
        jobs:
            Job specifications; submission times come from each spec.
        strategy:
            A strategy instance from :mod:`repro.strategies`.
        estimator:
            Completion-time estimator given to the Application Masters.
            Defaults to the Chronos JVM-aware estimator for the Chronos
            strategies and the plain Hadoop estimator for the baselines,
            matching the paper's prototype.
        """
        specs = sorted(jobs, key=lambda spec: spec.submit_time)
        if not specs:
            raise ValueError("at least one job is required")

        # Coarse-phase profiling: three `with` blocks per run when a
        # profiler is attached, a reused no-op context when not — the
        # per-event hot loop inside engine.run is never touched.
        profiler = self._profiler
        phase = null_phase if profiler is None else profiler.phase

        with _collector_paused():
            with phase("build"):
                simulation = _Simulation(
                    self._cluster, self._hadoop, self._seed, strategy, estimator, profiler
                )
                engine = simulation.engine
                for spec in specs:
                    engine.schedule_at(spec.submit_time, simulation.admit, spec)

            with phase("simulate"):
                engine.run(max_events=self._max_events)

            with phase("report"):
                # Arrivals fire in submission order, so the admitted jobs
                # are a prefix of ``specs``.
                report = simulation.finish(zip_longest(specs, simulation.masters))

            for master in simulation.masters:
                master.release()
            # Free the stack while the collector is still off, so the
            # pass that follows the window walks only the report.
            del simulation, engine
        return report


def default_estimator_for(name: StrategyName) -> CompletionTimeEstimator:
    """The completion-time estimator each strategy uses in the paper.

    Tolerates plugin strategies whose ``name`` is not a
    :class:`StrategyName`: anything without a truthy ``is_chronos``
    attribute gets the plain Hadoop estimator.
    """
    if getattr(name, "is_chronos", False):
        return chronos_estimate_completion
    return hadoop_estimate_completion
