"""High-level simulation driver.

:class:`SimulationRunner` wires the pieces together: it builds the engine,
cluster, Resource Manager and Node Manager, schedules every job's
submission, attaches a per-job Application Master running the requested
strategy, runs the event loop to completion and returns a
:class:`~repro.simulator.metrics.SimulationReport`.

The runner is deliberately stateless across calls to :meth:`run`: each call
creates a fresh engine and cluster so experiments can sweep strategies and
parameters without hidden coupling.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro import telemetry
from repro.core.model import StrategyName
from repro.hadoop.app_master import ApplicationMaster
from repro.hadoop.config import HadoopConfig
from repro.hadoop.node_manager import NodeManager
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import AttemptStatus, Job, JobSpec
from repro.simulator.metrics import MetricsCollector, SimulationReport
from repro.simulator.progress import (
    CompletionTimeEstimator,
    chronos_estimate_completion,
    hadoop_estimate_completion,
)


if TYPE_CHECKING:  # pragma: no cover - imports for type checking only
    from repro.simulator.entities import Attempt, Task
    from repro.strategies.base import StrategyParameters
    from repro.telemetry import Profiler


# Per-run engine totals, flushed once after the event loop (never from
# inside it — the per-event path stays uninstrumented by design).
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


_NULL_CONTEXT = nullcontext()


def _null_phase(name: str):
    """The disabled-profiler phase: one reusable no-op context manager."""
    return _NULL_CONTEXT


@dataclass(frozen=True)
class RunnerConfig:
    """Configuration of a simulation run.

    ``profiler`` is an optional :class:`repro.telemetry.Profiler` that
    receives coarse per-phase timings (build/simulate/report).  It is
    excluded from comparison and repr on purpose: attaching one must not
    change a config's identity (scenario fingerprints never include the
    runner config, and that stays true).
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    seed: int = 0
    max_events: Optional[int] = None
    profiler: Optional["Profiler"] = field(default=None, compare=False, repr=False)


class SimulationRunner:
    """Runs a set of jobs under one strategy and reports aggregate metrics."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        hadoop: Optional[HadoopConfig] = None,
        seed: int = 0,
        max_events: Optional[int] = None,
        profiler: Optional["Profiler"] = None,
    ):
        self._config = RunnerConfig(
            cluster=cluster if cluster is not None else ClusterConfig(),
            hadoop=hadoop if hadoop is not None else HadoopConfig(),
            seed=seed,
            max_events=max_events,
            profiler=profiler,
        )

    @property
    def config(self) -> RunnerConfig:
        """The runner configuration."""
        return self._config

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
        estimator = estimator if estimator is not None else default_estimator_for(strategy.name)

        # Coarse-phase profiling: three `with` blocks per run when a
        # profiler is attached, a reused no-op context when not — the
        # per-event hot loop inside engine.run is never touched.
        profiler = self._config.profiler
        phase = _null_phase if profiler is None else profiler.phase

        with phase("build"):
            engine = SimulationEngine(seed=self._config.seed)
            cluster = Cluster(self._config.cluster)
            resource_manager = ResourceManager(engine, cluster, self._config.hadoop)
            node_manager = NodeManager(engine, resource_manager, self._config.hadoop)
            metrics = MetricsCollector(strategy.name)

            masters = []
            for spec in specs:
                job = Job(spec=spec)
                master = ApplicationMaster(
                    engine=engine,
                    job=job,
                    strategy=strategy,
                    resource_manager=resource_manager,
                    node_manager=node_manager,
                    config=self._config.hadoop,
                    metrics=metrics,
                    estimator=estimator,
                )
                masters.append(master)
                engine.schedule_at(spec.submit_time, master.start)

        with phase("simulate"):
            engine.run(max_events=self._config.max_events)

        with phase("report"):
            # Safety net: record any job that never finished (should not
            # happen because every attempt eventually completes, but a
            # max_events cap can truncate the run).
            for master in masters:
                if not master.finished:
                    metrics.record_job(master.job, engine.now)
            report = metrics.build_report()

        self._flush_engine_metrics(engine, masters)
        for master in masters:
            master.release()
        # A run cut short by max_events leaves callbacks into the masters.
        engine.clear()
        resource_manager.clear()
        node_manager.clear()
        return report

    @staticmethod
    def _flush_engine_metrics(engine: SimulationEngine, masters: Sequence[object]) -> None:
        """Fold one run's engine totals into the process-wide registry."""
        _ENGINE_EVENTS.inc(engine.processed_events)
        _ENGINE_HEAP.set(engine.pending_events)
        launched = killed = 0
        for master in masters:
            for task in master.job.tasks:
                for attempt in task.attempts:
                    if not attempt.is_original:
                        launched += 1
                        if attempt.status is AttemptStatus.KILLED:
                            killed += 1
        if launched:
            _SPEC_LAUNCHED.inc(launched)
        if killed:
            _SPEC_KILLED.inc(killed)

    def run_strategies(
        self,
        jobs: Sequence[JobSpec],
        strategies: Iterable[SpeculationStrategyProtocol],
        estimator: Optional[CompletionTimeEstimator] = None,
    ) -> Dict[StrategyName, SimulationReport]:
        """Run the same jobs under several strategies (fresh engine each time)."""
        reports: Dict[StrategyName, SimulationReport] = {}
        for strategy in strategies:
            reports[strategy.name] = self.run(jobs, strategy, estimator=estimator)
        return reports


def default_estimator_for(name: StrategyName) -> CompletionTimeEstimator:
    """The completion-time estimator each strategy uses in the paper.

    Tolerates plugin strategies whose ``name`` is not a
    :class:`StrategyName`: anything without a truthy ``is_chronos``
    attribute gets the plain Hadoop estimator.
    """
    if getattr(name, "is_chronos", False):
        return chronos_estimate_completion
    return hadoop_estimate_completion
