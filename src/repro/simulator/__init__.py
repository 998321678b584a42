"""Discrete-event simulation substrate for the Chronos evaluation.

The paper evaluates Chronos on a Hadoop YARN prototype (40-node EC2
testbed) and through trace-driven simulation.  Neither is available
offline, so this subpackage provides a discrete-event simulator of a
MapReduce cluster that reproduces the mechanisms the evaluation depends
on: container allocation, JVM launch delay, per-attempt Pareto execution
times, progress reports, straggler detection at ``tau_est``, attempt
killing at ``tau_kill``, and heartbeat-driven speculation for the
baselines.

Most callers should not wire this up by hand: the declarative façade in
:mod:`repro.api` builds runners from serializable scenario specs.  The
low-level entry point remains available for custom setups::

    from repro.simulator import SimulationRunner, ClusterConfig
    from repro.strategies import build_strategy
    from repro.core import StrategyName

    runner = SimulationRunner(cluster=ClusterConfig(num_nodes=40, slots_per_node=8))
    report = runner.run(jobs, build_strategy(StrategyName.SPECULATIVE_RESUME))
    print(report.pocd, report.total_cost)
"""

from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import Event, SimulationEngine
from repro.simulator.entities import (
    Attempt,
    AttemptStatus,
    Job,
    JobSpec,
    Task,
)
from repro.simulator.metrics import JobRecord, MetricsCollector, SimulationReport
from repro.simulator.progress import (
    CompletionTimeEstimator,
    chronos_estimate_completion,
    hadoop_estimate_completion,
)
from repro.simulator.runner import SimulationRunner, SpeculationStrategyProtocol

__all__ = [
    "SpeculationStrategyProtocol",
    "SimulationEngine",
    "Event",
    "ClusterConfig",
    "JobSpec",
    "Job",
    "Task",
    "Attempt",
    "AttemptStatus",
    "MetricsCollector",
    "SimulationReport",
    "JobRecord",
    "CompletionTimeEstimator",
    "chronos_estimate_completion",
    "hadoop_estimate_completion",
    "SimulationRunner",
]
