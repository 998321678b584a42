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

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562).  Besides keeping ``import repro.simulator.cluster``
#: cheap, this breaks an import cycle: the runner drives the
#: :mod:`repro.hadoop` control plane, whose modules build on this
#: package's engine and entities, so an eager import of the runner here
#: would fail whenever :mod:`repro.hadoop` is imported first.
_EXPORTS = {
    **dict.fromkeys(("SimulationRunner", "SpeculationStrategyProtocol"), "repro.simulator.runner"),
    **dict.fromkeys(("SimulationEngine", "Event"), "repro.simulator.engine"),
    "ClusterConfig": "repro.simulator.cluster",
    **dict.fromkeys(
        ("JobSpec", "Job", "Task", "Attempt", "AttemptStatus"), "repro.simulator.entities"
    ),
    **dict.fromkeys(
        ("MetricsCollector", "SimulationReport", "JobRecord"), "repro.simulator.metrics"
    ),
    **dict.fromkeys(
        (
            "CompletionTimeEstimator",
            "chronos_estimate_completion",
            "hadoop_estimate_completion",
        ),
        "repro.simulator.progress",
    ),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
