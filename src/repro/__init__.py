"""Chronos reproduction: speculative execution for deadline-critical MapReduce.

This package reproduces *"Chronos: A Unifying Optimization Framework for
Speculative Execution of Deadline-critical MapReduce Jobs"* (Xu, Alamro,
Lan, Subramaniam; ICDCS 2018).  It contains:

* :mod:`repro.api` — the declarative public API: serializable
  :class:`ScenarioSpec` scenarios, plugin registries, the :func:`run`
  façade and the parallel :class:`Sweep` executor,
* :mod:`repro.distributed` — the ``"distributed"`` sweep backend: a
  durable sqlite work queue, lease-based worker processes with crash
  recovery, and a sqlite result store,
* :mod:`repro.core` — closed-form PoCD and cost analysis of the Clone,
  Speculative-Restart and Speculative-Resume strategies, the net-utility
  objective and the Algorithm-1 optimizer,
* :mod:`repro.distributions` — the Pareto execution-time model,
* :mod:`repro.simulator` / :mod:`repro.hadoop` — a discrete-event
  simulator of a Hadoop YARN MapReduce cluster (the substrate the paper's
  prototype and trace-driven simulation run on),
* :mod:`repro.strategies` — the three Chronos strategies plus the
  Hadoop-NS, Hadoop-S and Mantri baselines,
* :mod:`repro.traces` — synthetic Google-trace-like workloads, benchmark
  profiles and spot-price histories,
* :mod:`repro.experiments` — one harness per table/figure of the paper,
  the estimator ablation and the ``chronos-experiments`` command,
* :mod:`repro.cluster` — open-arrival multi-job cluster simulation,
* :mod:`repro.adaptive` — adaptive search over scenario space,
* :mod:`repro.service` — the HTTP sweep service and its remote clients,
* :mod:`repro.telemetry` — metrics, ``/metrics`` and phase profiling.

``tests/test_conformance.py`` checks the closed forms of Theorems 1–6
against the simulator in the paper's idealized regime.

Quick start — describe a scenario declaratively and run it::

    from repro import ScenarioSpec, WorkloadSpec, run

    spec = ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 50}),
        strategy="s-resume",
        strategy_params={"tau_est": 40.0, "tau_kill": 80.0, "theta": 1e-4},
    )
    result = run(spec)
    print(result.report.pocd, result.report.mean_cost, result.fingerprint)

Sweep a grid of scenarios across worker processes, with results cached
by content fingerprint::

    from repro import Sweep
    from repro.distributed import SqliteResultStore

    sweep = Sweep.grid(spec, {
        "strategy": ["clone", "s-restart", "s-resume"],
        "strategy_params.theta": [1e-5, 1e-4],
    })
    outcome = sweep.run(jobs=4, cache=SqliteResultStore("results/cache.sqlite"))
    print(outcome.to_text())

The closed-form analysis remains available for pen-and-paper checks::

    from repro import StragglerModel, StrategyName, ChronosOptimizer

    model = StragglerModel(tmin=20, beta=1.5, num_tasks=10, deadline=100,
                           tau_est=40, tau_kill=80)
    result = ChronosOptimizer(model, theta=1e-4).optimize(
        StrategyName.SPECULATIVE_RESUME)
    print(result.r_opt, result.pocd, result.cost)

Specs serialize to JSON (``spec.to_dict()`` / ``ScenarioSpec.from_dict``)
and new strategies, estimators and workloads plug in through
``repro.register_strategy`` / ``register_estimator`` /
``register_workload`` — no edits to this package required.
"""

from repro._lazy import lazy_exports

__version__ = "14.0.0"

#: Each public name and the module that defines it.  The package imports
#: none of them up front (PEP 562): a name's module loads on first
#: access, so a process that never simulates (the sweep service,
#: ``workers status``, ``--list``) never loads numpy or the simulator.
_EXPORTS = {
    # declarative API
    **dict.fromkeys(
        (
            "ScenarioSpec",
            "WorkloadSpec",
            "ScenarioResult",
            "SpecValidationError",
            "run",
            "run_specs",
            "Sweep",
            "SweepResult",
            "register_strategy",
            "register_estimator",
            "register_workload",
            "available_strategies",
            "available_estimators",
            "available_workloads",
        ),
        "repro.api",
    ),
    # closed-form analysis
    **dict.fromkeys(
        (
            "StragglerModel",
            "StrategyName",
            "ChronosOptimizer",
            "OptimizationResult",
            "pocd",
            "expected_machine_time",
            "expected_cost",
            "net_utility",
            "tradeoff_frontier",
        ),
        "repro.core",
    ),
    "ParetoDistribution": "repro.distributions",
    # simulation building blocks
    **dict.fromkeys(("SimulationReport", "JobSpec", "ClusterConfig"), "repro.simulator"),
    "StrategyParameters": "repro.strategies",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
