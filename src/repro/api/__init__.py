"""Declarative scenario API: specs, registries, façade and sweeps.

This package is the public entry point for running simulations.  Instead
of hand-wiring a runner, a strategy factory and an estimator, callers
describe *what* to run as a serializable :class:`ScenarioSpec` and let
:func:`run` (one scenario) or :class:`Sweep` (a grid of scenarios, with
process-pool parallelism and fingerprint-keyed caching) execute it::

    from repro.api import ScenarioSpec, Sweep, WorkloadSpec, run

    spec = ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 50}),
        strategy="s-resume",
        strategy_params={"tau_est": 40.0, "tau_kill": 80.0, "theta": 1e-4},
    )
    result = run(spec)
    print(result.report.pocd, result.fingerprint)

    sweep = Sweep.grid(spec, {"strategy": ["clone", "s-restart", "s-resume"],
                              "seed": [0, 1, 2]})
    print(sweep.run(jobs=4).to_text())

Specs round-trip through JSON (``ScenarioSpec.from_dict(spec.to_dict())
== spec``) and hash stably (:meth:`ScenarioSpec.fingerprint`), so results
can be cached, compared and shipped across processes.  Strategies,
completion-time estimators and workload generators are resolved through
string-keyed plugin registries — see :func:`register_strategy`,
:func:`register_estimator` and :func:`register_workload` for extending
the system without editing ``repro``.

Execution is event driven: :meth:`Sweep.stream` / :func:`stream_specs`
yield :mod:`repro.api.events` objects as scenarios complete (the
blocking calls above are thin consumers of the same stream), a
:class:`CancelToken` turns Ctrl-C into a *partial* result instead of
lost work, and ``stop=`` takes any early-stopping callable over the
incoming events (``stop=max_failures()``, ``stop=first_deadline_miss()``)::

    for event in sweep.stream(jobs=4):
        if isinstance(event, ScenarioCompleted):
            print(event.index, event.result.report.pocd)

Beyond grids, :mod:`repro.adaptive` searches the scenario space with
ask/tell algorithms — :func:`run_search` / :func:`stream_search` (plus
:func:`register_algorithm` and :func:`register_objective`) are
re-exported here and speak the same event stream, executors and
control surface as sweeps.
"""

from repro._lazy import lazy_exports
from repro.api.events import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioQueued,
    ScenarioRetried,
    ScenarioStarted,
    SearchFinished,
    SweepEvent,
    SweepFinished,
    SweepStarted,
    TrialProposed,
    TrialPruned,
)
from repro.api.facade import (
    RunnerTemplate,
    ScenarioResult,
    clear_template_cache,
    execute,
    report_from_dict,
    report_to_dict,
    result_from_dict,
    run,
    spec_from_dict,
)
from repro.api.registry import (
    ESTIMATORS,
    STRATEGIES,
    WORKLOADS,
    Registry,
    UnknownPluginError,
    available_estimators,
    available_strategies,
    available_workloads,
    create_strategy,
    register_estimator,
    register_strategy,
    register_workload,
)
from repro.api.spec import (
    ScenarioSpec,
    SpecValidationError,
    WorkloadSpec,
    canonical_json,
    job_spec_from_dict,
    job_spec_to_dict,
)
from repro.api.sweep import (
    EXECUTORS,
    CancelToken,
    ResultStore,
    StopCondition,
    Sweep,
    SweepResult,
    first_deadline_miss,
    max_failures,
    run_specs,
    stream_specs,
)

# repro.adaptive and repro.cluster build on this package (the sweep
# layer, specs, registries, façade), so importing them eagerly here would
# recurse back into this module while it is still initialising.  PEP 562
# lazy attributes keep ``from repro.api import run_search`` working
# without paying for (or racing) those imports on plain sweeps.
_LAZY_EXPORTS = {
    **dict.fromkeys(
        (
            "SearchResult",
            "run_search",
            "stream_search",
            "AlgorithmAdapter",
            "Proposal",
            "TrialLedger",
            "TrialRecord",
            "register_algorithm",
            "available_algorithms",
            "make_algorithm",
            "Objective",
            "register_objective",
            "available_objectives",
        ),
        "repro.adaptive",
    ),
    **dict.fromkeys(
        (
            "ClusterSpec",
            "ArrivalSpec",
            "ClusterResult",
            "ClusterReport",
            "run_cluster",
            "ARRIVALS",
            "SCHEDULERS",
            "register_arrival",
            "register_cluster_scheduler",
            "available_arrivals",
            "available_cluster_schedulers",
        ),
        "repro.cluster",
    ),
}

__all__ = [
    # specs
    "ScenarioSpec",
    "WorkloadSpec",
    "SpecValidationError",
    "canonical_json",
    "job_spec_to_dict",
    "job_spec_from_dict",
    # façade
    "run",
    "RunnerTemplate",
    "clear_template_cache",
    "ScenarioResult",
    "report_to_dict",
    "report_from_dict",
    # polymorphic dispatch (scenario + cluster payloads)
    "execute",
    "spec_from_dict",
    "result_from_dict",
    # sweeps
    "Sweep",
    "SweepResult",
    "ResultStore",
    "run_specs",
    "stream_specs",
    "EXECUTORS",
    # streaming control
    "CancelToken",
    "StopCondition",
    "max_failures",
    "first_deadline_miss",
    # events
    "SweepEvent",
    "SweepStarted",
    "ScenarioQueued",
    "ScenarioStarted",
    "ScenarioCacheHit",
    "ScenarioCompleted",
    "ScenarioFailed",
    "ScenarioRetried",
    "SweepFinished",
    "TrialProposed",
    "TrialPruned",
    "SearchFinished",
    # registries
    "Registry",
    "UnknownPluginError",
    "STRATEGIES",
    "ESTIMATORS",
    "WORKLOADS",
    "register_strategy",
    "register_estimator",
    "register_workload",
    "available_strategies",
    "available_estimators",
    "available_workloads",
    "create_strategy",
    # adaptive search and multi-job clusters (lazy)
    *_LAZY_EXPORTS,
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY_EXPORTS)
