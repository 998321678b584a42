"""Tests of the top-level public API (what the README quick start uses)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    ChronosOptimizer,
    ParetoDistribution,
    ScenarioSpec,
    StragglerModel,
    StrategyName,
    Sweep,
    WorkloadSpec,
    expected_cost,
    expected_machine_time,
    net_utility,
    pocd,
    run,
    tradeoff_frontier,
)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__ == "15.0.0"

    def test_declared_dependencies_suffice(self):
        """A fresh interpreter imports ``repro.api`` and runs S-Restart without scipy.

        scipy is not a declared dependency, so neither the import nor the
        Theorem-4 cost path may load it.
        """
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        program = "\n".join([
            "import sys",
            "def scipy_modules():",
            "    return sorted(name for name in sys.modules if name.startswith('scipy'))",
            "from repro.api import ScenarioSpec, WorkloadSpec, run",
            "print(scipy_modules())",
            "workload = WorkloadSpec('benchmark', {'name': 'sort', 'num_jobs': 3})",
            "spec = ScenarioSpec(workload=workload, strategy='s-restart', cluster={'num_nodes': 0})",
            "assert run(spec).report.pocd >= 0.0",
            "print(scipy_modules())",
        ])
        child = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, check=True, env=env
        )
        assert child.stdout.split("\n")[:2] == ["[]", "[]"]

    def test_api_import_loads_no_sqlite(self):
        """``import repro.api`` leaves sqlite and the distributed layer unloaded."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        program = (
            "import sys, repro.api; "
            "print(sorted({'sqlite3', 'repro.distributed'} & set(sys.modules)))"
        )
        child = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, check=True, env=env
        )
        assert child.stdout.strip() == "[]"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_lazy_packages_resolve_exports_and_reject_unknown_names(self):
        """The PEP 562 package inits load a name on first access and still
        raise AttributeError for anything they do not export."""
        import repro.experiments
        import repro.service
        import repro.simulator

        for package in (repro, repro.experiments, repro.service, repro.simulator):
            for name in package.__all__:
                assert getattr(package, name) is not None
                assert name in dir(package)
            with pytest.raises(AttributeError, match="no_such_name"):
                package.no_such_name

    def test_quickstart_flow(self):
        """The exact flow shown in the README quick start."""
        model = StragglerModel(
            tmin=20, beta=1.5, num_tasks=10, deadline=100, tau_est=40, tau_kill=80
        )
        result = ChronosOptimizer(model, theta=1e-4).optimize(StrategyName.SPECULATIVE_RESUME)
        assert result.r_opt >= 0
        assert 0.0 <= result.pocd <= 1.0
        assert result.cost > 0.0

    def test_analytical_helpers_exposed(self):
        model = StragglerModel(
            tmin=20, beta=1.5, num_tasks=10, deadline=100, tau_est=40, tau_kill=80
        )
        assert pocd(model, StrategyName.CLONE, 1) > 0
        assert expected_machine_time(model, StrategyName.CLONE, 1) > 0
        assert expected_cost(model, StrategyName.CLONE, 1, unit_price=2.0) > 0
        from repro.core.utility import UtilityParameters

        assert net_utility(model, StrategyName.CLONE, 1, UtilityParameters()) < 0
        assert len(tradeoff_frontier(model, StrategyName.CLONE, r_max=4)) >= 1

    def test_declarative_simulation_flow(self):
        """The documented path: describe a scenario, run it."""
        spec = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 5}),
            strategy="s-resume",
            strategy_params={"tau_est": 40.0, "tau_kill": 80.0},
            cluster={"num_nodes": 0},
        )
        result = run(spec)
        assert result.report.num_jobs == 5
        assert result.fingerprint == spec.fingerprint()

    def test_sweep_exposed_at_top_level(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 5}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        sweep = Sweep.grid(spec, {"strategy": ["hadoop-ns", "s-resume"]})
        assert len(sweep) == 2

    def test_pareto_exposed(self):
        assert ParetoDistribution(10.0, 1.5).mean() == pytest.approx(30.0)


def _owner_of(path):
    """``"module:Owner.name"`` -> (the imported owner object, ``"name"``)."""
    module, _, dotted = path.partition(":")
    *owners, name = dotted.split(".")
    owner = importlib.import_module(module)
    for attribute in owners:
        owner = getattr(owner, attribute)
    return owner, name


class TestDeprecatedShims:
    """The 1.x top-level shims and the in-memory ``ResultCache`` are gone in 2.0."""

    @pytest.mark.parametrize("name", ["SimulationRunner", "build_strategy", "ResultCache"])
    def test_removed_names_raise(self, name):
        import repro.api

        assert name not in repro.__all__ and name not in repro.api.__all__
        with pytest.raises(AttributeError):
            getattr(repro, name)
        with pytest.raises(AttributeError):
            getattr(repro.api, name)

    @pytest.mark.parametrize("name", ["JobArrived", "JobStarted", "JobFinished"])
    def test_cluster_job_events_are_gone_in_8_0(self, name):
        """Nothing emitted them; a cluster run is one scenario to the stream."""
        import repro.api
        import repro.api.events

        assert name not in repro.api.__all__
        for module in (repro.api, repro.api.events):
            with pytest.raises(AttributeError):
                getattr(module, name)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.api", "STOP_CONDITIONS"),
            ("repro.api", "register_stop_condition"),
            ("repro.api", "make_stop_condition"),
            ("repro.api", "available_stop_conditions"),
            ("repro.hadoop.resource_manager", "ContainerRequest"),
            ("repro.simulator", "Cluster"),
        ],
    )
    def test_names_removed_in_9_0(self, module, name):
        """Stop conditions are plain callables; an attempt is its own container request."""
        imported = importlib.import_module(module)
        assert name not in getattr(imported, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(imported, name)

    def test_analysis_package_is_gone_in_10_0(self):
        """``tests/test_conformance.py`` checks Theorems 1-6 against the simulator."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis")

    @pytest.mark.parametrize(
        "path",
        [
            "repro.strategies.base:register_strategy",
            "repro.strategies.base:available_strategies",
            "repro.strategies.base:build_strategy",
            "repro.simulator.entities:Task.live_attempts",
            "repro.simulator.entities:Task.best_progress_attempt",
            "repro.simulator.entities:Task.original_attempt",
        ],
    )
    def test_names_removed_in_10_0(self, path):
        """One strategy table; callers walk ``task.attempts`` themselves."""
        owner, name = _owner_of(path)
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize(
        "path",
        [
            "repro.distributions:EmpiricalDistribution",
            "repro.distributions:ShiftedDistribution",
            "repro.distributions:TruncatedParetoDistribution",
            "repro.distributions.pareto:TruncatedParetoDistribution",
            "repro.traces.google_trace:SyntheticGoogleTrace.iter_batches",
            "repro.traces.spot_price:SpotPriceHistory.cost_of",
            "repro.strategies:StrategyParameters.with_theta",
            "repro.simulator.runner:SimulationRunner.run_strategies",
            "repro.experiments.common:run_strategy_suite",
            "repro.experiments.common:suite_specs",
            "repro.experiments.table1:_fill_rows",
            "repro.experiments.table1:trace_jobs",
        ],
    )
    def test_names_removed_in_11_0(self, path):
        """Nothing but tests called them; every harness is rows run as one sweep."""
        owner, name = _owner_of(path)
        assert name not in getattr(owner, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize(
        "module", ["repro.distributions.empirical", "repro.distributions.shifted"]
    )
    def test_modules_removed_in_11_0(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "path",
        [
            "repro:set_default_executor",
            "repro.api:set_default_executor",
            "repro.api:default_executor",
            "repro.api:set_default_on_event",
            "repro.api:default_on_event",
            "repro.api.sweep:set_default_executor",
            "repro.api.sweep:default_executor",
            "repro.api.sweep:set_default_on_event",
            "repro.api.sweep:default_on_event",
            "repro.api.sweep:_executor_defaults",
            "repro.api.sweep:_default_on_event",
            "repro.api:EVENT_TYPES",
            "repro.api:event_from_dict",
            "repro.api.events:EVENT_TYPES",
            "repro.api.events:event_from_dict",
            "repro.api.events:SweepEvent.to_dict",
            "repro.strategies:StrategyParameters.with_timing",
            "repro.core.model:StragglerModel.with_timing",
            "repro.traces.google_trace:SyntheticGoogleTrace.summary",
        ],
    )
    def test_names_removed_in_12_0(self, path):
        """Sweep options are explicit keywords; nothing but tests called the rest."""
        owner, name = _owner_of(path)
        assert name not in getattr(owner, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize(
        "path",
        [
            "repro.api:ScenarioSpec.to_json",
            "repro.api:ScenarioSpec.from_json",
            "repro.cluster:ClusterSpec.to_json",
            "repro.cluster:ClusterSpec.from_json",
            "repro.api:SweepResult.reports",
            "repro.core:StragglerModel.with_beta",
            "repro.core:StragglerModel.with_phi_est",
            "repro.core:StragglerModel.from_relative_deadline",
            "repro.core:StrategyName.baselines",
            "repro.core:OptimizationResult.feasible",
            "repro.core.cost:expected_machine_time_no_speculation",
            "repro.core.pocd:pocd_no_speculation",
            "repro.core.pocd:required_attempts_for_target",
            "repro.distributions:fit_pareto_mle",
            "repro.distributions.pareto:fit_pareto_mle",
            "repro.distributions:Distribution.sf",
            "repro.distributions:Distribution.quantile",
            "repro.distributions:ParetoDistribution.pdf",
            "repro.distributions:ParetoDistribution.sf",
            "repro.distributions:ParetoDistribution.quantile",
            "repro.distributions:ParetoDistribution.variance",
            "repro.distributions:ParetoDistribution.median",
            "repro.distributions:ParetoDistribution.prob_exceeds",
            "repro.distributions:ParetoDistribution.scaled",
            "repro.experiments.common:ExperimentTable.column",
            "repro.experiments.estimators:EstimatorAblationResult.cost_ratio",
            "repro.simulator.progress:estimate_remaining_time",
            "repro.simulator.progress:estimate_bytes_progress",
            "repro.simulator.entities:Task.task_id",
            "repro.simulator.engine:SimulationEngine.step",
            "repro.simulator.engine:SimulationEngine.rng",
            "repro.hadoop.app_master:ApplicationMaster.elapsed",
            "repro.cluster.scheduling:SpeculationBudgetScheduler.capacity",
            "repro.traces.spot_price:SpotPriceHistory.times",
            "repro.traces.spot_price:SpotPriceHistory.prices",
            "repro.distributed.leases:LeaseKeeper.lost",
            "repro.service.client:HttpBroker.credentials",
            "repro.telemetry:Gauge.dec",
            "repro.telemetry:MetricsRegistry.unregister",
        ],
    )
    def test_names_removed_in_13_0(self, path):
        """Nothing outside tests used them (``benchmarks/code_lines.py`` gates it)."""
        owner, name = _owner_of(path)
        assert name not in getattr(owner, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize(
        "path",
        [
            "repro.distributed:WorkerConfig",
            "repro.distributed.worker:WorkerConfig",
            "repro.distributed:LeasePolicy.max_attempts",
            "repro.distributed:RestartPolicy.backoff_s",
            "repro.distributed:RestartPolicy.backoff_factor",
            "repro.distributed:RestartPolicy.backoff_max_s",
            "repro.distributed:RestartPolicy.stable_s",
            "repro.distributed:RestartPolicy.backoff_for",
            "repro.distributions:vectorized_batch_size",
            "repro.distributions.batching:vectorized_batch_size",
        ],
    )
    def test_names_removed_in_14_0(self, path):
        """Settings no program set are constants; their carriers are gone."""
        owner, name = _owner_of(path)
        assert name not in getattr(owner, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: d.LeasePolicy(timeout=4.0, heartbeat_interval=1.0),
            lambda d: d.LeasePolicy(max_attempts=3),
            lambda d: d.RestartPolicy(backoff_s=0.5),
            lambda d: d.RestartPolicy(stable_s=30.0),
            lambda d: d.Worker("queue.sqlite", config=None),
            lambda d: d.WorkerPool("queue.sqlite", workers=1, config=None),
            lambda d: d.WorkerPool("queue.sqlite", workers=1, id_prefix="host-a"),
        ],
        ids=[
            "heartbeat_interval",
            "max_attempts",
            "backoff_s",
            "stable_s",
            "Worker-config",
            "WorkerPool-config",
            "id_prefix",
        ],
    )
    def test_keywords_removed_in_14_0(self, call):
        import repro.distributed

        with pytest.raises(TypeError, match="unexpected keyword"):
            call(repro.distributed)

    @pytest.mark.parametrize(
        "path",
        [
            "repro.distributed:TaskRecord",
            "repro.distributed.broker:TaskRecord",
            "repro.distributed:Broker.task",
            "repro.distributed:Broker.tasks",
            "repro.distributed:SqliteResultStore.get_many",
            "repro.distributed:SqliteResultStore.results",
            "repro.distributed:SqliteResultStore.clear",
            "repro.distributed:SqliteResultStore.__len__",
            "repro.distributed:SqliteResultStore.__contains__",
            "repro.service:HttpResultStore.get_many",
            "repro.service:HttpResultStore.results",
            "repro.service:HttpResultStore.clear",
            "repro.service:HttpResultStore.__len__",
            "repro.service:HttpResultStore.__contains__",
            "repro.service.protocol:record_to_wire",
            "repro.service.protocol:record_from_wire",
            "repro.service.protocol:_result_from_wire",
            "repro.distributed.executor:_result_from_payload",
            "repro.distributed.executor:_stored_results",
        ],
    )
    def test_names_removed_in_15_0(self, path):
        """One reader of stored rows is left; the memo and test-only readers are gone."""
        owner, name = _owner_of(path)
        assert name not in getattr(owner, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(owner, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute
