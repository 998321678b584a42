"""Tests of the string-keyed plugin registries."""

from __future__ import annotations

import pytest

from repro.api import (
    ESTIMATORS,
    STRATEGIES,
    WORKLOADS,
    Registry,
    RunnerTemplate,
    ScenarioSpec,
    SpecValidationError,
    UnknownPluginError,
    WorkloadSpec,
    available_estimators,
    available_strategies,
    available_workloads,
    create_strategy,
    register_estimator,
    register_strategy,
    register_workload,
    run,
)
from repro.core.model import StrategyName
from repro.simulator.entities import JobSpec
from repro.strategies import StrategyParameters
from repro.strategies.hadoop_ns import HadoopNoSpeculationStrategy


@pytest.fixture
def registry() -> Registry:
    return Registry("widget")


class TestRegistry:
    def test_register_and_get(self, registry):
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert registry.names() == ("a",)

    def test_decorator_form(self, registry):
        @registry.register("thing")
        def build():
            return "built"

        assert registry.get("thing") is build

    def test_case_insensitive(self, registry):
        registry.register("MyWidget", 7)
        assert registry.get("mywidget") == 7
        assert "MYWIDGET" in registry

    def test_duplicate_rejected_unless_overwrite(self, registry):
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_unknown_lists_available(self, registry):
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownPluginError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message and "alpha" in message and "beta" in message

    def test_bad_name_rejected(self, registry):
        with pytest.raises(TypeError):
            registry.register("", 1)
        with pytest.raises(TypeError):
            registry.register(None, 1)


class TestBuiltins:
    def test_all_paper_strategies_registered(self):
        assert set(available_strategies()) == {name.value for name in StrategyName}

    def test_builtin_estimators(self):
        assert set(available_estimators()) == {"chronos", "hadoop"}

    def test_builtin_workloads(self):
        assert {"benchmark", "mixed", "google-trace", "explicit"} <= set(available_workloads())

    def test_create_strategy_resolves_aliases(self):
        strategy = create_strategy("speculative-resume", StrategyParameters())
        assert strategy.name is StrategyName.SPECULATIVE_RESUME

    def test_workload_builders_produce_jobs(self):
        for kind, params in [
            ("benchmark", {"name": "sort", "num_jobs": 3}),
            ("mixed", {"num_jobs_per_benchmark": 2}),
            ("google-trace", {"num_jobs": 5}),
        ]:
            spec = ScenarioSpec(workload=WorkloadSpec(kind, params), strategy="clone")
            jobs = spec.build_jobs()
            assert jobs and all(isinstance(job, JobSpec) for job in jobs)

    def test_workload_bad_params_name_the_kind(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "warp": 9}),
            strategy="clone",
        )
        with pytest.raises(ValueError, match="benchmark"):
            spec.build_jobs()
        # A template builds another seed's jobs from the workload alone,
        # and maps the builder's error the same way.
        with pytest.raises(SpecValidationError, match="benchmark") as excinfo:
            RunnerTemplate(spec).jobs_for(spec.seed + 1)
        assert excinfo.value.field == "workload.params"


class TestThirdPartyPlugins:
    def test_custom_strategy_runs_through_facade(self):
        """A plugin registered from outside `repro` reaches run() by name."""

        @register_strategy("test-custom-ns")
        def build_custom(params):
            return HadoopNoSpeculationStrategy(params)

        try:
            spec = ScenarioSpec(
                workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 3}),
                strategy="test-custom-ns",
                cluster={"num_nodes": 0},
            )
            result = run(spec)
            assert result.report.num_jobs == 3
            assert result.fingerprint == spec.fingerprint()
        finally:
            STRATEGIES.unregister("test-custom-ns")

    def test_custom_estimator_and_workload(self):
        @register_estimator("test-always-late")
        def always_late(attempt, now):
            return float("inf")

        @register_workload("test-tiny")
        def tiny_workload(num_jobs=2, *, seed=0):
            return [
                JobSpec(job_id=f"tiny-{i}", num_tasks=2, deadline=80.0, tmin=10.0, beta=1.5)
                for i in range(num_jobs)
            ]

        try:
            spec = ScenarioSpec(
                workload=WorkloadSpec("test-tiny", {"num_jobs": 3}),
                strategy="hadoop-ns",
                estimator="test-always-late",
                cluster={"num_nodes": 0},
            )
            result = run(spec)
            assert result.report.num_jobs == 3
        finally:
            ESTIMATORS.unregister("test-always-late")
            WORKLOADS.unregister("test-tiny")
