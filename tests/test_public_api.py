"""Tests of the top-level public API (what the README quick start uses)."""

from __future__ import annotations

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
        assert repro.__version__ == "5.0.0"

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

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute
