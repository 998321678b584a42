"""Tests of the declarative scenario specs: round-trip, fingerprints, validation."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.api import (
    ScenarioSpec,
    SpecValidationError,
    WorkloadSpec,
    canonical_json,
    job_spec_from_dict,
    job_spec_to_dict,
)
from repro.simulator.entities import JobSpec
from repro.strategies import StrategyParameters


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 12}),
        strategy="s-resume",
        strategy_params=StrategyParameters(tau_est=40.0, tau_kill=80.0, theta=1e-4),
        cluster={"num_nodes": 0},
        estimator="chronos",
        seed=3,
    )


class TestRoundTrip:
    def test_from_dict_of_to_dict_is_equal(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json_dumps(self, spec):
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_explicit_workload_round_trip(self):
        job = JobSpec(job_id="j0", num_tasks=4, deadline=50.0, tmin=10.0, beta=1.4)
        spec = ScenarioSpec(
            workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(job)]}),
            strategy="clone",
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.build_jobs() == [job]

    def test_job_spec_dict_round_trip(self):
        job = JobSpec(job_id="j1", num_tasks=7, deadline=90.0, tmin=15.5, beta=1.31)
        assert job_spec_from_dict(job_spec_to_dict(job)) == job

    def test_sections_accept_mappings(self):
        spec = ScenarioSpec(
            workload={"kind": "benchmark", "params": {"name": "sort"}},
            strategy="clone",
            strategy_params={"tau_est": 10.0, "tau_kill": 20.0},
            hadoop={"jvm_startup_mean": 0.0, "jvm_startup_jitter": 0.0},
        )
        assert spec.strategy_params.tau_est == 10.0
        assert spec.hadoop.jvm_startup_mean == 0.0

    def test_workload_params_normalized(self):
        a = WorkloadSpec("benchmark", {"name": "sort", "values": (1, 2)})
        b = WorkloadSpec("benchmark", {"name": "sort", "values": [1, 2]})
        assert a == b


class TestFingerprint:
    def test_stable_within_process(self, spec):
        assert spec.fingerprint() == spec.fingerprint()
        assert spec.fingerprint() == ScenarioSpec.from_dict(spec.to_dict()).fingerprint()

    def test_stable_across_processes(self, spec):
        """The cache key must not depend on hash randomization or process state."""
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        program = (
            "import json, sys; from repro.api import ScenarioSpec; "
            "print(ScenarioSpec.from_dict(json.load(sys.stdin)).fingerprint())"
        )
        child = subprocess.run(
            [sys.executable, "-c", program],
            input=json.dumps(spec.to_dict()),
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert child.stdout.strip() == spec.fingerprint()

    def test_differs_when_content_differs(self, spec):
        assert spec.with_overrides(seed=4).fingerprint() != spec.fingerprint()
        assert spec.with_overrides(strategy="clone").fingerprint() != spec.fingerprint()
        assert (
            spec.with_overrides({"strategy_params.theta": 1e-3}).fingerprint()
            != spec.fingerprint()
        )

    def test_aliases_share_a_fingerprint(self):
        a = ScenarioSpec(workload=WorkloadSpec("mixed"), strategy="restart")
        b = ScenarioSpec(workload=WorkloadSpec("mixed"), strategy="s-restart")
        assert a.strategy == "s-restart"
        assert a.fingerprint() == b.fingerprint()

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestValidation:
    def test_unknown_strategy_names_field(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(workload=WorkloadSpec("mixed"), strategy="warp-drive")
        assert excinfo.value.field == "strategy"
        assert "warp-drive" in str(excinfo.value)
        assert "s-resume" in str(excinfo.value)  # lists what is available

    def test_unknown_workload_kind_names_field(self):
        with pytest.raises(SpecValidationError) as excinfo:
            WorkloadSpec("petabyte-shuffle")
        assert excinfo.value.field == "workload.kind"

    def test_unknown_estimator_names_field(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(workload=WorkloadSpec("mixed"), strategy="clone", estimator="oracle")
        assert excinfo.value.field == "estimator"

    def test_bad_seed_names_field(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(workload=WorkloadSpec("mixed"), strategy="clone", seed=-1)
        assert excinfo.value.field == "seed"

    def test_bad_nested_section_names_section(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(
                workload=WorkloadSpec("mixed"),
                strategy="clone",
                strategy_params={"tau_est": 50.0, "tau_kill": 10.0},
            )
        assert excinfo.value.field == "strategy_params"

    def test_unknown_nested_key_names_dotted_field(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(
                workload=WorkloadSpec("mixed"),
                strategy="clone",
                cluster={"num_nodes": 4, "gpu_count": 8},
            )
        assert excinfo.value.field == "cluster.gpu_count"

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict(
                {"workload": {"kind": "mixed"}, "strategy": "clone", "sla": 0.99}
            )
        assert excinfo.value.field == "sla"

    def test_from_dict_requires_workload_and_strategy(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict({"strategy": "clone"})
        assert excinfo.value.field == "workload"
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict({"workload": {"kind": "mixed"}})
        assert excinfo.value.field == "strategy"

    def test_non_finite_workload_param_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            WorkloadSpec("benchmark", {"name": "sort", "inter_arrival": float("inf")})
        assert "workload.params.inter_arrival" in str(excinfo.value)


class TestOverrides:
    def test_dotted_paths(self, spec):
        derived = spec.with_overrides(
            {"strategy_params.theta": 1e-3, "workload.params.num_jobs": 99}
        )
        assert derived.strategy_params.theta == 1e-3
        assert derived.workload.params["num_jobs"] == 99
        # the base spec is untouched
        assert spec.strategy_params.theta == 1e-4

    def test_kwargs_use_double_underscore(self, spec):
        derived = spec.with_overrides(strategy_params__theta=5e-5, seed=9)
        assert derived.strategy_params.theta == 5e-5
        assert derived.seed == 9

    def test_bad_override_value_is_validated(self, spec):
        with pytest.raises(SpecValidationError):
            spec.with_overrides({"strategy_params.typo": 1.0})
