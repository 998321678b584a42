"""Tests of the spec and result codecs' fast paths.

The codecs take shortcuts — a path-free normalization pass, shallow
field copies instead of ``dataclasses.asdict``, a fingerprint memoized
on the frozen spec — and these tests pin each shortcut to the slow
reference it replaces, so the stored bytes and the fingerprints cannot
drift.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, SpecValidationError, WorkloadSpec, canonical_json, run
from repro.api.facade import RunnerTemplate, report_to_dict
from repro.api.spec import _normalize_checked, _normalize_json, _scalar_asdict
from repro.cluster import ArrivalSpec, ClusterSpec
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.strategies import StrategyParameters


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# ----------------------------------------------------------------------
# Fast normalization == path-building normalization
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.sampled_from(list(Level)),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.just(object()),  # unsupported: both passes must reject it
)
_keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(), st.just(Level.LOW))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4).map(types.MappingProxyType),
    )


_trees = st.recursive(_scalars, _containers, max_leaves=20)


def _outcome(normalize, tree):
    try:
        return "ok", repr(normalize(tree))  # repr tells 0.0 from -0.0 and 1 from Level.LOW
    except SpecValidationError as error:
        return "error", str(error)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_trees)
def test_fast_normalization_matches_the_checked_pass(tree):
    fast = _outcome(lambda obj: _normalize_json(obj, "spec"), tree)
    checked = _outcome(lambda obj: _normalize_checked(obj, "spec"), tree)
    assert fast == checked


@pytest.mark.parametrize(
    "value, message",
    [
        ({"a": [1.0, {"b": float("nan")}]}, "spec.a[1].b: non-finite float nan"),
        ({"a": (float("-inf"),)}, "spec.a[0]: non-finite float -inf"),
        ({"a": {3: object()}}, "spec.a.3: unsupported type object"),
    ],
)
def test_rejections_keep_their_field_path(value, message):
    with pytest.raises(SpecValidationError, match=message.replace("[", r"\[")):
        _normalize_json(value, "spec")


def test_subclasses_take_the_checked_pass():
    value = {"level": Level.HIGH, "x": np.float64(-0.0), "m": types.MappingProxyType({1: 2})}
    assert repr(_normalize_json(value, "spec")) == repr(_normalize_checked(value, "spec"))


# ----------------------------------------------------------------------
# Flat field copies == dataclasses.asdict
# ----------------------------------------------------------------------
def _report():
    spec = ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 3}),
        strategy="s-resume",
        cluster={"num_nodes": 0},
        seed=2,
    )
    return run(spec).report


@pytest.mark.parametrize(
    "value",
    [
        StrategyParameters(tau_est=12.0, tau_kill=30.0, fixed_r=2, phi_est=0.3),
        ClusterConfig(num_nodes=4, slots_per_node=2),
        HadoopConfig(jvm_startup_mean=2.0),
        JobSpec(job_id="j", num_tasks=3, deadline=50.0, tmin=10.0, beta=1.5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_scalar_asdict_equals_asdict(value):
    flat = _scalar_asdict(value)
    assert list(flat.items()) == list(dataclasses.asdict(value).items())


def test_job_records_flatten_like_asdict():
    report = _report()
    assert report.job_records
    for record in report.job_records:
        assert list(_scalar_asdict(record).items()) == list(dataclasses.asdict(record).items())


def test_report_to_dict_bytes_match_the_asdict_codec():
    report = _report()
    reference = dataclasses.asdict(report)
    reference["strategy"] = report.strategy.value
    reference["r_histogram"] = {str(r): count for r, count in report.r_histogram.items()}
    reference["job_records"] = [dataclasses.asdict(record) for record in report.job_records]
    assert json.dumps(report_to_dict(report)) == json.dumps(reference)


def _cluster_spec(**changes):
    base = ClusterSpec(
        arrival=ArrivalSpec("poisson", {"benchmark": "sort", "num_jobs": 4}),
        strategy="s-resume",
        scheduler="fifo",
        cluster={"num_nodes": 2, "slots_per_node": 2},
        seed=5,
    )
    return dataclasses.replace(base, **changes)


def _scenario_spec(**changes):
    base = ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 4, "nested": {"x": 1}}),
        strategy="clone",
        strategy_params={"tau_est": 20.0, "tau_kill": 40.0},
        hadoop={"speculation_interval": 2.5},
        seed=3,
    )
    return dataclasses.replace(base, **changes)


@pytest.mark.parametrize("make", [_scenario_spec, _cluster_spec], ids=["scenario", "cluster"])
def test_spec_to_dict_bytes_match_the_asdict_codec(make):
    spec = make()
    reference = spec.to_dict()
    for section in ("strategy_params", "cluster", "hadoop"):
        reference[section] = dataclasses.asdict(getattr(spec, section))
    assert json.dumps(spec.to_dict()) == json.dumps(reference)


# ----------------------------------------------------------------------
# The memoized fingerprint
# ----------------------------------------------------------------------
def _reference_fingerprint(spec):
    return hashlib.sha256(canonical_json(spec.to_dict()).encode("utf-8")).hexdigest()[:16]


def _hash_outcome(spec):
    try:
        return hash(spec)
    except TypeError as error:  # dict-valued params make both spec types unhashable
        return str(error)


@pytest.mark.parametrize("make", [_scenario_spec, _cluster_spec], ids=["scenario", "cluster"])
class TestFingerprintMemo:
    def test_memo_is_the_reference_hash(self, make):
        spec = make()
        assert spec.fingerprint() == _reference_fingerprint(spec)
        assert spec.fingerprint() == _reference_fingerprint(spec)  # memo hit

    def test_identity_surface_unchanged(self, make):
        spec, twin = make(), make()
        before = (repr(spec), _hash_outcome(spec), pickle.dumps(spec))
        spec.fingerprint()
        assert spec == twin and twin == spec
        assert (repr(spec), _hash_outcome(spec), pickle.dumps(spec)) == before

    def test_pickle_round_trip(self, make):
        spec = make()
        fingerprint = spec.fingerprint()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint() == fingerprint

    def test_derived_specs_get_their_own_fingerprint(self, make):
        spec = make()
        fingerprint = spec.fingerprint()
        replaced = dataclasses.replace(spec, seed=spec.seed + 1)
        overridden = spec.with_overrides(seed=spec.seed + 1)
        assert replaced.fingerprint() == overridden.fingerprint() == _reference_fingerprint(replaced)
        assert replaced.fingerprint() != fingerprint
        assert dataclasses.replace(spec).fingerprint() == fingerprint
        assert spec.fingerprint() == fingerprint


def test_for_spec_primes_the_fingerprint():
    spec = _scenario_spec(workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 2}))
    RunnerTemplate.for_spec(spec)
    assert "_fingerprint" in vars(spec)
    assert spec.fingerprint() == _reference_fingerprint(spec)
    assert run(spec).fingerprint == _reference_fingerprint(spec)


def test_with_overrides_leaves_the_base_params_alone():
    spec = _scenario_spec()
    fingerprint = spec.fingerprint()
    derived = spec.with_overrides({"workload.params.nested.x": 2})
    assert derived.workload.params["nested"] == {"x": 2}
    assert spec.workload.params["nested"] == {"x": 1}
    assert spec.fingerprint() == fingerprint == _reference_fingerprint(spec)


# ----------------------------------------------------------------------
# Canonical config values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [_scenario_spec, _cluster_spec], ids=["scenario", "cluster"])
@pytest.mark.parametrize(
    "section, field_name",
    [("strategy_params", "tau_est"), ("strategy_params", "phi_est"), ("hadoop", "mantri_threshold")],
)
def test_int_and_float_config_values_share_a_fingerprint(make, section, field_name):
    as_int = make(**{section: {field_name: 10}})
    as_float = make(**{section: {field_name: 10.0}})
    assert as_int == as_float
    assert type(getattr(getattr(as_int, section), field_name)) is float
    assert as_int.fingerprint() == as_float.fingerprint()


def test_int_config_values_in_instances_are_coerced():
    spec = _scenario_spec(strategy_params=StrategyParameters(tau_est=40, tau_kill=80))
    assert spec.to_dict()["strategy_params"]["tau_est"] == 40.0
    assert type(spec.strategy_params.tau_kill) is float
    assert spec.fingerprint() == _scenario_spec(strategy_params={}).fingerprint()


def test_int_fields_stay_ints():
    spec = _scenario_spec(cluster={"num_nodes": 3}, strategy_params={"fixed_r": 2})
    assert type(spec.cluster.num_nodes) is int
    assert type(spec.strategy_params.fixed_r) is int


@pytest.mark.parametrize("make", [_scenario_spec, _cluster_spec], ids=["scenario", "cluster"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_config_values_fail_at_construction(make, bad):
    with pytest.raises(SpecValidationError) as excinfo:
        make(strategy_params={"theta": bad})
    assert excinfo.value.field == "strategy_params.theta"
    assert "non-finite float" in str(excinfo.value)
    with pytest.raises(SpecValidationError) as excinfo:
        make(strategy_params=StrategyParameters(theta=bad))
    assert excinfo.value.field == "strategy_params.theta"
