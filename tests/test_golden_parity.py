"""Golden-fingerprint parity suite for the simulator hot path.

The optimized simulator (slotted entities, block RNG sampling, live
attempt counts, runner templates, the integer ascent) must be
*byte-identical* to the original straightforward implementation — not
"statistically close".  These tests pin that contract: the SHA-256 of
every representative scenario's serialized result (minus wall time) is
committed in ``tests/data/golden_parity.json``, captured from the
pre-optimization code, and any future fast path must keep reproducing
the exact bytes on every executor.

If one of these tests fails after an intentional simulation-semantics
change (new event ordering, new RNG consumption pattern), regenerate the
golden file by re-running the specs below and updating the hashes — and
say so loudly in the commit, because every cached sweep result in the
wild is invalidated with it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import (
    RunnerTemplate,
    ScenarioSpec,
    clear_template_cache,
    execute,
    register_workload,
    run,
    run_specs,
    spec_from_dict,
)
from repro.api.registry import WORKLOADS, registry_epoch
from repro.distributions import sample_stream
from repro.hadoop import app_master, node_manager

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def payload_sha256(result) -> str:
    """Canonical hash of a result payload, excluding nondeterministic wall time."""
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_items():
    return sorted(GOLDEN.items())


@pytest.mark.parametrize(
    "fingerprint,entry", golden_items(), ids=[fp for fp, _ in golden_items()]
)
def test_inline_execution_matches_golden_payload(fingerprint, entry):
    """Every representative spec reproduces its committed payload hash."""
    spec = spec_from_dict(entry["spec"])
    result = execute(spec)
    assert result.fingerprint == fingerprint
    assert payload_sha256(result) == entry["payload_sha256"]


def test_golden_file_covers_the_contract():
    """The golden set stays representative: 9 specs, one of them a cluster
    and one on an unbounded (``num_nodes: 0``) cluster."""
    kinds = [entry["spec"].get("kind", "scenario") for entry in GOLDEN.values()]
    assert len(GOLDEN) == 9
    assert kinds.count("cluster") == 1
    unbounded = [e for e in GOLDEN.values() if e["spec"]["cluster"]["num_nodes"] == 0]
    assert len(unbounded) == 1
    strategies = {entry["spec"]["strategy"] for entry in GOLDEN.values()}
    assert {"clone", "s-restart", "s-resume", "hadoop-s", "mantri"} <= strategies


def test_pool_executor_matches_golden_payloads():
    """Worker processes reproduce the same bytes as inline execution."""
    scenario_entries = [
        (fp, entry)
        for fp, entry in golden_items()
        if entry["spec"].get("kind") != "cluster"
    ]
    specs = [spec_from_dict(entry["spec"]) for _, entry in scenario_entries]
    outcome = run_specs(specs, executor="pool", jobs=2)
    assert outcome.executed == len(specs)
    for (fingerprint, entry), result in zip(scenario_entries, outcome.results):
        assert result.fingerprint == fingerprint
        assert payload_sha256(result) == entry["payload_sha256"]


@pytest.mark.parametrize(
    "fingerprint,entry", golden_items(), ids=[fp for fp, _ in golden_items()]
)
def test_scalar_sampling_fallback_matches_golden_payload(monkeypatch, fingerprint, entry):
    """Scalar draws (blocks of 1) are byte-identical to block draws, on
    every golden spec: the cluster and the unbounded one included."""

    streams = []

    def scalar_stream(draw, batch):
        streams.append(batch)
        return sample_stream(draw, 1)

    monkeypatch.setattr(node_manager, "sample_stream", scalar_stream)
    monkeypatch.setattr(app_master, "sample_stream", scalar_stream)
    result = execute(spec_from_dict(entry["spec"]))
    assert streams  # the run drew through the scalar streams
    assert result.fingerprint == fingerprint
    assert payload_sha256(result) == entry["payload_sha256"]


def test_runner_template_replicas_match_direct_runs():
    """Template-amortized replica runs equal fresh per-spec runs, byte for byte."""
    base = next(
        spec_from_dict(entry["spec"])
        for _, entry in golden_items()
        if entry["spec"].get("kind") != "cluster"
    )
    template = RunnerTemplate.for_spec(base)
    for seed in (11, 12, 13):
        via_template = template.run(seed)
        direct = run(base.with_overrides(seed=seed))
        assert via_template.fingerprint == direct.fingerprint
        assert payload_sha256(via_template) == payload_sha256(direct)


def test_template_cache_invalidated_by_registry_mutation():
    """Re-registering a plugin must not serve results from a stale template."""
    clear_template_cache()

    def tiny(num_tasks: int = 2, *, seed: int = 0):
        from repro.simulator.entities import JobSpec

        return [
            JobSpec(
                job_id="tiny-0",
                num_tasks=num_tasks,
                tmin=10.0,
                beta=1.5,
                deadline=100.0,
            )
        ]

    register_workload("tiny-parity", tiny)
    try:
        spec = ScenarioSpec(
            workload={"kind": "tiny-parity", "params": {}}, strategy="clone"
        )
        first = run(spec)
        assert first.report.num_jobs == 1

        def bigger(num_tasks: int = 2, *, seed: int = 0):
            import dataclasses

            jobs = tiny(num_tasks, seed=seed)
            return jobs + [dataclasses.replace(jobs[0], job_id="tiny-1")]

        epoch_before = registry_epoch()
        register_workload("tiny-parity", bigger, overwrite=True)
        assert registry_epoch() > epoch_before
        second = run(spec)
        assert second.report.num_jobs == 2
    finally:
        WORKLOADS.unregister("tiny-parity")
        clear_template_cache()


def test_strategies_of_one_workload_and_seed_build_it_once():
    """The per-seed workload memo is shared by the templates of one workload."""
    clear_template_cache()
    builds = []

    def counted(*, seed: int = 0):
        from repro.simulator.entities import JobSpec

        builds.append(seed)
        return [JobSpec(job_id="c-0", num_tasks=2, tmin=10.0, beta=1.5, deadline=100.0)]

    register_workload("counted-parity", counted)
    try:
        base = ScenarioSpec(workload={"kind": "counted-parity", "params": {}}, strategy="clone")
        for strategy in ("clone", "s-restart", "s-resume"):
            run(base.with_overrides(strategy=strategy))
        assert builds == [0]
        run(base.with_overrides(seed=4))
        assert builds == [0, 4]
        register_workload("counted-parity", counted, overwrite=True)
        run(base)
        assert builds == [0, 4, 0]  # the new epoch does not reuse the old list
    finally:
        WORKLOADS.unregister("counted-parity")
        clear_template_cache()


#: ``chronos_speculative_copies_{launched,killed}_total`` increments of one
#: run of each single-job-stream golden spec, as counted (before 6.1) by a
#: walk over every attempt after the run.
SPECULATIVE_COPIES = {
    "16373212622a4cc3": (18, 12),
    "298f5d0d48cc6b0f": (80, 38),
    "506406cbef728a6e": (96, 64),
    "847776bc765eb1fd": (108, 88),
    "89dc8b734e286e80": (18, 12),
    "8b74246daa7ab9e7": (43, 25),
    "90e3e401b95da61a": (100, 80),
    "d739e3b1d7471981": (36, 27),
}


@pytest.mark.parametrize("fingerprint", sorted(SPECULATIVE_COPIES))
def test_speculative_copy_counters_match_the_attempt_walk(fingerprint):
    from repro import telemetry

    launched = telemetry.counter("chronos_speculative_copies_launched_total")
    killed = telemetry.counter("chronos_speculative_copies_killed_total")
    before = (launched.value, killed.value)
    execute(spec_from_dict(GOLDEN[fingerprint]["spec"]))
    after = (launched.value, killed.value)
    assert (after[0] - before[0], after[1] - before[1]) == SPECULATIVE_COPIES[fingerprint]
