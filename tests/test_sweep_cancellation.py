"""Tests of cooperative cancellation and partial sweep results.

Covers the cancellation acceptance criteria: tripping a
:class:`CancelToken` (or SIGINT-ing the driver process) mid-sweep on the
pool and distributed executors returns the already-completed scenarios
byte-identical to an uninterrupted run's corresponding subset, releases
pending queue tasks and leases (no orphans), and a follow-up run
finishes from the result store with zero re-executions of paid-for work.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import (
    CancelToken,
    ScenarioCompleted,
    ScenarioSpec,
    Sweep,
    WorkloadSpec,
    clear_template_cache,
    job_spec_to_dict,
    run_specs,
)
from repro.api.registry import WORKLOADS, register_workload
from repro.distributed import Broker
from repro.experiments.common import require_complete
from repro.simulator.entities import JobSpec

SLOW_WORKLOAD = "test-cancel-slow"

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-side test workload plugins rely on fork inheritance",
)


def _job_dicts(count: int = 3):
    return [
        job_spec_to_dict(
            JobSpec(
                job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                submit_time=2.0 * i,
            )
        )
        for i in range(count)
    ]


#: Seconds the slow workload builder sleeps per scenario.
SLOW_DELAY_S = 0.25


def _slow_builder(seed, jobs, delay_s=SLOW_DELAY_S):
    time.sleep(delay_s)
    from repro.api.spec import job_spec_from_dict

    return [job_spec_from_dict(job) for job in jobs]


@pytest.fixture
def slow_workload():
    register_workload(SLOW_WORKLOAD, _slow_builder)
    try:
        yield SLOW_WORKLOAD
    finally:
        WORKLOADS.unregister(SLOW_WORKLOAD)


def eight_slow_scenarios(delay_s: float = SLOW_DELAY_S) -> Sweep:
    base = ScenarioSpec(
        workload=WorkloadSpec(SLOW_WORKLOAD, {"jobs": _job_dicts(), "delay_s": delay_s}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )
    # 8 scenarios >> 2 workers: on cancellation some futures/tasks are
    # guaranteed to still be queued (and therefore released), so the
    # partial-result assertions are deterministic, not racy.
    sweep = Sweep.grid(base, {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1, 2, 3]})
    assert len(sweep) == 8
    return sweep


def _stripped(result) -> dict:
    """A result's payload minus the timing field that legitimately varies."""
    payload = result.to_dict()
    payload.pop("wall_time_s")
    return payload


def _cancel_after(token: CancelToken, completions: int):
    """An ``on_event`` that cancels after ``completions`` completions.

    Also returns the list of completion events it saw.
    """
    seen = []

    def on_event(event):
        if isinstance(event, ScenarioCompleted):
            seen.append(event)
            if len(seen) >= completions:
                token.cancel()

    return on_event, seen


def _assert_delay_paid(completed) -> None:
    """Every completion came after the workload builder's sleep.

    The builder is memoized per seed in the ``RunnerTemplate`` cache, so
    workers forked after an inline run would inherit built jobs and
    never sleep; callers clear that cache before the cancelled run.
    """
    assert completed
    assert all(event.elapsed_s >= SLOW_DELAY_S for event in completed)


class TestCancelToken:
    def test_token_is_reusable_and_idempotent(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel()
        token.cancel()
        assert token.cancelled()

    @fork_only
    def test_pool_cancellation_returns_matching_partial(self, slow_workload):
        sweep = eight_slow_scenarios()
        reference = {
            result.fingerprint: _stripped(result)
            for result in require_complete(sweep.run(executor="inline"))
        }
        clear_template_cache()
        token = CancelToken()
        on_event, completed = _cancel_after(token, 1)
        partial = sweep.run(executor="pool", workers=2, cancel=token, on_event=on_event)
        _assert_delay_paid(completed)
        assert partial.cancelled and partial.partial
        assert 1 <= len(partial.results) < len(sweep)
        assert len(partial.results) + len(partial.pending) == len(sweep)
        for result in partial.results:
            assert _stripped(result) == reference[result.fingerprint]
        # pending specs are exactly the ones without a result
        done = {result.fingerprint for result in partial.results}
        assert {spec.fingerprint() for spec in partial.pending} == set(reference) - done

    @fork_only
    def test_distributed_cancellation_leaves_queue_consistent(self, slow_workload, tmp_path):
        """Acceptance: cancel mid-flight, re-run completes the remainder."""
        sweep = eight_slow_scenarios()
        reference = {
            result.fingerprint: _stripped(result)
            for result in require_complete(sweep.run(executor="inline"))
        }
        db = tmp_path / "queue.sqlite"
        clear_template_cache()
        token = CancelToken()
        on_event, completed = _cancel_after(token, 1)
        partial = sweep.run(
            executor="distributed",
            workers=2,
            db=db,
            lease_timeout=10.0,
            cancel=token,
            on_event=on_event,
        )
        _assert_delay_paid(completed)
        assert partial.cancelled and len(partial.results) >= 1
        for result in partial.results:
            assert _stripped(result) == reference[result.fingerprint]

        with Broker(db) as broker:
            counts = broker.counts()
            # no orphans: leases drained, unclaimed tasks released
            assert counts["leased"] == 0
            assert counts["pending"] == 0
            stored = counts["done"]
            kinds = {event["kind"] for event in broker.events_since(0, limit=10_000)}
        assert stored >= len(partial.results)

        follow_up = sweep.run(executor="distributed", workers=2, db=db, lease_timeout=10.0)
        assert not follow_up.partial and len(follow_up.results) == len(sweep)
        # everything the first run paid for is served from the store
        assert follow_up.cache_hits >= len(partial.results)
        assert follow_up.executed + follow_up.cache_hits == len(sweep)
        for result in follow_up.results:
            assert _stripped(result) == reference[result.fingerprint]
        assert "queued" in kinds and "started" in kinds

    def test_pre_cancelled_token_runs_nothing(self, slow_workload):
        sweep = eight_slow_scenarios(delay_s=0.01)
        token = CancelToken()
        token.cancel()
        outcome = sweep.run(cancel=token)
        assert outcome.cancelled
        assert outcome.executed == 0 and len(outcome.pending) == len(sweep)


class TestReleasePending:
    def test_only_pending_tasks_are_released(self, tmp_path):
        db = tmp_path / "q.sqlite"
        payloads = [{"i": i} for i in range(3)]
        fingerprints = [f"fp{i}" for i in range(3)]
        with Broker(db) as broker:
            broker.enqueue(payloads, fingerprints)
            claimed = broker.claim("w-1")
            assert claimed is not None
            released = broker.release_pending(fingerprints)
            assert released == 2  # the claimed task keeps its lease
            counts = broker.counts()
            assert counts == {"pending": 0, "leased": 1, "done": 0, "failed": 0}
            events = broker.events_since(0, limit=100)
            assert [e["kind"] for e in events].count("released") == 2
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


class TestRequireComplete:
    def test_partial_suite_results_propagate_interruption(self, slow_workload):
        sweep = eight_slow_scenarios(delay_s=0.01)
        token = CancelToken()
        token.cancel()
        partial = sweep.run(cancel=token)
        with pytest.raises(KeyboardInterrupt):
            require_complete(partial)
        complete = sweep.run()
        assert require_complete(complete) is complete


SIGINT_CHILD = r"""
import json, sys, time

from repro.api import ScenarioCompleted, ScenarioSpec, register_workload, run_specs
from repro.api.spec import job_spec_from_dict


@register_workload("test-cancel-slow")
def _slow(seed, jobs, delay_s=0.25):
    time.sleep(delay_s)
    return [job_spec_from_dict(job) for job in jobs]


specs = [ScenarioSpec.from_dict(item) for item in json.loads(sys.argv[1])]
kwargs = json.loads(sys.argv[2])


def on_event(event):
    if isinstance(event, ScenarioCompleted):
        print("DONE " + event.fingerprint, flush=True)


result = run_specs(specs, on_event=on_event, **kwargs)
print(
    "FINAL "
    + json.dumps(
        {
            "cancelled": result.cancelled,
            "pending": len(result.pending),
            "results": [r.to_dict() for r in result.results],
        }
    ),
    flush=True,
)
"""


def _drive_sigint_child(specs, kwargs, timeout=90.0):
    """Start a sweep subprocess, SIGINT it after the first completion."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            SIGINT_CHILD,
            json.dumps([spec.to_dict() for spec in specs]),
            json.dumps(kwargs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + timeout
    interrupted = False
    final = None
    lines = []
    try:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([child.stdout], [], [], 0.2)
            if not ready:
                if child.poll() is not None:
                    break
                continue
            line = child.stdout.readline()
            if not line:
                break
            lines.append(line.rstrip("\n"))
            if line.startswith("DONE ") and not interrupted:
                child.send_signal(signal.SIGINT)
                interrupted = True
            elif line.startswith("FINAL "):
                final = json.loads(line[len("FINAL "):])
                break
        child.wait(timeout=30.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10.0)
    stderr = child.stderr.read()
    assert interrupted, f"no completion observed before timeout; out={lines} err={stderr}"
    assert final is not None, f"child produced no FINAL line; out={lines} err={stderr}"
    # run_specs swallowed the KeyboardInterrupt into a partial result, so
    # the child script itself exits cleanly after printing it.
    assert child.returncode == 0, (child.returncode, stderr)
    return final


@fork_only
class TestSigintMidSweep:
    """Acceptance: SIGINT mid-sweep behaves like token cancellation."""

    def test_pool_sigint_returns_completed_subset(self, slow_workload):
        sweep = eight_slow_scenarios()
        reference = {
            result.fingerprint: _stripped(result)
            for result in require_complete(sweep.run(executor="inline"))
        }
        final = _drive_sigint_child(sweep.specs, {"executor": "pool", "workers": 2})
        assert final["cancelled"] is True
        assert 1 <= len(final["results"]) <= len(sweep)
        assert len(final["results"]) + final["pending"] == len(sweep)
        for payload in final["results"]:
            fingerprint = payload["fingerprint"]
            payload.pop("wall_time_s")
            assert payload == reference[fingerprint]

    def test_distributed_sigint_releases_queue_and_resumes(self, slow_workload, tmp_path):
        sweep = eight_slow_scenarios()
        reference = {
            result.fingerprint: _stripped(result)
            for result in require_complete(sweep.run(executor="inline"))
        }
        db = tmp_path / "queue.sqlite"
        final = _drive_sigint_child(
            sweep.specs,
            {
                "executor": "distributed",
                "workers": 2,
                "db": str(db),
                "lease_timeout": 10.0,
            },
        )
        assert final["cancelled"] is True
        for payload in final["results"]:
            fingerprint = payload["fingerprint"]
            payload.pop("wall_time_s")
            assert payload == reference[fingerprint]

        with Broker(db) as broker:
            counts = broker.counts()
            assert counts["leased"] == 0, "orphaned leases after SIGINT"
            assert counts["pending"] == 0, "unclaimed tasks left queued after SIGINT"
            stored_before_resume = counts["done"]

        # the follow-up run executes only what the store does not hold
        follow_up = run_specs(
            list(sweep.specs), executor="distributed", workers=2, db=db, lease_timeout=10.0
        )
        assert not follow_up.partial and len(follow_up.results) == len(sweep)
        assert follow_up.cache_hits == stored_before_resume
        assert follow_up.executed == len(sweep) - stored_before_resume
        for result in follow_up.results:
            assert _stripped(result) == reference[result.fingerprint]
