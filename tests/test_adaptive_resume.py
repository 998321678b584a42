"""Crash-resumability of adaptive searches (the ledger's reason to exist).

A child process runs a ``successive_halving`` search over six configs
(no seed axis, so every config runs once, as a grid would) against a
ledger file with ``batch=1`` and prints one line per executed scenario.  The parent
SIGKILLs it mid-search — no atexit handlers, no context-manager
unwinding, exactly like an OOM kill or a lost spot instance — then
re-runs the same search in-process and asserts the remainder executes
with **zero** re-executed fingerprints and lands on the same best trial
as an uninterrupted reference run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.adaptive import TrialLedger, run_search
from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict
from repro.simulator.entities import JobSpec

AXES = {"strategy_params.fixed_r": [0, 1, 2, 3, 4, 5]}


def _spec() -> ScenarioSpec:
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(3)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.adaptive import run_search
    from repro.api import ScenarioSpec

    spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))
    axes = json.loads(sys.argv[2])

    def report(event):
        if event.kind == "scenario-completed":
            print(event.fingerprint, flush=True)

    run_search(spec, axes, algorithm="successive_halving", objective="utility",
               batch=1, ledger=sys.argv[3], on_event=report)
    print("FINISHED", flush=True)
    """
)


def _run_child_and_kill_after(ledger: Path, trials: int) -> bool:
    """Start the search in a subprocess, SIGKILL it after ``trials`` lines.

    Returns ``False`` if the child outran the kill and finished the whole
    search (possible on a loaded machine: SIGKILL delivery races the last
    trials) — the caller retries with a fresh ledger until the kill lands
    mid-search.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    child = subprocess.Popen(
        [
            sys.executable, "-c", CHILD,
            json.dumps(_spec().to_dict()),
            json.dumps(AXES),
            str(ledger),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    seen = 0
    finished = False
    try:
        for line in child.stdout:
            line = line.strip()
            if line == "FINISHED":
                finished = True
                break
            if line:
                seen += 1
            if seen >= trials:
                child.kill()  # SIGKILL: no cleanup path runs in the child
                break
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    if finished:
        return False
    assert child.returncode == -signal.SIGKILL
    return True


def test_sigkill_mid_search_resumes_without_re_execution(tmp_path):
    killed_after = 3
    total = len(AXES["strategy_params.fixed_r"])

    # The kill must land mid-search to mean anything: the child commits a
    # trial *after* printing its scenario event, so on a loaded machine
    # SIGKILL delivery can lose the race with the remaining trials.  Retry
    # on a fresh ledger until the ledger shows an interrupted search.
    for attempt in range(5):
        ledger = tmp_path / f"trials-{attempt}.sqlite"
        if not _run_child_and_kill_after(ledger, trials=killed_after):
            continue
        with TrialLedger(ledger) as book:
            settled = {record.fingerprint for record in book.records("completed")}
        if killed_after - 1 <= len(settled) < total:
            break
    else:
        pytest.fail("could not land a mid-search SIGKILL in 5 attempts")

    # Resume in-process: only the remainder may execute.
    re_executed: list[str] = []

    def watch(event):
        if event.kind == "scenario-completed":
            re_executed.append(event.fingerprint)

    resumed = run_search(
        _spec(), AXES, algorithm="successive_halving", objective="utility",
        batch=1, ledger=ledger, on_event=watch,
    )

    assert not (set(re_executed) & settled), (
        f"resume re-executed settled fingerprints: {set(re_executed) & settled}"
    )
    assert resumed.executed == total - len(settled)
    assert len(resumed.completed) == total

    # And the interrupted-then-resumed search agrees with a clean one.
    reference = run_search(_spec(), AXES, algorithm="successive_halving", objective="utility")
    assert resumed.best.trial_id == reference.best.trial_id
    assert resumed.best.objective == pytest.approx(reference.best.objective)
