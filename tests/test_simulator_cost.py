"""Cost guard for the simulator's per-attempt path.

Counts the Python-level function calls a simulation makes per task
attempt, with ``sys.setprofile``, on one small contended cluster and one
unbounded cluster.  The counts are deterministic for a given spec and
seed, so each bound sits 10% above the count of the current code
(21.55 and 24.11 calls per attempt on CPython 3.11).  A change that puts
objects, wrappers or scans back on the per-attempt path trips it.  The
5.1 simulator made 52.6 and 62.7 calls per attempt on the same specs,
the 5.2 simulator 38.7 and 47.9, and the 8.0 simulator 29.55 and 32.37.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import ScenarioSpec, WorkloadSpec, execute
from repro.cluster import ArrivalSpec, ClusterSpec, run_cluster


def _contended():
    return run_cluster(
        ClusterSpec(
            arrival=ArrivalSpec(
                "poisson", {"benchmark": "sort", "num_jobs": 20, "inter_arrival": 8.0}
            ),
            strategy="s-resume",
            scheduler="fifo",
            cluster={"num_nodes": 4, "slots_per_node": 4},
            seed=3,
        )
    )


def _unbounded():
    return execute(
        ScenarioSpec(
            workload=WorkloadSpec("google-trace", {"num_jobs": 20}),
            strategy="s-resume",
            strategy_params={"tau_est": 0.3, "tau_kill": 0.8, "timing_relative_to_tmin": True},
            cluster={"num_nodes": 0},
            seed=5,
        )
    )


def calls_per_attempt(run) -> float:
    """Python function calls per attempt of a warm ``run()``."""
    run()  # warm the process-wide caches (Algorithm 1, runner templates)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    attempts = sum(record.num_attempts for record in result.report.job_records)
    assert attempts > 400  # both specs run a few hundred attempts
    return calls / attempts


@pytest.mark.parametrize(
    "run,bound",
    [(_contended, 23.7), (_unbounded, 26.5)],
    ids=["contended", "unbounded"],
)
def test_calls_per_attempt_stay_bounded(run, bound):
    assert calls_per_attempt(run) <= bound
