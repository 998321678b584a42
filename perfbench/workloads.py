"""The benchmark's workloads: spec lists and executor settings per name.

Every workload is a closed-loop batch sweep: the sweep driver submits one spec
list and waits for all of it.  Spec seeds derive from the workload seed
(``--seed``), so the same seed gives the same inputs and another seed
gives another, equally sized draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

#: Worker processes of the pool and the distributed fleets (the 2-CPU box).
PROCESSES = 2


@dataclass(frozen=True)
class Workload:
    """One named workload."""

    name: str
    #: ``"inline"``, ``"pool"``, ``"distributed"`` (sqlite) or ``"http"``.
    executor: str
    #: ``specs(seed)`` -> the sweep's spec list.
    specs: Callable[[int], List[Any]]

    @property
    def inline_reference(self) -> bool:
        """Whether a fresh inline run gives the reference digest.

        Only the fan-outs have one: their scenarios are cheap, and the
        inline digest makes the sqlite and http runs agree per seed.  The
        others check their repetitions against each other.
        """
        return self.executor in ("distributed", "http")

    @property
    def processes(self) -> int:
        """Processes that execute scenarios (the pool-utilization divisor)."""
        return 1 if self.executor == "inline" else PROCESSES


def _spec_seeds(seed: int, count: int) -> List[int]:
    """``count`` scenario seeds drawn from a block owned by ``seed``."""
    return [seed * 10_000 + i for i in range(count)]


def _paper_trace_specs(seed: int) -> List[Any]:
    from repro.api import ScenarioSpec, Sweep, WorkloadSpec

    base = ScenarioSpec(
        workload=WorkloadSpec("google-trace", {"num_jobs": 100}),
        strategy="s-resume",
        strategy_params={"tau_est": 0.3, "tau_kill": 0.8, "timing_relative_to_tmin": True},
        cluster={"num_nodes": 0},
    )
    # One trace seed keeps a repetition near two seconds, so the best of
    # many short repetitions can dodge the host's slow windows.
    axes = {"strategy": ["clone", "s-restart", "s-resume"], "seed": _spec_seeds(seed, 1)}
    return list(Sweep.grid(base, axes).specs)


#: Scenarios in one fan-out sweep (both fan-out workloads share the list).
FANOUT_SCENARIOS = 512


def _fanout_specs(seed: int) -> List[Any]:
    from repro.api import ScenarioSpec, Sweep, WorkloadSpec, job_spec_to_dict
    from repro.simulator.entities import JobSpec

    # Two 2-task jobs keep each simulation well under a millisecond, so the
    # queue, store and codecs around it dominate the sweep.
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=2, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(2)
    ]
    base = ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(job) for job in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )
    axes = {"strategy": ["hadoop-ns", "s-resume"], "seed": _spec_seeds(seed, FANOUT_SCENARIOS // 2)}
    return list(Sweep.grid(base, axes).specs)


def _cluster_specs(seed: int) -> List[Any]:
    from repro.api import Sweep
    from repro.cluster import ArrivalSpec, ClusterSpec

    base = ClusterSpec(
        arrival=ArrivalSpec(
            "poisson", {"benchmark": "sort", "num_jobs": 200, "inter_arrival": 8.0}
        ),
        strategy="s-resume",
        scheduler="fifo",
        cluster={"num_nodes": 8, "slots_per_node": 4},
    )
    axes = {
        "scheduler": ["fifo", "deadline_edf", "spec_budget"],
        "strategy": ["clone", "s-resume"],
        "seed": _spec_seeds(seed, 4),
    }
    return list(Sweep.grid(base, axes).specs)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper-trace", "inline", _paper_trace_specs),
        Workload("fanout-sqlite", "distributed", _fanout_specs),
        Workload("fanout-http", "http", _fanout_specs),
        Workload("cluster-pool", "pool", _cluster_specs),
    )
}
