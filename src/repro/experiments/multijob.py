"""Multi-job cluster experiment: scheduler comparison + stability frontier.

Reproduces the two cluster-scale curves of the multi-job formulation:

* **Scheduler comparison** — at a fixed offered load, run the same open
  Poisson arrival stream under each admission policy and compare the
  deadline-miss rate, sojourn time, queue wait and slot utilization.
* **Miss-rate vs load** — sweep the offered load for one scheduler and
  watch the deadline-miss rate climb and the queue-stability probe trip
  as the system crosses its stability frontier (load ≈ 1).

Offered load is normalized the queueing-theory way: ``load = (mean job
slot-seconds) / (inter_arrival * total_slots)``, so ``load=1.0`` is the
saturation point of the shared slot pool.  All scenarios run through
:func:`repro.api.run_specs` as one sweep, so ``--executor``/``--broker``
reroute them like any other harness sweep, with fingerprint-keyed caching.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.api import run_specs
from repro.cluster import ArrivalSpec, ClusterSpec
from repro.experiments.common import ExperimentScale, ExperimentTable, require_complete
from repro.traces.workloads import BENCHMARKS, get_benchmark

#: Cluster shape of the multi-job experiment (small enough that
#: contention is real at every scale).
CLUSTER = {"num_nodes": 4, "slots_per_node": 4}

#: Admission policies compared by default.
DEFAULT_SCHEDULERS = ("fifo", "deadline_edf", "spec_budget")

#: Offered loads of the stability-frontier curve.
DEFAULT_LOADS = (0.5, 0.7, 0.9, 1.1)

#: Jobs per scenario at full scale.
FULL_NUM_JOBS = 80

#: JVM startup cost assumed by the load normalization (HadoopConfig default).
_JVM_STARTUP_MEAN = 3.0


def mean_job_slot_seconds(benchmark: str) -> float:
    """Expected slot-seconds one job occupies (Pareto mean + JVM start)."""
    if benchmark == "mixed":
        profiles = [BENCHMARKS[name] for name in sorted(BENCHMARKS)]
    else:
        profiles = [get_benchmark(benchmark)]
    totals = []
    for profile in profiles:
        mean_task = profile.tmin * profile.beta / (profile.beta - 1.0)
        totals.append(profile.num_tasks * (mean_task + _JVM_STARTUP_MEAN))
    return sum(totals) / len(totals)


def inter_arrival_for_load(load: float, benchmark: str, total_slots: int) -> float:
    """Mean inter-arrival time that offers ``load`` to ``total_slots``."""
    if load <= 0:
        raise ValueError("load must be positive")
    if total_slots < 1:
        raise ValueError("total_slots must be positive")
    return mean_job_slot_seconds(benchmark) / (load * total_slots)


def cluster_spec(
    *,
    arrival: str = "poisson",
    load: float = 0.8,
    scheduler: str = "fifo",
    benchmark: str = "sort",
    num_jobs: int = 20,
    strategy: str = "s-resume",
    seed: int = 0,
) -> ClusterSpec:
    """One multi-job scenario of the experiment grid."""
    total_slots = CLUSTER["num_nodes"] * CLUSTER["slots_per_node"]
    if arrival == "poisson":
        arrival_spec = ArrivalSpec(
            "poisson",
            {
                "benchmark": benchmark,
                "num_jobs": num_jobs,
                "inter_arrival": inter_arrival_for_load(load, benchmark, total_slots),
            },
        )
    elif arrival == "batch":
        arrival_spec = ArrivalSpec(
            "batch",
            {"workload": {"kind": "benchmark", "params": {"name": benchmark, "num_jobs": num_jobs}}},
        )
    elif arrival == "trace":
        arrival_spec = ArrivalSpec(
            "trace",
            {
                "workload": {
                    "kind": "benchmark",
                    "params": {
                        "name": benchmark,
                        "num_jobs": num_jobs,
                        "inter_arrival": inter_arrival_for_load(load, benchmark, total_slots),
                    },
                }
            },
        )
    else:
        raise ValueError(f"unknown arrival model {arrival!r} (batch, poisson, trace)")
    return ClusterSpec(
        arrival=arrival_spec,
        strategy=strategy,
        scheduler=scheduler,
        cluster=dict(CLUSTER),
        seed=seed,
    )


def run_multijob(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    *,
    arrival: str = "poisson",
    load: float = 0.8,
    schedulers: Optional[Sequence[str]] = None,
    loads: Optional[Iterable[float]] = None,
    benchmark: str = "sort",
    **options: Any,
) -> Dict[str, ExperimentTable]:
    """Run the multi-job cluster experiment.

    Returns two tables: ``schedulers`` (policy comparison at ``load``)
    and ``load_curve`` (miss rate vs offered load for the first
    scheduler, with the queue-stability probe).  All scenarios run as
    one sweep; ``options`` are its sweep options (see
    :func:`repro.api.run_specs`).
    """
    scheduler_names: List[str] = list(schedulers or DEFAULT_SCHEDULERS)
    load_points = [float(point) for point in (loads or DEFAULT_LOADS)]
    num_jobs = scale.scaled_jobs(FULL_NUM_JOBS, minimum=8)

    def spec_for(scheduler: str, point: float) -> ClusterSpec:
        return cluster_spec(
            arrival=arrival,
            load=point,
            scheduler=scheduler,
            benchmark=benchmark,
            num_jobs=num_jobs,
            seed=seed,
        )

    comparison_specs = [spec_for(name, load) for name in scheduler_names]
    curve_scheduler = scheduler_names[0]
    curve_specs = [spec_for(curve_scheduler, point) for point in load_points]

    # One sweep for everything: duplicates (the curve point at `load`
    # under the first scheduler) collapse onto one fingerprint.
    sweep = run_specs(comparison_specs + curve_specs, **options)
    require_complete(sweep)
    by_fingerprint = {result.fingerprint: result for result in sweep.results}

    schedulers_table = ExperimentTable(
        experiment_id="multijob-schedulers",
        title=f"Admission policies at load {load:.2f} ({arrival} arrivals, {benchmark})",
        columns=[
            "miss_rate",
            "mean_sojourn_s",
            "mean_queue_wait_s",
            "slot_utilization",
            "utility",
        ],
        notes=(
            f"{num_jobs} jobs per scenario on {CLUSTER['num_nodes']}x"
            f"{CLUSTER['slots_per_node']} slots; per-job strategy s-resume."
        ),
    )
    for name, spec in zip(scheduler_names, comparison_specs):
        report = by_fingerprint[spec.fingerprint()].report
        schedulers_table.add_row(
            name,
            {
                "miss_rate": report.miss_rate,
                "mean_sojourn_s": report.mean_sojourn_s,
                "mean_queue_wait_s": report.mean_queue_wait_s,
                "slot_utilization": report.slot_utilization,
                "utility": report.net_utility(
                    r_min_pocd=spec.strategy_params.r_min_pocd,
                    theta=spec.strategy_params.theta,
                ),
            },
        )

    curve_table = ExperimentTable(
        experiment_id="multijob-load-curve",
        title=f"Miss rate vs offered load ({curve_scheduler}, {arrival} arrivals)",
        columns=[
            "load",
            "miss_rate",
            "mean_sojourn_s",
            "queue_growth_rate",
            "queue_stable",
        ],
        notes="queue_stable=0 marks the stability frontier being crossed.",
    )
    for point, spec in zip(load_points, curve_specs):
        report = by_fingerprint[spec.fingerprint()].report
        curve_table.add_row(
            f"load={point:.2f}",
            {
                "load": point,
                "miss_rate": report.miss_rate,
                "mean_sojourn_s": report.mean_sojourn_s,
                "queue_growth_rate": report.queue_growth_rate,
                "queue_stable": float(report.queue_stable),
            },
        )

    return {"schedulers": schedulers_table, "load_curve": curve_table}
