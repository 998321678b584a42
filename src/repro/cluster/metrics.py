"""Cluster-level metrics: aggregate deadline/sojourn/stability measures.

A :class:`ClusterReport` embeds the per-job :class:`SimulationReport`
built by the same :class:`~repro.simulator.metrics.MetricsCollector` the
single-job façade uses — so a one-job batch cluster run reproduces the
single-job report byte for byte — and layers the multi-job aggregates on
top: deadline-miss rate, mean sojourn and queue-wait times, slot
utilization and a queue-stability probe for open arrivals (the
least-squares growth rate of the queue-length sample path; a positive
slope is the signature of an overloaded, unstable system in the sense of
Anselmi & Walton's speculative queueing networks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.api.facade import report_from_dict, report_to_dict
from repro.api.spec import SpecValidationError
from repro.simulator.metrics import SimulationReport

#: Queue growth (jobs/sec) below which the sample path counts as stable.
STABILITY_SLOPE_EPSILON = 1e-3


def queue_growth_rate(samples: Sequence[Tuple[float, int]]) -> float:
    """Least-squares slope of queue length over time (jobs/sec)."""
    if len(samples) < 2:
        return 0.0
    times = [t for t, _ in samples]
    lengths = [float(q) for _, q in samples]
    mean_t = sum(times) / len(times)
    mean_q = sum(lengths) / len(lengths)
    var_t = sum((t - mean_t) ** 2 for t in times)
    if var_t <= 0.0:
        return 0.0
    cov = sum((t - mean_t) * (q - mean_q) for t, q in zip(times, lengths))
    return cov / var_t


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate metrics of one multi-job cluster simulation.

    The embedded ``simulation`` report carries the per-job records and
    the paper's PoCD/cost/utility metrics; the cluster-level fields
    summarize queueing behaviour.  Scalar properties (``pocd``,
    ``mean_cost``...) delegate to the embedded report so cluster results
    plug into every consumer written for single-job reports (summary
    rows, stop conditions, adaptive objectives).
    """

    scheduler: str
    arrival: str
    simulation: SimulationReport
    miss_rate: float
    mean_sojourn_s: float
    mean_queue_wait_s: float
    slot_utilization: float
    queue_growth_rate: float
    queue_stable: bool
    peak_queue_length: int
    makespan_s: float
    job_states: Mapping[str, int] = field(default_factory=dict)

    # -- single-job-compatible scalar surface --------------------------
    @property
    def strategy(self):
        """Per-job speculation strategy (from the embedded report)."""
        return self.simulation.strategy

    @property
    def num_jobs(self) -> int:
        """Number of jobs recorded."""
        return self.simulation.num_jobs

    @property
    def pocd(self) -> float:
        """Fraction of jobs completed by their deadline."""
        return self.simulation.pocd

    @property
    def mean_cost(self) -> float:
        """Mean per-job cost."""
        return self.simulation.mean_cost

    @property
    def mean_machine_time(self) -> float:
        """Mean per-job machine time."""
        return self.simulation.mean_machine_time

    @property
    def mean_response_time(self) -> float:
        """Mean response (sojourn) time of finished jobs."""
        return self.simulation.mean_response_time

    @property
    def job_records(self):
        """Per-job records of the embedded report."""
        return self.simulation.job_records

    def net_utility(self, r_min_pocd: float = 0.0, theta: float = 1e-4) -> float:
        """The paper's net-utility objective over the per-job records."""
        return self.simulation.net_utility(r_min_pocd=r_min_pocd, theta=theta)


def cluster_report_to_dict(report: ClusterReport) -> Dict[str, Any]:
    """JSON-ready representation; inverse of :func:`cluster_report_from_dict`."""
    return {
        "scheduler": report.scheduler,
        "arrival": report.arrival,
        "simulation": report_to_dict(report.simulation),
        "miss_rate": report.miss_rate,
        "mean_sojourn_s": report.mean_sojourn_s,
        "mean_queue_wait_s": report.mean_queue_wait_s,
        "slot_utilization": report.slot_utilization,
        "queue_growth_rate": report.queue_growth_rate,
        "queue_stable": report.queue_stable,
        "peak_queue_length": report.peak_queue_length,
        "makespan_s": report.makespan_s,
        "job_states": dict(report.job_states),
    }


def cluster_report_from_dict(data: Mapping[str, Any]) -> ClusterReport:
    """Rebuild a :class:`ClusterReport` from :func:`cluster_report_to_dict`."""
    if not isinstance(data, Mapping):
        raise SpecValidationError("report", f"expected a mapping, got {type(data).__name__}")
    try:
        return ClusterReport(
            scheduler=data["scheduler"],
            arrival=data["arrival"],
            simulation=report_from_dict(data["simulation"]),
            miss_rate=data["miss_rate"],
            mean_sojourn_s=data["mean_sojourn_s"],
            mean_queue_wait_s=data["mean_queue_wait_s"],
            slot_utilization=data["slot_utilization"],
            queue_growth_rate=data["queue_growth_rate"],
            queue_stable=data["queue_stable"],
            peak_queue_length=data["peak_queue_length"],
            makespan_s=data["makespan_s"],
            job_states=dict(data.get("job_states", {})),
        )
    except KeyError as error:
        raise SpecValidationError("report", f"missing field {error.args[0]!r}") from error
    except TypeError as error:
        raise SpecValidationError("report", str(error)) from error


def build_cluster_report(
    *,
    scheduler: str,
    arrival: str,
    simulation: SimulationReport,
    jobs: Sequence,
    queue_samples: Sequence[Tuple[float, int]],
    total_slots: int,
    makespan_s: float,
) -> ClusterReport:
    """Assemble the cluster aggregates from finished lifecycle state."""
    sojourns: List[float] = []
    waits: List[float] = []
    states: Dict[str, int] = {}
    misses = 0
    for job in jobs:
        states[job.state.value] = states.get(job.state.value, 0) + 1
        if not job.finished or not job.met_deadline:
            misses += 1
        if job.finished and job.finish_time is not None:
            sojourns.append(job.finish_time - job.arrival_time)
        if job.admit_time is not None:
            waits.append(job.admit_time - job.arrival_time)
    total = len(jobs)
    slope = queue_growth_rate(queue_samples)
    busy_slot_seconds = simulation.total_machine_time
    if total_slots > 0 and makespan_s > 0:
        utilization = min(1.0, busy_slot_seconds / (total_slots * makespan_s))
    else:
        utilization = 0.0
    return ClusterReport(
        scheduler=scheduler,
        arrival=arrival,
        simulation=simulation,
        miss_rate=(misses / total) if total else 0.0,
        mean_sojourn_s=(sum(sojourns) / len(sojourns)) if sojourns else math.nan,
        mean_queue_wait_s=(sum(waits) / len(waits)) if waits else math.nan,
        slot_utilization=utilization,
        queue_growth_rate=slope,
        queue_stable=slope <= STABILITY_SLOPE_EPSILON,
        peak_queue_length=max((q for _, q in queue_samples), default=0),
        makespan_s=makespan_s,
        job_states=states,
    )
