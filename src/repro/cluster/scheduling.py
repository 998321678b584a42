"""Cluster-level admission scheduling over shared container slots.

The per-job machinery (Application Master, Resource Manager) already
contends for container slots once jobs are running; what a
:class:`ClusterScheduler` decides is *which queued jobs to admit, and
when*.  Policies are registry-pluggable:

``fifo``
    Arrival order with head-of-line blocking: the oldest queued job is
    admitted as soon as it fits, nothing overtakes it.
``deadline_edf``
    Earliest absolute deadline first — the queued job whose deadline
    expires soonest is admitted first (greedy EDF admission).
``fair``
    Workload-class fairness: admit from the workload family with the
    fewest currently-running jobs (ties fall back to arrival order).
``spec_budget``
    FIFO admission plus a cluster-wide cap on concurrent speculative
    copies, in the spirit of Xu & Lau's multi-job budget formulation:
    per-job ``r`` is clamped so that the sum of extra attempts across
    running jobs never exceeds ``floor(budget_fraction * total_slots)``
    (or an explicit absolute ``budget``).

A policy sees an immutable snapshot of the queue plus the free-slot
count and returns the jobs to admit *in order*; the simulation performs
the state transitions so every policy shares one lifecycle.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.api.registry import Registry
from repro.strategies import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulation import ClusterJob


class ClusterScheduler:
    """Base admission policy: admit everything that fits, FIFO order."""

    #: Registry name (set by subclasses / factories).
    name = "fifo"

    def slots_needed(self, job: "ClusterJob") -> int:
        """Slots a job needs to start all of its original attempts."""
        return job.spec.num_tasks

    def order(self, queued: Sequence["ClusterJob"], now: float) -> List["ClusterJob"]:
        """Admission priority order for the queued jobs (FIFO default)."""
        return list(queued)

    def select(
        self,
        queued: Sequence["ClusterJob"],
        running: Sequence["ClusterJob"],
        free_slots: Optional[int],
        now: float,
    ) -> List["ClusterJob"]:
        """Jobs to admit now, in order.

        ``free_slots`` is ``None`` for an unbounded cluster.  The default
        is greedy head-of-line admission over :meth:`order`: walk the
        priority order and stop at the first job that does not fit, so
        a large stuck job is never starved by later small ones.
        """
        admitted: List["ClusterJob"] = []
        budget = free_slots
        for job in self.order(queued, now):
            if budget is not None:
                needed = self.slots_needed(job)
                if needed > budget:
                    break
                budget -= needed
            admitted.append(job)
        return admitted

    def wrap_strategy(self, strategy: SpeculationStrategy) -> SpeculationStrategy:
        """Hook for policies that constrain per-job speculation."""
        return strategy

    def on_job_finished(self, job: "ClusterJob") -> None:
        """Hook invoked when an admitted job leaves the cluster."""


class DeadlineEDFScheduler(ClusterScheduler):
    """Earliest (absolute) deadline first admission."""

    name = "deadline_edf"

    def order(self, queued: Sequence["ClusterJob"], now: float) -> List["ClusterJob"]:
        """Queued jobs sorted by absolute deadline, ties by arrival."""
        return sorted(queued, key=lambda job: (job.spec.absolute_deadline, job.arrival_order))


class FairShareScheduler(ClusterScheduler):
    """Admit from the workload class with the fewest running jobs."""

    name = "fair"

    def __init__(self) -> None:
        self._running_per_class: Dict[str, int] = {}

    def order(self, queued: Sequence["ClusterJob"], now: float) -> List["ClusterJob"]:
        """Queued jobs sorted by their class's running count, ties by arrival."""
        return sorted(
            queued,
            key=lambda job: (
                self._running_per_class.get(job.spec.workload, 0),
                job.arrival_order,
            ),
        )

    def select(self, queued, running, free_slots, now):
        """Admit greedily while keeping the per-class running counts fresh."""
        counts: Dict[str, int] = {}
        for job in running:
            counts[job.spec.workload] = counts.get(job.spec.workload, 0) + 1
        self._running_per_class = counts
        admitted = super().select(queued, running, free_slots, now)
        # Keep the snapshot fresh while we greedily admit, so a burst of
        # one class does not monopolize a large free pool.
        for job in admitted:
            counts[job.spec.workload] = counts.get(job.spec.workload, 0) + 1
        return admitted


class _BudgetedStrategy(SpeculationStrategy):
    """Proxy that clamps ``plan_job`` against a shared speculation budget."""

    def __init__(self, inner: SpeculationStrategy, ledger: "SpeculationBudgetScheduler"):
        self._inner = inner
        self._ledger = ledger
        self.params = inner.params
        self.name = inner.name

    def plan_job(self, am):  # noqa: D102 - interface passthrough
        requested = int(self._inner.plan_job(am))
        granted = self._ledger.acquire(am.job.spec.job_id, requested, am.job.spec.num_tasks)
        return granted

    def initial_attempt_count(self, am, task):  # noqa: D102
        return self._inner.initial_attempt_count(am, task)

    def on_job_start(self, am):  # noqa: D102
        self._inner.on_job_start(am)

    def on_task_complete(self, am, task, attempt):  # noqa: D102
        self._inner.on_task_complete(am, task, attempt)

    def __getattr__(self, attr):
        """Delegate everything else to the wrapped strategy."""
        return getattr(self._inner, attr)


class SpeculationBudgetScheduler(ClusterScheduler):
    """FIFO admission plus a cluster-wide speculative-copy budget.

    Parameters
    ----------
    budget_fraction:
        Fraction of the cluster's total slots reserved for extra
        (speculative/clone) attempts.  Ignored when ``budget`` is given.
    budget:
        Absolute number of concurrent extra attempts; required for an
        unbounded cluster (where a fraction of infinity is meaningless —
        the policy then leaves speculation uncapped unless set).
    """

    name = "spec_budget"

    def __init__(self, budget_fraction: float = 0.1, budget: Optional[int] = None):
        if budget_fraction < 0:
            raise ValueError("budget_fraction must be non-negative")
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self._budget_fraction = float(budget_fraction)
        self._budget = budget
        self._capacity: Optional[int] = budget
        self._allocated: Dict[str, int] = {}

    def bind_capacity(self, total_slots: int) -> None:
        """Resolve the fractional budget once the cluster size is known."""
        if self._budget is not None:
            self._capacity = self._budget
        elif total_slots > 0:
            self._capacity = int(math.floor(self._budget_fraction * total_slots))
        else:  # unbounded cluster, no absolute budget: leave uncapped
            self._capacity = None

    @property
    def in_use(self) -> int:
        """Extra attempts currently charged against the budget."""
        return sum(self._allocated.values())

    def acquire(self, job_id: str, requested: int, num_tasks: int) -> int:
        """Grant as much of a job's ``r`` as the budget allows.

        A job with ``r`` extra attempts launches up to ``r`` additional
        copies cluster-wide (the strategies spread them across tasks), so
        the charge is ``r`` per job, released when the job finishes.
        """
        requested = max(0, requested)
        if self._capacity is None:
            granted = requested
        else:
            remaining = max(0, self._capacity - self.in_use)
            granted = min(requested, remaining)
        if granted > 0:
            self._allocated[job_id] = self._allocated.get(job_id, 0) + granted
        return granted

    def wrap_strategy(self, strategy: SpeculationStrategy) -> SpeculationStrategy:
        """Clamp the strategy's ``plan_job`` against the shared budget."""
        return _BudgetedStrategy(strategy, self)

    def on_job_finished(self, job: "ClusterJob") -> None:
        """Return the job's charged extra attempts to the budget."""
        self._allocated.pop(job.spec.job_id, None)


SchedulerFactory = Callable[..., ClusterScheduler]

SCHEDULERS: Registry[SchedulerFactory] = Registry("cluster scheduler")
SCHEDULERS.register("fifo", ClusterScheduler)
SCHEDULERS.register("deadline_edf", DeadlineEDFScheduler)
SCHEDULERS.register("fair", FairShareScheduler)
SCHEDULERS.register("spec_budget", SpeculationBudgetScheduler)


def register_cluster_scheduler(
    name: str, factory: Optional[SchedulerFactory] = None, *, overwrite: bool = False
):
    """Register a scheduler factory (usable as a decorator)."""
    return SCHEDULERS.register(name, factory, overwrite=overwrite)


def available_cluster_schedulers() -> tuple:
    """Sorted names of registered cluster schedulers."""
    return SCHEDULERS.names()


def make_scheduler(name: str, params: Optional[dict] = None) -> ClusterScheduler:
    """Instantiate a scheduler from the registry."""
    factory = SCHEDULERS.get(name)
    try:
        return factory(**dict(params or {}))
    except TypeError as error:
        raise ValueError(f"invalid parameters for scheduler {name!r}: {error}") from error
