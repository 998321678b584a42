"""Named search objectives: what a trial's scenario result is worth.

An :class:`Objective` wraps a function from
:class:`~repro.api.facade.ScenarioResult` to a scalar plus a direction
(``"max"`` or ``"min"``).  The search driver works internally with the
*oriented score* (:meth:`Objective.score` — negated for minimization, so
"higher is better" holds everywhere), while ledgers, events and reports
keep the raw :meth:`Objective.value` a human expects to read.

Objectives live in their own string-keyed registry
(:func:`register_objective`, mirroring the strategy/estimator
registries), so an experiment can search on any scalar it can compute::

    from repro.api import register_objective

    @register_objective("p99_response", direction="min")
    def p99_response(result):
        return result.report.mean_response_time  # or a real percentile

Built-ins: ``utility`` (the paper's net-utility, maximized), ``pocd``
(maximized), ``cost``, ``response_time`` and ``machine_time`` (each
minimized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.api.facade import ScenarioResult
from repro.api.registry import Registry

#: Maps a scenario result to the raw objective scalar.
ObjectiveFn = Callable[[ScenarioResult], float]


@dataclass(frozen=True)
class Objective:
    """A named scalar objective with an optimization direction."""

    name: str
    fn: ObjectiveFn
    direction: str = "max"

    def __post_init__(self) -> None:
        """Reject directions other than ``"max"`` / ``"min"``."""
        if self.direction not in ("max", "min"):
            raise ValueError(
                f"objective direction must be 'max' or 'min', got {self.direction!r}"
            )

    def value(self, result: ScenarioResult) -> float:
        """The raw objective value (what humans read)."""
        return float(self.fn(result))

    def score(self, result: ScenarioResult) -> float:
        """The oriented value (higher is always better)."""
        value = self.value(result)
        return value if self.direction == "max" else -value

    def orient(self, value: float) -> float:
        """Orient an already-computed raw value."""
        return value if self.direction == "max" else -value


#: Objective name -> :class:`Objective`.
OBJECTIVES: Registry[Objective] = Registry("objective")


def register_objective(
    name: str, fn: Optional[ObjectiveFn] = None, *, direction: str = "max", **kwargs: Any
):
    """Register an objective function; decorator form when ``fn`` is omitted."""
    if fn is None:

        def decorator(obj: ObjectiveFn) -> ObjectiveFn:
            OBJECTIVES.register(name, Objective(name, obj, direction), **kwargs)
            return obj

        return decorator
    OBJECTIVES.register(name, Objective(name, fn, direction), **kwargs)
    return fn


def make_objective(objective: Any) -> Objective:
    """Resolve an objective: a registered name or an :class:`Objective`."""
    if isinstance(objective, Objective):
        return objective
    return OBJECTIVES.get(objective)


def available_objectives() -> tuple:
    """Names of every registered objective."""
    return OBJECTIVES.names()


def summary_metrics(result: ScenarioResult) -> Dict[str, float]:
    """The scalar metrics of one result, as stored in ledgers and events.

    A projection of :meth:`ScenarioResult.summary_row` (its identity
    columns dropped, the rest as floats), so algorithms that steer on a
    metric other than the scalar objective — ``frontier_bisect`` reads
    ``pocd`` and ``mean_cost`` — see the same numbers every other
    surface reports.
    """
    row = result.summary_row()
    return {
        key: float(row[key])
        for key in (
            "pocd", "mean_cost", "mean_machine_time", "mean_response_time", "utility", "num_jobs"
        )
    }


register_objective(
    "utility",
    lambda result: result.report.net_utility(
        r_min_pocd=result.spec.strategy_params.r_min_pocd,
        theta=result.spec.strategy_params.theta,
    ),
    direction="max",
)
register_objective("pocd", lambda result: result.report.pocd, direction="max")
register_objective("cost", lambda result: result.report.mean_cost, direction="min")
register_objective(
    "response_time", lambda result: result.report.mean_response_time, direction="min"
)
register_objective(
    "machine_time", lambda result: result.report.mean_machine_time, direction="min"
)


def _miss_rate(result) -> float:
    """Deadline-miss rate: the cluster aggregate when present, else 1-PoCD."""
    report = result.report
    value = getattr(report, "miss_rate", None)
    if value is None:
        value = 1.0 - float(report.pocd)
    return float(value)


def _sojourn(result) -> float:
    """Mean sojourn time: cluster aggregate when present, else response time."""
    report = result.report
    value = getattr(report, "mean_sojourn_s", None)
    if value is None:
        value = report.mean_response_time
    return float(value)


# Cluster-oriented objectives.  Both also work on single-job results, so
# mixed searches (scenario base vs cluster base) share one vocabulary.
register_objective("miss_rate", _miss_rate, direction="min")
register_objective("sojourn", _sojourn, direction="min")
