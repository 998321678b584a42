"""Net utility objective and concavity thresholds (Section V, Theorem 8).

The joint PoCD/cost optimization maximises::

    U(r) = f(R(r) - Rmin) - theta * C * E(T),      r >= 0, r integer

with ``f`` an increasing concave utility.  Following the paper we use the
logarithmic utility ``f(x) = lg(x)`` (base-10 logarithm), which drops to
``-inf`` whenever ``R(r) <= Rmin`` — i.e. the minimum-PoCD SLA is treated
as a hard constraint.

Theorem 8 shows ``U(r)`` is concave for ``r`` above a strategy-specific
threshold ``Gamma_strategy``.  For all three strategies the per-task miss
probability has the geometric form ``P_miss(r) = A * q**r``, and the
PoCD ``R(r) = (1 - A q**r)**N`` switches from convex to concave exactly
where ``A q**r = 1/N``; hence ``Gamma = log_q(1 / (N A))``, which reduces
to the paper's three expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cost import expected_machine_time
from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import pocd, task_miss_probability


@dataclass(frozen=True)
class UtilityParameters:
    """Parameters of the net-utility objective.

    Parameters
    ----------
    theta:
        Tradeoff factor between PoCD utility and execution cost.  Small
        values make the optimization PoCD-critical; large values make it
        cost-sensitive (Figure 3 sweeps theta from 1e-6 to 1e-3).
    unit_price:
        Price per unit VM time (the paper's ``C``).
    r_min_pocd:
        Minimum required PoCD ``Rmin``; the utility is ``-inf`` whenever
        the achieved PoCD does not strictly exceed it.
    """

    theta: float = 1e-4
    unit_price: float = 1.0
    r_min_pocd: float = 0.0

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.unit_price < 0:
            raise ValueError("unit_price must be non-negative")
        if not 0.0 <= self.r_min_pocd < 1.0:
            raise ValueError("r_min_pocd must lie in [0, 1)")


def pocd_utility(pocd_value: float, r_min_pocd: float) -> float:
    """Logarithmic PoCD utility ``lg(R - Rmin)``; ``-inf`` when infeasible."""
    margin = pocd_value - r_min_pocd
    if margin <= 0.0:
        return -math.inf
    return math.log10(margin)


def net_utility(
    model: StragglerModel,
    strategy: StrategyName,
    r: float,
    params: UtilityParameters,
) -> float:
    """Net utility ``U(r) = lg(R(r) - Rmin) - theta * C * E(T)``."""
    if r < 0:
        raise ValueError("r must be non-negative")
    pocd_value = pocd(model, strategy, r)
    utility = pocd_utility(pocd_value, params.r_min_pocd)
    if utility == -math.inf:
        return -math.inf
    machine_time = expected_machine_time(model, strategy, r)
    if not math.isfinite(machine_time):
        return -math.inf
    return utility - params.theta * params.unit_price * machine_time


def concavity_threshold(model: StragglerModel, strategy: StrategyName) -> float:
    """Theorem 8 threshold ``Gamma_strategy`` above which ``U(r)`` is concave.

    Derivation: with ``P_miss(r) = A * q**r`` the PoCD second derivative
    changes sign at ``A q**r = 1/N``, i.e. ``r = log_q(1 / (N A))``.  For
    the three strategies this evaluates to the paper's eq. (27)-(29).
    The returned value may be negative, in which case the objective is
    concave over the whole feasible range ``r >= 0``.
    """
    miss0 = task_miss_probability(model, strategy, 0.0)
    miss1 = task_miss_probability(model, strategy, 1.0)
    if miss0 <= 0.0:
        # The job always meets the deadline; PoCD is flat and trivially
        # concave everywhere.
        return -math.inf
    ratio = miss1 / miss0
    if ratio >= 1.0:
        # Extra attempts do not reduce the miss probability (degenerate
        # timing, e.g. D - tau_est <= tmin); treat the whole range as
        # non-concave so the optimizer falls back to exhaustive search.
        return math.inf
    log_q = math.log(ratio)
    target = 1.0 / (model.num_tasks * miss0)
    return math.log(target) / log_q


def concavity_threshold_clone(model: StragglerModel) -> float:
    """Paper eq. (27): ``Gamma_Clone = -(1/beta) * log_{tmin/D}(N) - 1``."""
    base = model.tmin / model.deadline
    return -math.log(model.num_tasks) / (model.beta * math.log(base)) - 1.0


def concavity_threshold_restart(model: StragglerModel) -> float:
    """Paper eq. (28) for Speculative-Restart."""
    base = model.tmin / model.time_after_detection
    argument = model.deadline**model.beta / (model.num_tasks * model.tmin**model.beta)
    return math.log(argument) / (model.beta * math.log(base))


def concavity_threshold_resume(model: StragglerModel) -> float:
    """Paper eq. (29) for Speculative-Resume."""
    base = model.remaining_work_fraction * model.tmin / model.time_after_detection
    argument = model.deadline**model.beta / (model.num_tasks * model.tmin**model.beta)
    return math.log(argument) / (model.beta * math.log(base)) - 1.0
