"""Closed-form Probability of Completion before Deadline (PoCD).

Implements Theorems 1, 3 and 5 of the paper:

* **Clone** (Theorem 1)::

      R_Clone = [1 - (tmin / D) ** (beta * (r + 1))] ** N

* **Speculative-Restart** (Theorem 3)::

      R_S-Restart = [1 - tmin**(beta*(r+1)) / (D**beta * (D - tau_est)**(beta*r))] ** N

* **Speculative-Resume** (Theorem 5)::

      R_S-Resume = [1 - (1-phi)**(beta*(r+1)) * tmin**(beta*(r+2))
                        / (D**beta * (D - tau_est)**(beta*(r+1)))] ** N

All functions accept a real-valued ``r`` so the optimizer can evaluate the
continuous relaxation; the integer restriction is imposed by Algorithm 1.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.core.model import StragglerModel, StrategyName


def _validate_r(r: float) -> None:
    if r < 0:
        raise ValueError(f"number of extra attempts r must be non-negative, got {r}")


def task_miss_probability_clone(model: StragglerModel, r: float) -> float:
    """Probability a single task misses the deadline under Clone.

    All ``r + 1`` attempts run from time zero, so the task misses the
    deadline only if all attempts exceed ``D``:
    ``P_miss = (tmin / D) ** (beta * (r + 1))``.
    """
    _validate_r(r)
    p_single = model.straggler_probability
    return p_single ** (r + 1.0)


def task_miss_probability_restart(model: StragglerModel, r: float) -> float:
    """Probability a single task misses the deadline under S-Restart.

    The original attempt misses with probability ``(tmin/D)**beta``; each of
    the ``r`` restarted attempts (launched at ``tau_est``, reprocessing from
    scratch) misses with probability ``(tmin / (D - tau_est))**beta``.
    """
    _validate_r(r)
    d_after = model.time_after_detection
    p_original = model.straggler_probability
    if d_after <= model.tmin:
        # Extra attempts launched after tau_est cannot finish before the
        # deadline at all, so they never help.
        p_extra = 1.0
    else:
        p_extra = (model.tmin / d_after) ** model.beta
    return p_original * p_extra**r


def task_miss_probability_resume(model: StragglerModel, r: float) -> float:
    """Probability a single task misses the deadline under S-Resume.

    When the original attempt is flagged as a straggler it is killed and
    ``r + 1`` new attempts resume from byte offset ``phi`` (fraction of data
    already processed).  Each resumed attempt's execution time is the Pareto
    time scaled by ``(1 - phi)``, so it misses the deadline with probability
    ``((1 - phi) * tmin / (D - tau_est)) ** beta``.
    """
    _validate_r(r)
    d_after = model.time_after_detection
    remaining = model.remaining_work_fraction
    p_original = model.straggler_probability
    scaled_tmin = remaining * model.tmin
    if remaining <= 0:
        # Original attempt had (numerically) finished all work at tau_est;
        # resumed attempts complete instantly.
        return 0.0
    if d_after <= scaled_tmin:
        p_extra = 1.0
    else:
        p_extra = (scaled_tmin / d_after) ** model.beta
    return p_original * p_extra ** (r + 1.0)


def pocd_clone(model: StragglerModel, r: float) -> float:
    """Theorem 1: PoCD of the Clone strategy."""
    p_miss = task_miss_probability_clone(model, r)
    return (1.0 - p_miss) ** model.num_tasks


def pocd_restart(model: StragglerModel, r: float) -> float:
    """Theorem 3: PoCD of the Speculative-Restart strategy."""
    p_miss = task_miss_probability_restart(model, r)
    return (1.0 - p_miss) ** model.num_tasks


def pocd_resume(model: StragglerModel, r: float) -> float:
    """Theorem 5: PoCD of the Speculative-Resume strategy."""
    p_miss = task_miss_probability_resume(model, r)
    return (1.0 - p_miss) ** model.num_tasks


def pocd_no_speculation(model: StragglerModel) -> float:
    """PoCD with a single attempt per task and no speculation (Hadoop-NS).

    This equals the Clone PoCD with ``r = 0`` and is the paper's choice of
    ``Rmin`` in the testbed experiments.
    """
    return pocd_clone(model, 0.0)


_POCD_FUNCTIONS: Dict[StrategyName, Callable[[StragglerModel, float], float]] = {
    StrategyName.CLONE: pocd_clone,
    StrategyName.SPECULATIVE_RESTART: pocd_restart,
    StrategyName.SPECULATIVE_RESUME: pocd_resume,
}

_MISS_FUNCTIONS: Dict[StrategyName, Callable[[StragglerModel, float], float]] = {
    StrategyName.CLONE: task_miss_probability_clone,
    StrategyName.SPECULATIVE_RESTART: task_miss_probability_restart,
    StrategyName.SPECULATIVE_RESUME: task_miss_probability_resume,
}


def pocd(model: StragglerModel, strategy: StrategyName, r: float) -> float:
    """PoCD of ``strategy`` with ``r`` extra attempts per (straggling) task.

    Only the three Chronos strategies have a closed form; baselines must be
    evaluated through simulation (see :mod:`repro.simulator`).
    """
    if strategy not in _POCD_FUNCTIONS:
        raise ValueError(
            f"strategy {strategy} has no closed-form PoCD; use the simulator instead"
        )
    return _POCD_FUNCTIONS[strategy](model, r)


def task_miss_probability(model: StragglerModel, strategy: StrategyName, r: float) -> float:
    """Per-task deadline-miss probability for a Chronos strategy."""
    if strategy not in _MISS_FUNCTIONS:
        raise ValueError(f"strategy {strategy} has no closed-form miss probability")
    return _MISS_FUNCTIONS[strategy](model, r)


def required_attempts_for_target(
    model: StragglerModel, strategy: StrategyName, target_pocd: float, r_max: int = 64
) -> int:
    """Smallest integer ``r`` whose PoCD meets ``target_pocd``.

    Raises ``ValueError`` if even ``r_max`` extra attempts cannot reach the
    target (e.g. an infeasible deadline).
    """
    if not 0.0 < target_pocd < 1.0:
        raise ValueError("target_pocd must lie strictly between 0 and 1")
    for r in range(r_max + 1):
        if pocd(model, strategy, r) >= target_pocd:
            return r
    raise ValueError(
        f"target PoCD {target_pocd} unreachable with up to {r_max} extra attempts "
        f"for strategy {strategy.display_name}"
    )


def log_miss_probability_slope(model: StragglerModel, strategy: StrategyName) -> float:
    """Slope of ``ln P_miss(r)`` in ``r`` (a negative constant for each strategy).

    For all three strategies the per-task miss probability has the form
    ``P_miss(r) = A * q**r`` with ``q`` independent of ``r``; the slope
    ``ln q`` determines how quickly extra attempts pay off and appears in the
    concavity thresholds of Theorem 8.
    """
    miss_at_0 = task_miss_probability(model, strategy, 0.0)
    miss_at_1 = task_miss_probability(model, strategy, 1.0)
    if miss_at_0 <= 0.0:
        return -math.inf
    return math.log(miss_at_1 / miss_at_0)
