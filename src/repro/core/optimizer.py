"""Algorithm 1: hybrid optimizer for the joint PoCD/cost problem.

The paper's Algorithm 1 combines (i) a gradient-based search over the
concave region ``r >= ceil(Gamma_strategy)`` with (ii) an exhaustive scan
of the (small) non-concave region ``0 <= r < ceil(Gamma_strategy)``, and
returns the integer ``r`` that maximises the net utility.

Phase (i) here is an integer ascent rather than the paper's continuous
search.  By Theorem 8 the utility is concave on the reals above
``Gamma``, so its restriction to the integers there is discretely
concave: the first step ``r -> r + 1`` that does not improve it stops at
the integer optimum of that region, the point Theorem 9 proves optimal,
without a continuous iterate to round.

This module provides:

* :class:`ChronosOptimizer` — the production optimizer used by the
  per-job Application Master (and the experiment harness),
* :func:`brute_force_optimum` — a slow but obviously correct reference
  optimizer used by the test suite to verify Theorem 9 (optimality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.cost import expected_machine_time
from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import log_miss_probability_slope, pocd, task_miss_probability
from repro.core.utility import UtilityParameters, concavity_threshold, net_utility

# Hard cap on the number of extra attempts ever considered.  The paper's
# optimal r values are tiny (Figure 5 shows r in 1..6); 64 gives a wide
# safety margin while keeping the exhaustive fallback cheap.
DEFAULT_R_MAX = 64


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing a strategy for a single job."""

    strategy: StrategyName
    r_opt: int
    utility: float
    pocd: float
    machine_time: float
    cost: float
    concavity_threshold: float
    evaluations: int
    utility_by_r: Dict[int, float] = field(default_factory=dict)


def brute_force_optimum(
    model: StragglerModel,
    strategy: StrategyName,
    params: UtilityParameters,
    r_max: int = DEFAULT_R_MAX,
) -> Tuple[int, float]:
    """Reference optimizer: evaluate every integer ``r`` in ``[0, r_max]``.

    Returns ``(r_opt, utility)``.  Used by tests to validate Theorem 9
    (Algorithm 1 finds the global optimum).
    """
    best_r, best_u = 0, -math.inf
    for r in range(r_max + 1):
        u = net_utility(model, strategy, r, params)
        if u > best_u:
            best_r, best_u = r, u
    return best_r, best_u


class ChronosOptimizer:
    """Joint PoCD/cost optimizer for a single job (Algorithm 1).

    Parameters
    ----------
    model:
        The job's straggler model (Pareto parameters, deadline, timing).
    theta:
        PoCD/cost tradeoff factor.
    unit_price:
        Price per unit VM time.
    r_min_pocd:
        Minimum PoCD ``Rmin`` below which the utility is ``-inf``.
    r_max:
        Safety cap on the number of extra attempts considered.
    """

    def __init__(
        self,
        model: StragglerModel,
        theta: float = 1e-4,
        unit_price: float = 1.0,
        r_min_pocd: float = 0.0,
        r_max: int = DEFAULT_R_MAX,
    ) -> None:
        if r_max < 0:
            raise ValueError("r_max must be non-negative")
        self._model = model
        self._params = UtilityParameters(
            theta=theta, unit_price=unit_price, r_min_pocd=r_min_pocd
        )
        self._r_max = r_max

    @property
    def model(self) -> StragglerModel:
        """The straggler model being optimized."""
        return self._model

    @property
    def parameters(self) -> UtilityParameters:
        """The utility parameters (theta, unit price, Rmin)."""
        return self._params

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def utility(self, strategy: StrategyName, r: int) -> float:
        """Net utility of ``strategy`` at integer ``r``."""
        return net_utility(self._model, strategy, r, self._params)

    def optimize(self, strategy: StrategyName) -> OptimizationResult:
        """Run Algorithm 1 for one strategy and return the optimal ``r``.

        Ties go to the smallest ``r``.  When no ``r`` has a finite utility
        (Rmin cannot be met within ``r_max``, or the expected machine time
        is infinite, as with ``beta <= 1`` under the speculative
        strategies), the result is the smallest ``r`` whose PoCD exceeds
        Rmin, or 0 when none does.
        """
        model, params = self._model, self._params
        evaluations: Dict[int, float] = {}

        def record(r: int) -> float:
            if r not in evaluations:
                evaluations[r] = net_utility(model, strategy, r, params)
            return evaluations[r]

        # Below r_feasible the PoCD does not exceed Rmin (utility -inf),
        # so neither phase searches there.
        r_feasible = self._smallest_feasible_r(strategy)
        gamma = concavity_threshold(model, strategy)
        if r_feasible > self._r_max:
            # No r meets Rmin: report the infeasible r = 0, as
            # brute_force_optimum does, without searching.
            record(0)
            non_concave_upper = 0
        elif math.isfinite(gamma):
            # Phase 1: integer ascent over the concave region, which stops
            # at the first step that does not improve the utility.
            start = min(max(0, math.ceil(gamma), r_feasible), self._r_max)
            r = start
            while r < self._r_max and record(r + 1) > record(r):
                r += 1
            non_concave_upper = start
        else:
            # Concavity threshold unavailable (degenerate model) - fall back
            # to a full exhaustive scan.
            non_concave_upper = self._r_max + 1

        # Phase 2: exhaustive scan over the non-concave region
        # [r_feasible, ceil(Gamma)).
        for r in range(r_feasible, non_concave_upper):
            record(r)

        best_r = max(evaluations, key=lambda r: (evaluations[r], -r))
        best_u = evaluations[best_r]
        machine_time = expected_machine_time(self._model, strategy, best_r)
        return OptimizationResult(
            strategy=strategy,
            r_opt=best_r,
            utility=best_u,
            pocd=pocd(self._model, strategy, best_r),
            machine_time=machine_time,
            cost=self._params.unit_price * machine_time,
            concavity_threshold=gamma,
            evaluations=len(evaluations),
            utility_by_r=dict(sorted(evaluations.items())),
        )

    def optimize_all(
        self, strategies: Optional[Iterable[StrategyName]] = None
    ) -> Dict[StrategyName, OptimizationResult]:
        """Optimize every (Chronos) strategy and return results keyed by name."""
        strategies = tuple(strategies) if strategies else StrategyName.chronos_strategies()
        return {strategy: self.optimize(strategy) for strategy in strategies}

    def best_strategy(
        self, strategies: Optional[Iterable[StrategyName]] = None
    ) -> OptimizationResult:
        """The strategy/r pair with the highest net utility."""
        results = self.optimize_all(strategies)
        return max(results.values(), key=lambda res: res.utility)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _smallest_feasible_r(self, strategy: StrategyName) -> int:
        """Smallest ``r`` whose PoCD exceeds ``Rmin`` (``r_max + 1`` if none).

        PoCD is monotone in ``r``: with ``P_miss(r) = A * q**r``, the
        condition ``(1 - P_miss(r))**N > Rmin`` solves in closed form.  A
        check against the exact PoCD absorbs rounding at the boundary, and
        decides alone where there is no closed form (``q >= 1``, or
        ``Rmin**(1/N)`` rounding to 1).  ``Rmin = 0`` returns 0 without
        evaluating anything.
        """
        r_min = self._params.r_min_pocd
        if r_min <= 0.0:
            return 0
        model = self._model
        miss0 = task_miss_probability(model, strategy, 0.0)
        allowed = 1.0 - r_min ** (1.0 / model.num_tasks)
        slope = log_miss_probability_slope(model, strategy)
        r = 0
        if 0.0 < allowed <= miss0 and slope < 0.0:
            r = min(math.floor(math.log(allowed / miss0) / slope) + 1, self._r_max + 1)
        while r <= self._r_max and pocd(model, strategy, r) <= r_min:
            r += 1
        while r > 0 and pocd(model, strategy, r - 1) > r_min:
            r -= 1
        return r
