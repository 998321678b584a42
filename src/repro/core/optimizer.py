"""Algorithm 1: hybrid optimizer for the joint PoCD/cost problem.

The paper's Algorithm 1 combines (i) a gradient-based line search over the
concave region ``r >= ceil(Gamma_strategy)`` with (ii) an exhaustive scan
of the (small) non-concave region ``0 <= r < ceil(Gamma_strategy)``, and
returns the integer ``r`` that maximises the net utility.

This module provides:

* :class:`ChronosOptimizer` — the production optimizer used by the
  per-job Application Master (and the experiment harness),
* :func:`gradient_line_search` — the continuous Phase-1 search used inside
  the optimizer,
* :func:`brute_force_optimum` — a slow but obviously correct reference
  optimizer used by the test suite to verify Theorem 9 (optimality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.cost import expected_machine_time
from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import log_miss_probability_slope, pocd, task_miss_probability
from repro.core.utility import (
    UtilityParameters,
    concavity_threshold,
    make_net_utility_fn,
    net_utility,
)

# Hard cap on the number of extra attempts ever considered.  The paper's
# optimal r values are tiny (Figure 5 shows r in 1..6); 64 gives a wide
# safety margin while keeping the exhaustive fallback cheap.
DEFAULT_R_MAX = 64

# Line-search iteration budget used inside :meth:`ChronosOptimizer.optimize`.
# The continuous search only needs to land within ~1 of the true optimum:
# the rounded candidates are refined by an integer hill climb, and the
# objective is concave (hence unimodal) over the searched region, so the
# final integer r is insensitive to the exact continuous iterate.  40
# iterations keep the drift well under one integer step (measured max
# |r_40 - r_200| ≈ 0.78 across a 972-point model/strategy/theta grid, with
# identical integer optima throughout); standalone calls of
# :func:`gradient_line_search` keep the historical 200-iteration default.
OPTIMIZE_LINE_SEARCH_ITERATIONS = 40


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

    @property
    def feasible(self) -> bool:
        """Whether any ``r`` achieved a finite utility (PoCD above Rmin)."""
        return math.isfinite(self.utility)


def gradient_line_search(
    model: StragglerModel,
    strategy: StrategyName,
    params: UtilityParameters,
    r_start: float,
    gradient_tolerance: float = 1e-6,
    backtrack_alpha: float = 0.3,
    backtrack_xi: float = 0.5,
    max_iterations: int = 200,
    eps: float = 1e-4,
    utility_fn: Optional[Callable[[float], float]] = None,
) -> float:
    """Phase 1 of Algorithm 1: gradient ascent with backtracking line search.

    Operates on the continuous relaxation of ``r`` over the concave region
    starting at ``r_start``.  Returns the (real-valued) maximiser; the
    caller rounds to neighbouring integers.

    Parameters mirror the paper's ``eta`` (gradient tolerance), ``alpha``
    and ``xi`` backtracking constants.  ``utility_fn`` optionally supplies
    a pre-specialized ``r -> U(r)`` evaluator (see
    :func:`repro.core.utility.make_net_utility_fn`); when omitted the
    generic :func:`net_utility` is used.
    """
    r = max(0.0, r_start)
    if utility_fn is None:
        utility_fn = make_net_utility_fn(model, strategy, params)

    # Hot loop: ~800 utility evaluations per job.  Every call site below
    # guarantees a non-negative argument, so the evaluator is called
    # directly (no clamping wrapper), and the utility of an accepted
    # Armijo candidate is carried into the next iteration instead of
    # being recomputed.  The evaluation *values* are identical to the
    # straightforward formulation — only redundant calls are elided.
    isfinite = math.isfinite
    current: Optional[float] = None  # U(r), when known from the last iteration
    for _ in range(max_iterations):
        lo = r - eps
        if lo < 0.0:
            lo = 0.0
        hi = r + eps
        u_lo = utility_fn(lo)
        u_hi = utility_fn(hi)
        if isfinite(u_lo) and isfinite(u_hi):
            grad = (u_hi - u_lo) / (hi - lo)
        else:
            grad = 0.0
        if abs(grad) <= gradient_tolerance:
            break
        # Ascent direction in one dimension; clamp so a steep utility cannot
        # propose absurdly large candidate r values in a single step.
        direction = max(-16.0, min(16.0, grad))
        step = 1.0
        if current is None:
            current = utility_fn(r)
        # Backtracking (Armijo) line search.
        accepted_r = accepted_u = None
        while step > 1e-8:
            candidate = r + step * direction
            if candidate < 0:
                step *= backtrack_xi
                continue
            candidate_u = utility_fn(candidate)
            if candidate_u >= current + backtrack_alpha * step * grad * direction:
                accepted_r, accepted_u = candidate, candidate_u
                break
            step *= backtrack_xi
        new_r = max(0.0, r + step * direction)
        if abs(new_r - r) < 1e-9:
            break
        r = new_r
        current = accepted_u if accepted_r == new_r else None
    return r


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
        """Run Algorithm 1 for one strategy and return the optimal ``r``."""
        gamma = concavity_threshold(self._model, strategy)
        evaluations: Dict[int, float] = {}
        utility_fn = make_net_utility_fn(self._model, strategy, self._params)

        def record(r: int) -> float:
            if r not in evaluations:
                evaluations[r] = utility_fn(r)
            return evaluations[r]

        # Below r_feasible the PoCD does not exceed Rmin (utility -inf),
        # so neither phase searches there.
        r_feasible = self._smallest_feasible_r(strategy)
        candidates = set()
        if r_feasible > self._r_max:
            # No r meets Rmin: report the infeasible r = 0, as
            # brute_force_optimum does, without searching.
            candidates.add(0)
            non_concave_upper = 0
        elif math.isfinite(gamma):
            # Phase 1: gradient-based search over the concave region.
            start = max(0, math.ceil(gamma), r_feasible)
            start = min(start, self._r_max)
            r_continuous = gradient_line_search(
                self._model,
                strategy,
                self._params,
                start,
                max_iterations=OPTIMIZE_LINE_SEARCH_ITERATIONS,
                utility_fn=utility_fn,
            )
            for candidate in (math.floor(r_continuous), math.ceil(r_continuous)):
                candidate = int(min(max(candidate, 0), self._r_max))
                candidates.add(candidate)
            # Integer hill-climb around the rounded optimum guards against
            # line-search inaccuracy on flat objectives.
            candidates.update(self._hill_climb(strategy, min(candidates), record))
            non_concave_upper = min(start, self._r_max + 1)
        else:
            # Concavity threshold unavailable (degenerate model) - fall back
            # to a full exhaustive scan.
            non_concave_upper = self._r_max + 1

        # Phase 2: exhaustive scan over the non-concave region
        # [r_feasible, ceil(Gamma)).
        for r in range(r_feasible, non_concave_upper):
            candidates.add(r)

        for r in sorted(candidates):
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

    def _hill_climb(self, strategy, start: int, record) -> set:
        """Integer hill climb from ``start`` within the concave region."""
        visited = {start}
        current = start
        current_value = record(current)
        # Walk upward while the utility improves.
        r = current + 1
        while r <= self._r_max and record(r) > current_value:
            current, current_value = r, record(r)
            visited.add(r)
            r += 1
        # Walk downward while the utility improves (and stay non-negative).
        r = start - 1
        current, current_value = start, record(start)
        while r >= 0 and record(r) > current_value:
            current, current_value = r, record(r)
            visited.add(r)
            r -= 1
        return visited
