"""Closed-form expected machine running time (execution cost).

Implements Theorems 2, 4 and 6 of the paper.  The *machine running time*
of a job is the total VM time consumed by all attempts of all its tasks,
including attempts that are later killed at ``tau_kill``.  Multiplying by
the unit VM price gives the execution cost used in the net utility.

* **Clone** (Theorem 2)::

      E_Clone(T) = N * [ r * tau_kill + tmin + tmin / (beta*(r+1) - 1) ]

* **Speculative-Restart** (Theorem 4) — conditional decomposition on the
  original attempt missing/meeting the deadline.  The straggler branch
  contains the tail integral (``d = D - tau_est``, ``e = beta*r``)::

      I = int_{d}^{inf} (D / (w + tau_est))**beta * (tmin / w)**e dw

  which is evaluated in closed form with the standard library only.
  Substituting ``t = tau_est / (w + tau_est)`` turns it into an incomplete
  beta function, ``I = D**beta tmin**e tau_est**(-a) * B(x; a, 1 - e)``
  with ``a = beta + e - 1`` and ``x = tau_est / D``.  Euler's
  transformation ``2F1(a, e; a+1; x) = (1-x)**(1-e) 2F1(1, beta; a+1; x)``
  of ``B(x; a, b) = x**a / a * 2F1(a, 1-b; a+1; x)`` then gives::

      I = d * (tmin / d)**e / a * sum_{n>=0} (beta)_n / (beta + e)_n * x**n

  The scale factor ``d (tmin/d)**e`` is the integrand's own value at the
  lower limit (times ``d``), so nothing overflows even at ``r = 64``, and
  every series term is positive with term ratio ``x (beta+n)/(beta+e+n)
  < x < 1 - tmin/D``: no cancellation, and the truncation error after a
  term is at most ``x / (1 - x)`` times that term.  Near ``x -> 1`` the
  series needs many terms, so above ``RESTART_SERIES_MAX_X`` the same
  quantity is computed from its finite-range form (``t = x s``)::

      I = d * (tmin / d)**e / (1 - x)
            * int_0^1 s**(a-1) * ((1 - x) / (1 - x s))**e ds

  split at ``s0 = 1/2 / x``: the part below ``s0`` is the series at
  ``x s0 = 1/2``, and the part above it — smooth, peaked at ``s = 1`` —
  is a composite 20-point Gauss–Legendre rule on panels that halve in
  width towards ``s = 1`` until the narrowest resolves the peak.

* **Speculative-Resume** (Theorem 6) — same decomposition, fully closed
  form because resumed attempts are simply ``(1 - phi)``-scaled Pareto
  variables.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import _validate_r


# ----------------------------------------------------------------------
# Clone (Theorem 2)
# ----------------------------------------------------------------------
def expected_machine_time_clone(model: StragglerModel, r: float) -> float:
    """Theorem 2: expected machine running time of a job under Clone.

    Each task launches ``r + 1`` attempts at time zero; the ``r`` slower
    attempts are killed at ``tau_kill`` and the fastest one runs to
    completion, whose expected duration is ``E[min of r+1 Pareto]``
    (Lemma 1).
    """
    _validate_r(r)
    n_attempts = r + 1.0
    denom = model.beta * n_attempts - 1.0
    if denom <= 0:
        return math.inf
    expected_min = model.tmin + model.tmin / denom
    per_task = r * model.tau_kill + expected_min
    return model.num_tasks * per_task


# ----------------------------------------------------------------------
# Shared helpers for the speculative strategies (Theorems 4 and 6)
# ----------------------------------------------------------------------
def _non_straggler_branch(model: StragglerModel) -> float:
    """``E[T | T <= D]``: machine time when the original attempt meets D."""
    return model.attempt_distribution.conditional_mean_below(model.deadline)


def _straggler_probability(model: StragglerModel) -> float:
    return model.straggler_probability


# ----------------------------------------------------------------------
# Speculative-Restart (Theorem 4)
# ----------------------------------------------------------------------
#: Largest ``x = tau_est / D`` at which the Theorem-4 tail is summed as a
#: series alone (at most ~370 terms); above it the quadrature form is used.
RESTART_SERIES_MAX_X = 0.9

#: Where the quadrature form hands its lower part back to the series.
_QUADRATURE_SPLIT = 0.5


def _gauss_legendre(order: int) -> Tuple[List[float], List[float]]:
    """Nodes and weights of the ``order``-point Gauss–Legendre rule on [-1, 1].

    Newton's method on the Legendre polynomial ``P_order``, started from
    the usual Chebyshev-like guesses, converges to full precision in a few
    steps.
    """
    nodes, weights = [], []
    for i in range(1, order + 1):
        z = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, z
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * z * p - (k - 1) * p_prev) / k
            derivative = order * (z * p - p_prev) / (z * z - 1.0)
            step = p / derivative
            z -= step
            if abs(step) <= 1e-16:
                break
        nodes.append(z)
        weights.append(2.0 / ((1.0 - z * z) * derivative * derivative))
    return nodes, weights


#: ``(node, weight)`` pairs of the 20-point rule used by the quadrature form.
_GL_RULE = tuple(zip(*_gauss_legendre(20)))


def _restart_tail_series(beta: float, exponent: float, x: float) -> float:
    """``sum_n (beta)_n / (beta + e)_n * x**n / (beta + e - 1)`` for ``0 <= x < 1``.

    Stops once a term falls below ``1e-17`` of the running sum; the
    remaining tail is then at most ``x / (1 - x)`` times that term.
    """
    shift = beta + exponent
    term = total = 1.0
    n = 0.0
    while True:
        term *= (beta + n) / (shift + n) * x
        total += term
        if term <= total * 1e-17:
            return total / (shift - 1.0)
        n += 1.0


def _restart_tail_quadrature(beta: float, exponent: float, x: float) -> float:
    """The quantity of :func:`_restart_tail_series` for ``1/2 < x < 1``.

    ``(1 - x)**-1 * int_0^1 s**(a-1) ((1-x)/(1-x s))**e ds`` with
    ``a = beta + e - 1``: series below ``s0 = 1/2 / x``, composite
    Gauss–Legendre above it on panels halving towards the peak at
    ``s = 1``.  The narrowest panel is at most ``8 / slope`` wide, where
    ``slope`` bounds the log-derivative of the integrand at ``s = 1``, and
    at most the distance ``(1 - x) / x`` to the singularity at ``s = 1/x``.
    """
    a_minus_1 = beta + exponent - 2.0
    y = _QUADRATURE_SPLIT
    s0 = y / x
    one_minus_x = 1.0 - x
    # int_0^s0 by s = s0 u: s0**a ((1-x)/(1-y))**e (1-y) * series(y).
    lower = (
        s0 ** (a_minus_1 + 1.0)
        * (one_minus_x / (1.0 - y)) ** exponent
        * (1.0 - y)
        * _restart_tail_series(beta, exponent, y)
    )
    width = 1.0 - s0
    slope = abs(a_minus_1) + exponent * x / one_minus_x
    resolution = width * max(slope / 8.0, x / one_minus_x)
    halvings = max(1, math.ceil(math.log2(resolution)))
    edges = [0.0] + [width * 0.5**j for j in range(halvings, -1, -1)]
    log_one_minus_x = math.log(one_minus_x)
    log, exp = math.log, math.exp
    upper = 0.0
    # Distance from the peak u = 1 - s; each panel [lo, hi] in u.
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        mid = lo + half
        acc = 0.0
        for node, weight in _GL_RULE:
            s = 1.0 - (mid + half * node)
            acc += weight * exp(
                a_minus_1 * log(s) + exponent * (log_one_minus_x - log(1.0 - x * s))
            )
        upper += half * acc
    return (lower + upper) / one_minus_x


def _restart_tail_integral(
    beta: float, exponent: float, d_after: float, ratio: float, x: float
) -> float:
    """``int_{D-tau_est}^inf (D/(w+tau_est))**beta (tmin/w)**e dw`` of Theorem 4.

    Arguments are the hoisted constants ``e = beta*r``, ``d_after = D -
    tau_est``, ``ratio = tmin / d_after`` and ``x = tau_est / D``; requires
    ``beta + e > 1``.
    """
    if x <= RESTART_SERIES_MAX_X:
        tail = _restart_tail_series(beta, exponent, x)
    else:
        tail = _restart_tail_quadrature(beta, exponent, x)
    return d_after * ratio**exponent * tail


def _restart_expected_min_after_detection(model: StragglerModel, r: float) -> float:
    """``E[W_all | straggler]`` of Theorem 4.

    ``W_all = min(T1 - tau_est, T2, ..., T_{r+1})`` where ``T1`` is the
    straggling original attempt (conditioned on ``T1 > D``, hence Pareto
    with scale ``D``) and ``T2..T_{r+1}`` are fresh Pareto attempts that
    restart from byte zero at ``tau_est``.  Following the proof of
    Theorem 4::

        E[W_all] = tmin
                   + int_{tmin}^{D - tau_est} (tmin / w)**(beta*r) dw
                   + int_{D - tau_est}^{inf} (D / (w + tau_est))**beta
                                             * (tmin / w)**(beta*r) dw

    The first integral is elementary.  The second is summed in closed
    form: with ``t = tau_est / (w + tau_est)`` it is an incomplete beta
    function, and Euler's transformation turns that into the positive,
    decreasing series ``d (tmin/d)**e / (beta+e-1) * sum_n (beta)_n /
    (beta+e)_n x**n`` (``d = D - tau_est``, ``e = beta*r``, ``x = tau_est /
    D``).  Above ``x = RESTART_SERIES_MAX_X`` a Gauss–Legendre quadrature of
    the equivalent finite-range integral takes over (see the module
    docstring for the derivation of both forms).
    """
    tmin, tau_est, deadline = model.tmin, model.tau_est, model.deadline
    d_after = deadline - tau_est
    if d_after <= tmin:
        # Launching restarts after tau_est leaves less than tmin before the
        # deadline; the analysis assumes d_after >= tmin (otherwise there is
        # no reason to launch extra attempts).  Fall back to the conditional
        # mean of the surviving original attempt measured after tau_est.
        return model.attempt_distribution.conditional_mean_above(deadline) - tau_est
    beta = model.beta
    ratio = tmin / d_after
    exponent = beta * r
    # First integral over [tmin, D - tau_est]; finite range, handle the
    # exponent == 1 case analytically to avoid division by zero.
    if abs(exponent - 1.0) < 1e-12:
        first = tmin * math.log(d_after / tmin)
    elif exponent == 0.0:
        first = d_after - tmin
    else:
        # Equivalent to tmin**e * (tmin**(1-e) - d**(1-e)) / (e - 1), written
        # with the bounded ratio (tmin/d)**(e-1) so large exponents cannot
        # overflow.
        first = tmin * (1.0 - ratio ** (exponent - 1.0)) / (exponent - 1.0)

    # Second integral over [D - tau_est, inf).  The integrand decays like
    # w**(-beta*(r+1)) which is integrable for beta*(r+1) > 1.
    if beta * (r + 1.0) <= 1.0:
        return math.inf
    return tmin + first + _restart_tail_integral(
        beta, exponent, d_after, ratio, tau_est / deadline
    )


def expected_machine_time_restart(model: StragglerModel, r: float) -> float:
    """Theorem 4: expected machine running time under Speculative-Restart."""
    _validate_r(r)
    if model.beta <= 1.0:
        return math.inf
    p_miss = _straggler_probability(model)
    below = _non_straggler_branch(model)

    if r == 0:
        # No extra attempts are ever launched; the straggler simply runs to
        # completion, so the conditional machine time is E[T | T > D].
        above = model.attempt_distribution.conditional_mean_above(model.deadline)
    else:
        above = (
            model.tau_est
            + r * (model.tau_kill - model.tau_est)
            + _restart_expected_min_after_detection(model, r)
        )
    per_task = below * (1.0 - p_miss) + above * p_miss
    return model.num_tasks * per_task


# ----------------------------------------------------------------------
# Speculative-Resume (Theorem 6)
# ----------------------------------------------------------------------
def _resume_expected_min_after_detection(model: StragglerModel, r: float) -> float:
    """``E[W_new]`` of Theorem 6: min of ``r + 1`` resumed attempts.

    Each resumed attempt processes the remaining ``(1 - phi)`` fraction of
    the data, so its execution time is ``(1 - phi) * T`` with ``T`` Pareto.
    Following the paper's Lemma-1 style derivation::

        E[W_new] = tmin + tmin * (1 - phi)**(beta*(r+1)) / (beta*(r+1) - 1)
    """
    remaining = model.remaining_work_fraction
    exponent = model.beta * (r + 1.0)
    if exponent <= 1.0:
        return math.inf
    return model.tmin + model.tmin * remaining**exponent / (exponent - 1.0)


def expected_machine_time_resume(model: StragglerModel, r: float) -> float:
    """Theorem 6: expected machine running time under Speculative-Resume.

    Note that under S-Resume the straggling original attempt is killed at
    ``tau_est`` and ``r + 1`` new attempts are launched, of which ``r`` are
    killed at ``tau_kill``.
    """
    _validate_r(r)
    if model.beta <= 1.0:
        return math.inf
    p_miss = _straggler_probability(model)
    below = _non_straggler_branch(model)
    above = (
        model.tau_est
        + r * (model.tau_kill - model.tau_est)
        + _resume_expected_min_after_detection(model, r)
    )
    per_task = below * (1.0 - p_miss) + above * p_miss
    return model.num_tasks * per_task


_COST_FUNCTIONS: Dict[StrategyName, Callable[[StragglerModel, float], float]] = {
    StrategyName.CLONE: expected_machine_time_clone,
    StrategyName.SPECULATIVE_RESTART: expected_machine_time_restart,
    StrategyName.SPECULATIVE_RESUME: expected_machine_time_resume,
}


def expected_machine_time(model: StragglerModel, strategy: StrategyName, r: float) -> float:
    """Expected total VM time of a job under a Chronos strategy."""
    if strategy not in _COST_FUNCTIONS:
        raise ValueError(
            f"strategy {strategy} has no closed-form machine time; use the simulator"
        )
    return _COST_FUNCTIONS[strategy](model, r)


def expected_cost(
    model: StragglerModel, strategy: StrategyName, r: float, unit_price: float = 1.0
) -> float:
    """Expected execution cost ``C * E(T)`` in dollars.

    Parameters
    ----------
    unit_price:
        On-spot price per unit VM time (the paper's ``C`` / ``gamma_i``).
    """
    if unit_price < 0:
        raise ValueError("unit_price must be non-negative")
    return unit_price * expected_machine_time(model, strategy, r)
