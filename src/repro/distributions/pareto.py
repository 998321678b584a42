"""Pareto (Type I) execution-time distribution.

The paper (Section III, eq. 2) models the execution time of each task
attempt as Pareto distributed::

    f(t) = beta * tmin**beta / t**(beta + 1)     for t >= tmin

with minimum execution time ``tmin`` and tail index ``beta``.  Prior work
observes ``beta < 2`` on contended clusters, i.e. a heavy tail with
infinite variance, which is what makes stragglers so damaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.distributions.base import ArrayLike, Distribution


@dataclass(frozen=True)
class ParetoDistribution(Distribution):
    """Type-I Pareto distribution with scale ``tmin`` and tail index ``beta``.

    Parameters
    ----------
    tmin:
        Minimum execution time (scale parameter), strictly positive.
    beta:
        Tail index (shape parameter), strictly positive.  Values below 1
        give an infinite mean; the paper's experiments use ``1 < beta < 2``.
    """

    tmin: float
    beta: float

    def __post_init__(self) -> None:
        if self.tmin <= 0:
            raise ValueError(f"tmin must be positive, got {self.tmin}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def sample(self, size: int = 1, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = self._resolve_rng(rng)
        # Inverse-transform sampling: if U ~ Uniform(0, 1), then
        # tmin / U**(1/beta) is Pareto(tmin, beta).
        u = rng.uniform(size=size)
        return self.tmin / np.power(u, 1.0 / self.beta)

    def cdf(self, t: ArrayLike) -> np.ndarray:
        t = self._as_array(t)
        out = np.zeros_like(t)
        mask = t >= self.tmin
        out[mask] = 1.0 - np.power(self.tmin / t[mask], self.beta)
        return out

    def mean(self) -> float:
        """``E[T] = tmin + tmin / (beta - 1)`` for ``beta > 1`` else ``inf``.

        The paper uses exactly this identity in the Figure 4 discussion.
        """
        if self.beta <= 1:
            return math.inf
        return self.tmin * self.beta / (self.beta - 1.0)

    # ------------------------------------------------------------------
    # Order statistics (Lemma 1 of the paper)
    # ------------------------------------------------------------------
    def min_of(self, n: int) -> "ParetoDistribution":
        """Distribution of the minimum of ``n`` i.i.d. copies.

        The minimum of ``n`` i.i.d. Pareto(tmin, beta) variables is again
        Pareto with the same scale and tail index ``n * beta``; this is the
        fact behind Lemma 1 of the paper.
        """
        if n < 1:
            raise ValueError("n must be a positive integer")
        return ParetoDistribution(self.tmin, self.beta * n)

    def expected_min_of(self, n: int) -> float:
        """Lemma 1: ``E[min of n attempts] = tmin * n * beta / (n * beta - 1)``.

        Requires ``n * beta > 1`` (otherwise the expectation diverges).
        """
        if n < 1:
            raise ValueError("n must be a positive integer")
        nb = n * self.beta
        if nb <= 1:
            return math.inf
        return self.tmin * nb / (nb - 1.0)

    def conditional_mean_below(self, d: float) -> float:
        """``E[T | T <= d]`` for ``d > tmin``.

        This is the quantity the paper denotes ``E(Tj | Tj,1 <= D)`` in
        Theorems 4 and 6::

            E[T | T <= D] = tmin * D * beta * (tmin**(beta-1) - D**(beta-1))
                            / ((1 - beta) * (D**beta - tmin**beta))
        """
        if d <= self.tmin:
            raise ValueError("conditioning bound must exceed tmin")
        b, tm = self.beta, self.tmin
        if abs(b - 1.0) < 1e-12:
            # Limit beta -> 1: E[T | T <= D] = tmin*D*ln(D/tmin) / (D - tmin)
            return tm * d * math.log(d / tm) / (d - tm)
        numerator = tm * d * b * (tm ** (b - 1.0) - d ** (b - 1.0))
        denominator = (1.0 - b) * (d**b - tm**b)
        return numerator / denominator

    def conditional_mean_above(self, d: float) -> float:
        """``E[T | T > d]`` for ``d >= tmin`` (requires ``beta > 1``)."""
        if self.beta <= 1:
            return math.inf
        lower = max(d, self.tmin)
        # Conditional distribution of T given T > d is Pareto(d, beta)
        # (memoryless-like scaling property of the Pareto distribution).
        return lower * self.beta / (self.beta - 1.0)

