"""Probability distributions used throughout the Chronos reproduction.

The paper models the execution time of every task attempt as an i.i.d.
Pareto random variable with scale ``tmin`` (minimum execution time) and
tail index ``beta``.  This subpackage provides:

* :class:`~repro.distributions.pareto.ParetoDistribution` — the Type-I
  Pareto distribution with sampling, moments and order statistics,
* :func:`~repro.distributions.batching.sample_stream` — block sampling
  for the simulator's per-attempt draws.
"""

from repro.distributions.base import Distribution
from repro.distributions.batching import sample_stream
from repro.distributions.pareto import ParetoDistribution

__all__ = [
    "Distribution",
    "ParetoDistribution",
    "sample_stream",
]
