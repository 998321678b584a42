"""Probability distributions used throughout the Chronos reproduction.

The paper models the execution time of every task attempt as an i.i.d.
Pareto random variable with scale ``tmin`` (minimum execution time) and
tail index ``beta``.  This subpackage provides:

* :class:`~repro.distributions.pareto.ParetoDistribution` — the Type-I
  Pareto distribution with sampling, moments, order statistics and MLE
  fitting,
* :class:`~repro.distributions.pareto.TruncatedParetoDistribution` — a
  bounded variant used by the synthetic trace generator,
* :class:`~repro.distributions.empirical.EmpiricalDistribution` — a
  non-parametric distribution backed by observed samples (used to match
  per-job execution-time distributions from traces),
* :class:`~repro.distributions.shifted.ShiftedDistribution` — a thin
  wrapper adding a deterministic offset (JVM launch time) to any base
  distribution.
"""

from repro.distributions.base import Distribution
from repro.distributions.batching import sample_stream, vectorized_batch_size
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.pareto import (
    ParetoDistribution,
    TruncatedParetoDistribution,
    fit_pareto_mle,
)
from repro.distributions.shifted import ShiftedDistribution

__all__ = [
    "Distribution",
    "EmpiricalDistribution",
    "ParetoDistribution",
    "TruncatedParetoDistribution",
    "ShiftedDistribution",
    "fit_pareto_mle",
    "sample_stream",
    "vectorized_batch_size",
]
