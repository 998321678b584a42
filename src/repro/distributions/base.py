"""Abstract base class for execution-time distributions.

All distributions in the Chronos reproduction expose the same minimal
interface: sampling (vectorised via numpy), the cumulative distribution
function and the mean.
Strategies and the simulator only depend on this interface, so any
distribution can be plugged in as the attempt execution-time model.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Union

import numpy as np

ArrayLike = Union[float, Sequence[float], np.ndarray]


class Distribution(abc.ABC):
    """Interface for a (continuous, positive) execution-time distribution."""

    @abc.abstractmethod
    def sample(self, size: int = 1, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``size`` i.i.d. samples.

        Parameters
        ----------
        size:
            Number of samples to draw.
        rng:
            Optional numpy random generator.  A fresh default generator is
            used when omitted; callers that need reproducibility should pass
            an explicitly seeded generator.
        """

    @abc.abstractmethod
    def cdf(self, t: ArrayLike) -> np.ndarray:
        """Cumulative distribution function ``P(T <= t)``."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value of the distribution (may be ``inf``)."""

    def sample_one(self, rng: Optional[np.random.Generator] = None) -> float:
        """Draw a single sample as a Python float."""
        return float(self.sample(size=1, rng=rng)[0])

    @staticmethod
    def _resolve_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
        return rng if rng is not None else np.random.default_rng()

    @staticmethod
    def _as_array(t: ArrayLike) -> np.ndarray:
        return np.asarray(t, dtype=float)
