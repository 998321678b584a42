"""Amazon EC2-like spot price history.

The paper prices VM time with the average EC2 spot price observed over
its experiment window.  Real spot-price history is not available offline,
so :class:`SpotPriceHistory` synthesises a plausible price process: a
mean-reverting (Ornstein-Uhlenbeck-style) series sampled at a fixed
interval, clipped to stay positive, with occasional demand spikes.  Only
the mean matters for the reproduced comparisons; the process exists so
that per-job prices vary realistically over a 30-hour trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class SpotPriceConfig:
    """Parameters of the synthetic spot-price process.

    Parameters
    ----------
    mean_price:
        Long-run average price per unit VM time (dollars per VM-second by
        default; the scale is arbitrary as long as it is used
        consistently).
    volatility:
        Standard deviation of the per-step noise, as a fraction of the
        mean price.
    reversion:
        Mean-reversion rate per step (0 < reversion <= 1).
    spike_probability:
        Probability per step of a demand spike.
    spike_multiplier:
        Multiplicative factor applied to the price during a spike.
    interval_seconds:
        Sampling interval of the price series.
    duration_hours:
        Length of the generated history.
    seed:
        RNG seed.
    """

    mean_price: float = 1.0
    volatility: float = 0.1
    reversion: float = 0.2
    spike_probability: float = 0.02
    spike_multiplier: float = 2.5
    interval_seconds: float = 300.0
    duration_hours: float = 30.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.mean_price <= 0:
            raise ValueError("mean_price must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")
        if not 0 < self.reversion <= 1:
            raise ValueError("reversion must lie in (0, 1]")
        if not 0 <= self.spike_probability <= 1:
            raise ValueError("spike_probability must lie in [0, 1]")
        if self.spike_multiplier < 1:
            raise ValueError("spike_multiplier must be at least 1")
        if self.interval_seconds <= 0 or self.duration_hours <= 0:
            raise ValueError("interval and duration must be positive")


class SpotPriceHistory:
    """A synthetic spot-price time series with constant-time lookups."""

    def __init__(self, config: Optional[SpotPriceConfig] = None):
        self._config = config if config is not None else SpotPriceConfig()
        self._times, self._prices = self._generate()

    @property
    def config(self) -> SpotPriceConfig:
        """The price-process configuration."""
        return self._config

    def price_at(self, time: float) -> float:
        """Price in effect at ``time`` (last sample at or before it)."""
        if time <= self._times[0]:
            return self._prices[0]
        index = bisect.bisect_right(self._times, time) - 1
        index = min(index, len(self._prices) - 1)
        return self._prices[index]

    def average_price(self) -> float:
        """Time-average price over the whole history."""
        return float(np.mean(self._prices))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _generate(self) -> tuple:
        cfg = self._config
        rng = np.random.default_rng(cfg.seed)
        steps = int(cfg.duration_hours * 3600.0 / cfg.interval_seconds) + 1
        times: List[float] = []
        prices: List[float] = []
        price = cfg.mean_price
        for step in range(steps):
            times.append(step * cfg.interval_seconds)
            noise = rng.normal(0.0, cfg.volatility * cfg.mean_price)
            price = price + cfg.reversion * (cfg.mean_price - price) + noise
            price = max(price, 0.1 * cfg.mean_price)
            if rng.uniform() < cfg.spike_probability:
                price *= cfg.spike_multiplier
            prices.append(float(price))
        return times, prices
