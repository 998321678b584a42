"""Speculation strategies: the three Chronos strategies plus baselines.

Every strategy implements the small interface the Application Master
expects (:class:`repro.strategies.base.SpeculationStrategy`):

* :class:`~repro.strategies.clone.CloneStrategy` — launch ``r + 1``
  attempts per task at job start, keep the best at ``tau_kill``,
* :class:`~repro.strategies.restart.SpeculativeRestartStrategy` — detect
  stragglers at ``tau_est`` via estimated completion time, launch ``r``
  restarted attempts, keep the best at ``tau_kill``,
* :class:`~repro.strategies.resume.SpeculativeResumeStrategy` — as above
  but kill the straggler and launch ``r + 1`` attempts that resume from
  the straggler's byte offset,
* :class:`~repro.strategies.hadoop_ns.HadoopNoSpeculationStrategy` —
  default Hadoop with speculation disabled,
* :class:`~repro.strategies.hadoop_s.HadoopSpeculationStrategy` — default
  Hadoop speculation (LATE-style),
* :class:`~repro.strategies.mantri.MantriStrategy` — the Mantri baseline.

Use :func:`build_strategy` to construct a strategy from a
:class:`~repro.core.model.StrategyName` plus common parameters.
"""

from typing import Dict, Optional, Type

from repro.core.model import StrategyName
from repro.strategies.base import SpeculationStrategy, StrategyParameters
from repro.strategies.clone import CloneStrategy
from repro.strategies.hadoop_ns import HadoopNoSpeculationStrategy
from repro.strategies.hadoop_s import HadoopSpeculationStrategy
from repro.strategies.mantri import MantriStrategy
from repro.strategies.restart import SpeculativeRestartStrategy
from repro.strategies.resume import SpeculativeResumeStrategy

_STRATEGIES: Dict[StrategyName, Type[SpeculationStrategy]] = {
    StrategyName.CLONE: CloneStrategy,
    StrategyName.SPECULATIVE_RESTART: SpeculativeRestartStrategy,
    StrategyName.SPECULATIVE_RESUME: SpeculativeResumeStrategy,
    StrategyName.HADOOP_NO_SPECULATION: HadoopNoSpeculationStrategy,
    StrategyName.HADOOP_SPECULATION: HadoopSpeculationStrategy,
    StrategyName.MANTRI: MantriStrategy,
}


def build_strategy(
    name: StrategyName, params: Optional[StrategyParameters] = None
) -> SpeculationStrategy:
    """Instantiate the strategy named ``name``."""
    if name not in _STRATEGIES:
        raise ValueError(f"no strategy named {name!r}")
    return _STRATEGIES[name](params)


__all__ = [
    "SpeculationStrategy",
    "StrategyParameters",
    "build_strategy",
    "CloneStrategy",
    "SpeculativeRestartStrategy",
    "SpeculativeResumeStrategy",
    "HadoopNoSpeculationStrategy",
    "HadoopSpeculationStrategy",
    "MantriStrategy",
]
