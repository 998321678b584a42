"""Parameter model shared by all closed-form Chronos computations.

The analysis in Section IV of the paper is parameterised by:

* ``tmin`` and ``beta`` — the Pareto parameters of a single task attempt's
  execution time,
* ``num_tasks`` (``N``) — the number of parallel tasks in the job,
* ``deadline`` (``D``) — the job's deadline,
* ``tau_est`` — the time at which stragglers are detected (Speculative
  strategies only),
* ``tau_kill`` — the time at which all but the best attempt are killed,
* ``phi_est`` — the average progress fraction of an original attempt at
  ``tau_est`` (Speculative-Resume only).

:class:`StragglerModel` bundles these parameters, validates them, and
derives convenience quantities used throughout the analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from repro.distributions import ParetoDistribution


class StrategyName(str, enum.Enum):
    """Names of the scheduling strategies analysed by the paper.

    The three Chronos strategies have closed-form PoCD/cost; the baselines
    (Hadoop-NS, Hadoop-S, Mantri) are only evaluated through simulation.
    """

    CLONE = "clone"
    SPECULATIVE_RESTART = "s-restart"
    SPECULATIVE_RESUME = "s-resume"
    HADOOP_NO_SPECULATION = "hadoop-ns"
    HADOOP_SPECULATION = "hadoop-s"
    MANTRI = "mantri"

    @property
    def is_chronos(self) -> bool:
        """Whether the strategy is one of the three analysed by Chronos."""
        return self in _CHRONOS_STRATEGIES

    @property
    def display_name(self) -> str:
        """Human-readable name used in reports and experiment tables."""
        return _DISPLAY_NAMES[self]

    @classmethod
    def chronos_strategies(cls) -> tuple["StrategyName", ...]:
        """The three strategies with closed-form analysis."""
        return tuple(_CHRONOS_STRATEGIES)

    @classmethod
    def baselines(cls) -> tuple["StrategyName", ...]:
        """The baseline strategies used for comparison in the evaluation."""
        return (cls.HADOOP_NO_SPECULATION, cls.HADOOP_SPECULATION, cls.MANTRI)

    @classmethod
    def parse(cls, name: str) -> "StrategyName":
        """Parse a strategy from a loosely formatted string."""
        normalized = name.strip().lower().replace("_", "-").replace(" ", "-")
        aliases = {
            "clone": cls.CLONE,
            "restart": cls.SPECULATIVE_RESTART,
            "s-restart": cls.SPECULATIVE_RESTART,
            "speculative-restart": cls.SPECULATIVE_RESTART,
            "resume": cls.SPECULATIVE_RESUME,
            "s-resume": cls.SPECULATIVE_RESUME,
            "speculative-resume": cls.SPECULATIVE_RESUME,
            "hadoop-ns": cls.HADOOP_NO_SPECULATION,
            "hadoop-no-speculation": cls.HADOOP_NO_SPECULATION,
            "hns": cls.HADOOP_NO_SPECULATION,
            "hadoop-s": cls.HADOOP_SPECULATION,
            "hadoop-speculation": cls.HADOOP_SPECULATION,
            "hs": cls.HADOOP_SPECULATION,
            "late": cls.HADOOP_SPECULATION,
            "mantri": cls.MANTRI,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown strategy name: {name!r}")
        return aliases[normalized]


_CHRONOS_STRATEGIES = (
    StrategyName.CLONE,
    StrategyName.SPECULATIVE_RESTART,
    StrategyName.SPECULATIVE_RESUME,
)

_DISPLAY_NAMES = {
    StrategyName.CLONE: "Clone",
    StrategyName.SPECULATIVE_RESTART: "S-Restart",
    StrategyName.SPECULATIVE_RESUME: "S-Resume",
    StrategyName.HADOOP_NO_SPECULATION: "Hadoop-NS",
    StrategyName.HADOOP_SPECULATION: "Hadoop-S",
    StrategyName.MANTRI: "Mantri",
}


@dataclass(frozen=True)
class StragglerModel:
    """Parameters of a deadline-critical MapReduce job under the Pareto model.

    Parameters
    ----------
    tmin:
        Minimum attempt execution time (Pareto scale), seconds.
    beta:
        Pareto tail index of attempt execution time.
    num_tasks:
        Number of parallel tasks ``N`` in the job.
    deadline:
        Job deadline ``D`` in seconds, measured from job start.
    tau_est:
        Straggler-detection time for the speculative strategies.  Must
        satisfy ``0 <= tau_est < deadline``.
    tau_kill:
        Time at which all but the best attempt are killed.  Must satisfy
        ``tau_est <= tau_kill``.
    phi_est:
        Average progress fraction of the original attempt at ``tau_est``
        (only used by Speculative-Resume).  If omitted, a model-derived
        default is used: the expected fraction of work completed by
        ``tau_est`` for an attempt that will miss the deadline, which the
        simulator estimates as ``tau_est / E[T | T > D]`` clipped to
        ``[0, 0.95]``.
    """

    tmin: float
    beta: float
    num_tasks: int
    deadline: float
    tau_est: float = 0.0
    tau_kill: float = 0.0
    phi_est: Optional[float] = field(default=None)

    def __post_init__(self) -> None:
        if self.tmin <= 0:
            raise ValueError("tmin must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be a positive integer")
        if self.deadline <= self.tmin:
            raise ValueError(
                "deadline must exceed tmin; a job whose deadline is below the "
                "minimum task time can never complete in time"
            )
        if self.tau_est < 0:
            raise ValueError("tau_est must be non-negative")
        if self.tau_est >= self.deadline:
            raise ValueError("tau_est must be strictly less than the deadline")
        if self.tau_kill < self.tau_est:
            raise ValueError("tau_kill must not precede tau_est")
        if self.phi_est is not None and not 0.0 <= self.phi_est < 1.0:
            raise ValueError("phi_est must lie in [0, 1)")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    # Cached: Algorithm 1 evaluates the net utility at several r per
    # job, and every evaluation reads several of these.  The model is
    # frozen, so each value is computed once per instance
    # (``cached_property`` writes the instance ``__dict__`` directly,
    # which bypasses the frozen ``__setattr__``); equality and hashing
    # stay field-based.
    @cached_property
    def attempt_distribution(self) -> ParetoDistribution:
        """Pareto distribution of a single attempt's execution time."""
        return ParetoDistribution(self.tmin, self.beta)

    @cached_property
    def mean_task_time(self) -> float:
        """Expected execution time of a single attempt."""
        return self.attempt_distribution.mean()

    @cached_property
    def straggler_probability(self) -> float:
        """``P(T > D) = (tmin / D) ** beta`` for a single attempt."""
        return (self.tmin / self.deadline) ** self.beta

    @cached_property
    def effective_phi_est(self) -> float:
        """The progress fraction used by Speculative-Resume formulas.

        If ``phi_est`` was given explicitly it is used as-is; otherwise a
        deterministic default is derived from the model: the fraction of a
        straggling attempt's (conditional) expected work completed by
        ``tau_est``, clipped to ``[0, 0.95]``.
        """
        if self.phi_est is not None:
            return self.phi_est
        if self.tau_est <= 0:
            return 0.0
        conditional = self.attempt_distribution.conditional_mean_above(self.deadline)
        if not math.isfinite(conditional) or conditional <= 0:
            return 0.0
        return min(0.95, self.tau_est / conditional)

    @cached_property
    def remaining_work_fraction(self) -> float:
        """``1 - phi_est``: fraction of data left for resumed attempts."""
        return 1.0 - self.effective_phi_est

    @property
    def time_after_detection(self) -> float:
        """``D - tau_est``: time left between detection and the deadline."""
        return self.deadline - self.tau_est

    # ------------------------------------------------------------------
    # Convenience constructors / transformers
    # ------------------------------------------------------------------
    def with_deadline(self, deadline: float) -> "StragglerModel":
        """Return a copy with a different deadline."""
        return replace(self, deadline=deadline)

    def with_beta(self, beta: float) -> "StragglerModel":
        """Return a copy with a different Pareto tail index."""
        return replace(self, beta=beta)

    def with_num_tasks(self, num_tasks: int) -> "StragglerModel":
        """Return a copy with a different task count."""
        return replace(self, num_tasks=num_tasks)

    def with_phi_est(self, phi_est: Optional[float]) -> "StragglerModel":
        """Return a copy with an explicit (or cleared) progress fraction."""
        return replace(self, phi_est=phi_est)

    @classmethod
    def from_relative_deadline(
        cls,
        tmin: float,
        beta: float,
        num_tasks: int,
        deadline_factor: float,
        tau_est_factor: float = 0.3,
        tau_kill_factor: float = 0.8,
        phi_est: Optional[float] = None,
    ) -> "StragglerModel":
        """Build a model with the deadline as a multiple of the mean task time.

        The paper's simulations (Figure 4) set ``D = 2 x mean task time`` and
        express ``tau_est`` / ``tau_kill`` as multiples of ``tmin``; this
        constructor mirrors that parameterisation.
        """
        mean_time = ParetoDistribution(tmin, beta).mean()
        if not math.isfinite(mean_time):
            raise ValueError("mean task time is infinite for beta <= 1")
        return cls(
            tmin=tmin,
            beta=beta,
            num_tasks=num_tasks,
            deadline=deadline_factor * mean_time,
            tau_est=tau_est_factor * tmin,
            tau_kill=tau_kill_factor * tmin,
            phi_est=phi_est,
        )
