"""Strategy interface and shared machinery.

A strategy is a small object plugged into the Application Master.  It is
consulted at three points:

* job submission (``plan_job``) — to choose the number of extra attempts
  ``r``, which the Chronos strategies obtain from the joint PoCD/cost
  optimizer (Algorithm 1) and the baselines fix at 0 / policy defaults,
* job start (``initial_attempt_count`` / ``on_job_start``) — to launch
  clones and/or schedule the ``tau_est`` / ``tau_kill`` / periodic checks,
* task completion (``on_task_complete``) — used by baselines that key
  their behaviour off finished tasks.

:class:`StrategyParameters` carries the knobs shared by all strategies
(timing, tradeoff factor, SLA floor).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from repro.core.model import StragglerModel, StrategyName
from repro.core.optimizer import ChronosOptimizer

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Attempt, Task
    from repro.telemetry import Profiler


@dataclass(frozen=True)
class StrategyParameters:
    """Knobs shared by every strategy.

    Parameters
    ----------
    tau_est:
        Straggler-detection time (seconds after job start).  Ignored by
        Clone and by the baselines.
    tau_kill:
        Attempt-pruning time (seconds after job start).  Ignored by the
        baselines.
    theta:
        PoCD/cost tradeoff factor of the joint optimization.
    unit_price:
        Price per unit VM time used in the optimization (the metric
        collector separately prices jobs with their own spot price).
    r_min_pocd:
        Minimum PoCD (``Rmin``) treated as a hard constraint.
    fixed_r:
        If given, skip the optimizer and always use this many extra
        attempts (useful for ablations and for unit tests).
    phi_est:
        Optional explicit progress fraction used by the S-Resume analysis;
        by default it is derived from the model.
    timing_relative_to_tmin:
        When true, ``tau_est`` and ``tau_kill`` are interpreted as
        multiples of each job's ``tmin`` rather than absolute seconds.
        The trace-driven experiments (Tables I and II) express the timing
        this way because jobs in the trace have widely different scales.
    """

    tau_est: float = 40.0
    tau_kill: float = 80.0
    theta: float = 1e-4
    unit_price: float = 1.0
    r_min_pocd: float = 0.0
    fixed_r: Optional[int] = None
    phi_est: Optional[float] = None
    timing_relative_to_tmin: bool = False

    def __post_init__(self) -> None:
        if self.tau_est < 0 or self.tau_kill < 0:
            raise ValueError("tau_est and tau_kill must be non-negative")
        if self.tau_kill < self.tau_est:
            raise ValueError("tau_kill must not precede tau_est")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.unit_price < 0:
            raise ValueError("unit_price must be non-negative")
        if not 0.0 <= self.r_min_pocd < 1.0:
            raise ValueError("r_min_pocd must lie in [0, 1)")
        if self.fixed_r is not None and self.fixed_r < 0:
            raise ValueError("fixed_r must be non-negative")


class SpeculationStrategy(abc.ABC):
    """Base class for all speculation strategies."""

    #: The canonical name of the strategy (set by subclasses).
    name: StrategyName

    def __init__(self, params: Optional[StrategyParameters] = None):
        self.params = params if params is not None else StrategyParameters()

    # ------------------------------------------------------------------
    # Interface consumed by the Application Master
    # ------------------------------------------------------------------
    def plan_job(self, am: "ApplicationMaster") -> int:
        """Number of extra attempts ``r`` for this job (0 by default)."""
        return 0

    def initial_attempt_count(self, am: "ApplicationMaster", task: "Task") -> int:
        """Attempts to launch per task at job start (1 by default)."""
        return 1

    @abc.abstractmethod
    def on_job_start(self, am: "ApplicationMaster") -> None:
        """Schedule the strategy's checks for this job."""

    def on_task_complete(
        self, am: "ApplicationMaster", task: "Task", attempt: "Attempt"
    ) -> None:
        """Hook invoked when a task finishes (no-op by default)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def clipped_timing(self, am: "ApplicationMaster") -> tuple:
        """``(tau_est, tau_kill)`` clipped to be meaningful for this job.

        ``tau_est`` must precede the deadline for straggler detection to be
        useful; if a job's deadline is shorter than the configured timing,
        scale both values down proportionally.  When the parameters are
        expressed relative to ``tmin``, they are first scaled by the job's
        ``tmin``.
        """
        deadline = am.job.spec.deadline
        tau_est, tau_kill = self.params.tau_est, self.params.tau_kill
        if self.params.timing_relative_to_tmin:
            tau_est *= am.job.spec.tmin
            tau_kill *= am.job.spec.tmin
        if tau_est >= deadline:
            scale = 0.4 * deadline / tau_est if tau_est > 0 else 0.0
            tau_est *= scale
            tau_kill *= scale
        return tau_est, tau_kill

    def optimized_r(self, am: "ApplicationMaster", strategy: StrategyName) -> int:
        """Run the joint PoCD/cost optimization for this job.

        Honours ``fixed_r`` when set (ablations / tests), and never lets an
        optimizer failure crash the AM: degenerate jobs fall back to
        ``r = 1``.  A cache miss is timed as the ``optimize`` phase of the
        AM's profiler, when it has one.
        """
        if self.params.fixed_r is not None:
            return self.params.fixed_r
        tau_est, tau_kill = self.clipped_timing(am)
        spec = am.job.spec
        try:
            model = spec.to_straggler_model(tau_est, tau_kill, self.params.phi_est)
            return _optimized_r(
                am.profiler,
                model,
                strategy,
                self.params.theta,
                self.params.unit_price,
                self.params.r_min_pocd,
            )
        except (ValueError, ArithmeticError):
            return 1


@lru_cache(maxsize=4096)
def _optimized_r_cached(
    model: StragglerModel,
    strategy: StrategyName,
    theta: float,
    unit_price: float,
    r_min_pocd: float,
) -> int:
    """Memoized Algorithm-1 result for one (model, strategy, params) key.

    The optimization is a pure function of the frozen model and the
    utility parameters, so jobs that share a spec family (replica seeds,
    identical cluster arrivals) pay for Algorithm 1 exactly once per
    process instead of once per job.  Only the integer ``r_opt`` is
    cached — :class:`~repro.core.optimizer.OptimizationResult` carries a
    mutable dict, which must not be shared between callers.
    """
    optimizer = ChronosOptimizer(
        model, theta=theta, unit_price=unit_price, r_min_pocd=r_min_pocd
    )
    return optimizer.optimize(strategy).r_opt


def _optimized_r(profiler: Optional["Profiler"], *key) -> int:
    """:func:`_optimized_r_cached` of ``key``, a miss timed into ``profiler``.

    The profiler stays out of the cache key: runs with and without one
    share the cached answers.
    """
    if profiler is None:
        return _optimized_r_cached(*key)
    misses = _optimized_r_cached.cache_info().misses
    started = perf_counter()
    try:
        return _optimized_r_cached(*key)
    finally:
        if _optimized_r_cached.cache_info().misses != misses:
            profiler.record("optimize", perf_counter() - started)
