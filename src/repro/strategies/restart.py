"""Speculative-Restart strategy: reactive speculation from byte zero.

Each task starts with a single attempt.  At ``tau_est`` the AM estimates
every running attempt's completion time using the Chronos JVM-aware
estimator; if the estimate exceeds the job deadline, ``r`` extra attempts
are launched that reprocess the split from the beginning (the original
attempt keeps running).  At ``tau_kill`` only the attempt with the
smallest estimated completion time is kept (Figure 1(b) of the paper).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.model import StrategyName
from repro.simulator.entities import _LIVE_STATES
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Task


class SpeculativeRestartStrategy(SpeculationStrategy):
    """Detect stragglers at ``tau_est``; restart ``r`` copies from scratch."""

    name = StrategyName.SPECULATIVE_RESTART

    def plan_job(self, am: "ApplicationMaster") -> int:
        return self.optimized_r(am, StrategyName.SPECULATIVE_RESTART)

    def on_job_start(self, am: "ApplicationMaster") -> None:
        tau_est, tau_kill = self.clipped_timing(am)
        am.schedule(tau_est, self._detect_stragglers, am)
        am.schedule(tau_kill, self._prune_attempts, am)

    # ------------------------------------------------------------------
    # tau_est: straggler detection
    # ------------------------------------------------------------------
    def _detect_stragglers(self, am: "ApplicationMaster") -> None:
        if am.job.extra_attempts <= 0:
            return
        deadline = am.absolute_deadline
        for task in am.job.incomplete_tasks():
            estimate = self._estimated_task_completion(am, task)
            if estimate > deadline:
                for _ in range(am.job.extra_attempts):
                    am.launch_attempt(task, start_offset=0.0, is_original=False)

    def _estimated_task_completion(self, am: "ApplicationMaster", task: "Task") -> float:
        """Estimated completion of the task's running attempts.

        Attempts still waiting for a container (queued) are treated as
        stragglers: they cannot be estimated and have made no progress by
        ``tau_est``, so speculation is warranted.
        """
        best = math.inf
        for attempt in task.attempts:
            if attempt.status in _LIVE_STATES:
                estimate = am.estimate_completion(attempt)
                if estimate < best:
                    best = estimate
        return best

    # ------------------------------------------------------------------
    # tau_kill: prune to the best attempt
    # ------------------------------------------------------------------
    def _prune_attempts(self, am: "ApplicationMaster") -> None:
        for task in am.job.incomplete_tasks():
            if task.live > 1:
                am.keep_best_attempt(task, by="estimate")
