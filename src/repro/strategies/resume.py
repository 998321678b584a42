"""Speculative-Resume strategy: work-preserving speculation.

Straggler detection is identical to Speculative-Restart, but instead of
keeping the straggler running, the straggler is killed and ``r + 1`` new
attempts are launched that *resume* processing from the straggler's byte
offset (plus the bytes the straggler would have processed during the new
attempts' JVM launch, the paper's anticipated-offset mechanism).  At
``tau_kill`` only the attempt with the smallest estimated completion time
survives (Figure 1(c) of the paper).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.model import StrategyName
from repro.simulator.progress import predict_resume_offset
from repro.simulator.entities import _LIVE_STATES
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Attempt, Task


class SpeculativeResumeStrategy(SpeculationStrategy):
    """Kill detected stragglers and resume ``r + 1`` copies from their offset."""

    name = StrategyName.SPECULATIVE_RESUME

    def plan_job(self, am: "ApplicationMaster") -> int:
        return self.optimized_r(am, StrategyName.SPECULATIVE_RESUME)

    def on_job_start(self, am: "ApplicationMaster") -> None:
        tau_est, tau_kill = self.clipped_timing(am)
        am.schedule(tau_est, self._detect_and_resume, am)
        am.schedule(tau_kill, self._prune_attempts, am)

    # ------------------------------------------------------------------
    # tau_est: straggler detection + work-preserving restart
    # ------------------------------------------------------------------
    def _detect_and_resume(self, am: "ApplicationMaster") -> None:
        deadline = am.absolute_deadline
        for task in am.job.incomplete_tasks():
            straggler = self._straggling_attempt(am, task, deadline)
            if straggler is None:
                continue
            offset = self._resume_offset(am, straggler)
            # Kill the straggler first so its container is free for the
            # resumed attempts, then launch r + 1 work-preserving copies.
            am.kill_attempt(straggler)
            for _ in range(am.job.extra_attempts + 1):
                am.launch_attempt(task, start_offset=offset, is_original=False)

    def _straggling_attempt(
        self, am: "ApplicationMaster", task: "Task", deadline: float
    ) -> "Attempt | None":
        """The task's live attempt if it is predicted to miss the deadline.

        With no finite estimate, that is the first live attempt.
        """
        best_estimate = math.inf
        best_attempt = first_live = None
        for attempt in task.attempts:
            if attempt.status not in _LIVE_STATES:
                continue
            if first_live is None:
                first_live = attempt
            estimate = am.estimate_completion(attempt)
            if estimate < best_estimate:
                best_estimate, best_attempt = estimate, attempt
        if best_attempt is None:
            return first_live
        return best_attempt if best_estimate > deadline else None

    def _resume_offset(self, am: "ApplicationMaster", straggler: "Attempt") -> float:
        """Byte offset (as a progress fraction) for the resumed attempts."""
        jvm_estimate = am.config.jvm_startup_mean
        return predict_resume_offset(straggler, am.now, jvm_estimate)

    # ------------------------------------------------------------------
    # tau_kill: prune to the best attempt
    # ------------------------------------------------------------------
    def _prune_attempts(self, am: "ApplicationMaster") -> None:
        for task in am.job.incomplete_tasks():
            if task.live > 1:
                am.keep_best_attempt(task, by="estimate")
