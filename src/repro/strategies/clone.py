"""Clone strategy: proactive replication of every task.

At job submission the optimal ``r`` is obtained from the joint PoCD/cost
optimization for the Clone PoCD/cost expressions (Theorems 1 and 2).  Every
task then launches ``r + 1`` attempts at time zero.  At ``tau_kill`` the
attempt with the best progress score is kept and the other ``r`` attempts
are killed to stop paying for them (Figure 1(a) of the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.model import StrategyName
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Task


class CloneStrategy(SpeculationStrategy):
    """Launch ``r + 1`` clones per task; prune to the best at ``tau_kill``."""

    name = StrategyName.CLONE

    def plan_job(self, am: "ApplicationMaster") -> int:
        return self.optimized_r(am, StrategyName.CLONE)

    def initial_attempt_count(self, am: "ApplicationMaster", task: "Task") -> int:
        return am.job.extra_attempts + 1

    def on_job_start(self, am: "ApplicationMaster") -> None:
        if am.job.extra_attempts <= 0:
            # A single attempt per task: nothing to prune.
            return
        _, tau_kill = self.clipped_timing(am)
        am.schedule(tau_kill, self._prune_clones, am)

    def _prune_clones(self, am: "ApplicationMaster") -> None:
        """Keep the best-progress attempt of every unfinished task."""
        for task in am.job.incomplete_tasks():
            if task.live > 1:
                am.keep_best_attempt(task, by="progress")
