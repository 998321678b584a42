"""Hadoop-S baseline: default Hadoop speculation (LATE-style).

The behaviour follows the paper's description of Hadoop's speculation
mode:

* speculative attempts may only be launched after at least one task of
  the same job has finished,
* periodically, Hadoop compares each running task's estimated completion
  time (using the *default* estimator, i.e. without the JVM-launch
  correction) with the average completion time of finished tasks,
* one extra attempt is launched for the task with the largest positive
  difference, capped at one speculative copy per task.

Deadlines are never consulted — which is exactly why Hadoop-S wastes
attempts on tasks that would have met their deadline anyway and misses
stragglers when task durations are uniform.
"""

from __future__ import annotations

import math
import statistics
from typing import TYPE_CHECKING, Optional

from repro.core.model import StrategyName
from repro.simulator.progress import hadoop_estimate_completion
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Task


class HadoopSpeculationStrategy(SpeculationStrategy):
    """Default Hadoop speculation: one copy for the slowest-looking task."""

    name = StrategyName.HADOOP_SPECULATION

    def on_job_start(self, am: "ApplicationMaster") -> None:
        am.schedule(am.config.speculation_interval, self._periodic_check, am)

    def _periodic_check(self, am: "ApplicationMaster") -> None:
        if am.job.is_complete:
            return
        self._maybe_speculate(am)
        am.schedule(am.config.speculation_interval, self._periodic_check, am)

    # ------------------------------------------------------------------
    # Speculation rule
    # ------------------------------------------------------------------
    def _maybe_speculate(self, am: "ApplicationMaster") -> None:
        finished_durations = am.completed_task_durations()
        if not finished_durations:
            # Hadoop only speculates after at least one task has finished.
            return
        average_duration = statistics.fmean(finished_durations)
        job_start = am.job.start_time or 0.0
        average_completion = job_start + average_duration

        candidate = self._slowest_task(am, average_completion)
        if candidate is not None:
            am.launch_attempt(candidate, start_offset=0.0, is_original=False)

    def _slowest_task(
        self, am: "ApplicationMaster", average_completion: float
    ) -> Optional["Task"]:
        """Running task with the largest estimated-lateness, if any."""
        best_task = None
        best_gap = 0.0
        for task in am.job.incomplete_tasks():
            if am.speculative_attempt_count(task) >= am.config.hadoop_s_max_speculative_per_task:
                continue
            running = task.running_attempts
            if not running:
                continue
            estimates = [hadoop_estimate_completion(a, am.now) for a in running]
            finite = [e for e in estimates if math.isfinite(e)]
            if not finite:
                continue
            gap = min(finite) - average_completion
            if gap > best_gap:
                best_gap, best_task = gap, task
        return best_task
