"""Mantri baseline.

Following the paper's description (Section I): when there is an available
container and no task waiting for one, Mantri keeps launching new
attempts for any task whose estimated remaining execution time exceeds
the average task execution time by more than 30 seconds, up to 3 extra
attempts per task.  It also periodically checks the progress of each
task's attempts and keeps only the attempt with the best progress
running.

Mantri is aggressive: it achieves a high PoCD but at a much larger
machine-time cost than the Chronos strategies, which is the comparison
Figure 3 makes.
"""

from __future__ import annotations

import math
import statistics
from typing import TYPE_CHECKING

from repro.core.model import StrategyName
from repro.simulator.entities import _LIVE_STATES
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster
    from repro.simulator.entities import Task


class MantriStrategy(SpeculationStrategy):
    """Aggressively replicate outlier tasks; keep the best-progress attempt."""

    name = StrategyName.MANTRI

    def on_job_start(self, am: "ApplicationMaster") -> None:
        am.schedule(am.config.speculation_interval, self._periodic_check, am)

    def _periodic_check(self, am: "ApplicationMaster") -> None:
        if am.job.is_complete:
            return
        self._prune_slow_attempts(am)
        self._launch_for_outliers(am)
        am.schedule(am.config.speculation_interval, self._periodic_check, am)

    # ------------------------------------------------------------------
    # Launch rule
    # ------------------------------------------------------------------
    def _launch_for_outliers(self, am: "ApplicationMaster") -> None:
        average = self._average_task_duration(am)
        if average is None:
            return
        for task in am.job.incomplete_tasks():
            remaining = self._estimated_remaining(am, task)
            if remaining <= average + am.config.mantri_threshold:
                continue
            # "keeps launching new attempts ... until the number of extra
            # attempts of the task is larger than 3": top the task back up
            # to the cap of concurrently running extra attempts whenever it
            # still looks like an outlier and the cluster has idle capacity.
            live_extras = sum(
                1 for a in task.attempts if not a.is_original and a.status in _LIVE_STATES
            )
            while live_extras < am.config.mantri_max_extra_attempts:
                if not am.resource_manager.has_idle_capacity():
                    # "if there is an available container and there is no
                    #  task waiting for a container"
                    return
                am.launch_attempt(task, start_offset=0.0, is_original=False)
                live_extras += 1

    def _average_task_duration(self, am: "ApplicationMaster") -> float | None:
        """Average task execution time, preferring observed completions."""
        finished = am.completed_task_durations()
        if finished:
            return statistics.fmean(finished)
        # Before any task finishes, fall back to the job's mean task time
        # (Mantri has historical job profiles at its disposal).
        mean = am.job.spec.attempt_distribution.mean()
        return mean if math.isfinite(mean) else None

    def _estimated_remaining(self, am: "ApplicationMaster", task: "Task") -> float:
        """Most optimistic estimated remaining time across the task's attempts."""
        estimates = []
        for attempt in task.running_attempts:
            estimate = am.estimate_completion(attempt)
            if math.isfinite(estimate):
                estimates.append(max(0.0, estimate - am.now))
        if not estimates:
            # Nothing running (e.g. still waiting for containers): treat the
            # time since job start as a lower bound on remaining work.
            return math.inf
        return min(estimates)

    # ------------------------------------------------------------------
    # Prune rule
    # ------------------------------------------------------------------
    def _prune_slow_attempts(self, am: "ApplicationMaster") -> None:
        """Kill extra attempts that lag behind the best-progress attempt.

        Mantri is conservative about killing the original attempt (killing
        it risks losing all completed work with nothing to show for it), so
        pruning only discards *extra* copies that have fallen behind the
        task's best attempt.  A freshly launched copy is given one full
        check interval to get past JVM startup before it can be judged,
        otherwise Mantri would kill its own speculative attempts right
        after launching them.
        """
        for task in am.job.incomplete_tasks():
            running = task.running_attempts
            if len(running) <= 1:
                continue
            best = max(running, key=lambda a: am.progress(a))
            for attempt in running:
                if attempt is best or attempt.is_original:
                    continue
                age = am.now - (attempt.launch_time or am.now)
                if age < am.config.speculation_interval:
                    continue
                if am.progress(attempt) < am.progress(best):
                    am.kill_attempt(attempt)
