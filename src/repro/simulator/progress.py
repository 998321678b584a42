"""Progress scores and completion-time estimation.

Two estimators are provided, mirroring Section VI of the paper:

* :func:`hadoop_estimate_completion` — the default Hadoop estimator:
  estimated execution time is (elapsed time since launch) / (progress
  score); it implicitly assumes the task started processing the moment it
  was launched, which overestimates badly when JVM startup is slow.

* :func:`chronos_estimate_completion` — the paper's improved estimator
  (eq. 30): it measures the JVM launch overhead as the gap between the
  launch time and the first progress report, and extrapolates only the
  data-processing phase::

      t_ect = t_lau + (t_FP - t_lau) + (t_now - t_FP) / (CP - FP)

  where ``FP``/``CP`` are the first and current reported progress values.

Both estimators operate on *observable* quantities only (launch time,
report times, progress scores); they never peek at the attempt's sampled
ground-truth duration, so estimation error behaves as it would on a real
cluster.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.simulator.entities import Attempt

# An estimator maps (attempt, now) to an estimated absolute completion time.
CompletionTimeEstimator = Callable[[Attempt, float], float]


def observed_progress(attempt: Attempt, now: float) -> float:
    """Progress score visible to the scheduler at time ``now``.

    Before the first progress report (i.e. during JVM launch) the scheduler
    sees the attempt's starting offset, exactly like real Hadoop reports 0
    progress until the task begins processing its split.
    """
    first_report = attempt.first_progress_time
    if attempt.launch_time is None or first_report is None or now < first_report:
        return attempt.start_offset
    return attempt.progress(now)


def hadoop_estimate_completion(attempt: Attempt, now: float) -> float:
    """Default Hadoop estimator (no JVM-launch correction).

    ``estimated execution time = elapsed / progress``; the estimated
    completion is launch time plus that execution time.  Returns ``inf``
    when no progress has been observed yet.
    """
    if attempt.launch_time is None:
        return math.inf
    elapsed = now - attempt.launch_time
    if elapsed <= 0:
        return math.inf
    progress = observed_progress(attempt, now)
    gained = progress - attempt.start_offset
    if gained <= 0:
        return math.inf
    total_work = attempt.work_fraction
    estimated_execution = elapsed * total_work / gained
    return attempt.launch_time + estimated_execution


def chronos_estimate_completion(attempt: Attempt, now: float) -> float:
    """Chronos estimator with JVM launch-time correction (paper eq. 30).

    The JVM launch overhead is ``t_FP - t_lau``; the remaining work is
    extrapolated from the progress accumulated since the first report.
    Returns ``inf`` when no post-launch progress has been observed yet.
    """
    launch_time = attempt.launch_time
    first_report = attempt.first_progress_time
    # ``first_progress_time`` is set together with ``launch_time``, so
    # past this test the attempt has reported: its observed progress is
    # its progress score.
    if launch_time is None or first_report is None or now <= first_report:
        return math.inf
    first_progress = attempt.start_offset
    gained = attempt.progress(now) - first_progress
    if gained <= 0:
        return math.inf
    processing_elapsed = now - first_report
    processing_total = processing_elapsed * (1.0 - first_progress) / gained
    jvm_overhead = first_report - launch_time
    return launch_time + jvm_overhead + processing_total


def estimate_remaining_time(
    attempt: Attempt, now: float, estimator: CompletionTimeEstimator
) -> float:
    """Estimated remaining execution time of an attempt (``inf`` if unknown)."""
    estimate = estimator(attempt, now)
    if not math.isfinite(estimate):
        return math.inf
    return max(0.0, estimate - now)


def estimate_bytes_progress(
    attempt: Attempt, now: float, split_bytes: float
) -> Optional[float]:
    """Bytes of the split processed so far, given the split size.

    Used by Speculative-Resume to compute the byte offset passed to the
    resumed attempts (the paper's ``b_est``).
    """
    if split_bytes <= 0:
        raise ValueError("split_bytes must be positive")
    progress = observed_progress(attempt, now)
    return progress * split_bytes


def predict_resume_offset(
    attempt: Attempt, now: float, jvm_launch_estimate: float
) -> float:
    """Predict the progress fraction from which resumed attempts should start.

    Implements the paper's anticipated-offset mechanism: the resumed
    attempts will themselves need ``jvm_launch_estimate`` seconds to start
    processing, during which the original attempt (still running until the
    new attempts take over) continues to make progress.  The predicted
    extra progress is extrapolated from the observed processing rate
    (paper eq. 31), and the new offset is ``current + extra`` clipped to
    stay a valid fraction.
    """
    current = observed_progress(attempt, now)
    first_report = attempt.first_progress_time
    if (
        attempt.launch_time is None
        or first_report is None
        or now <= first_report
        or jvm_launch_estimate <= 0
    ):
        return min(current, 0.999)
    gained = current - attempt.start_offset
    processing_elapsed = now - first_report
    if gained <= 0 or processing_elapsed <= 0:
        return min(current, 0.999)
    rate = gained / processing_elapsed
    predicted = current + rate * jvm_launch_estimate
    return float(min(max(predicted, 0.0), 0.999))
