"""Simulator-vs-theorem conformance: Theorems 1-6 against the simulator.

The closed forms in :mod:`repro.core.pocd` (Theorems 1, 3, 5) and
:mod:`repro.core.cost` (Theorems 2, 4, 6) describe an idealized job: no
JVM launch delay, no container grant delay, unbounded capacity and a
fixed number ``r`` of extra attempts.  This module runs the real
discrete-event simulator in that regime (``HadoopConfig.instantaneous()``,
``ClusterConfig(num_nodes=0)``, ``fixed_r``) with ``N`` = 10,
``t_min`` = 10, ``D`` = 40 and 1000 jobs per cell, and checks each cell:

* **PoCD** by a binomial z-score of the simulated deadline-meet rate
  against the theorem, ``|z| <= Z_MAX``.
* **Machine time inside the kill window.**  The window is ``tau_kill``
  for Clone and ``tau_kill - tau_est`` for S-Restart and S-Resume.  When
  it is at most ``t_min``, no attempt can finish before the kill, which
  is what Theorems 2/4/6 assume.  The mean machine time per job must
  then match the theorem within ``COST_RTOL``.
* **Machine time outside it.**  The simulator kills the losers when the
  task finishes, so killed attempts cost less than the theorems charge
  (every one until ``tau_kill``).  The simulated machine time must sit
  below the paper's formula.  Clone's must match the exact
  ``N * (E[W] + r * E[min(W, tau_kill)])`` within ``COST_RTOL``, where
  ``W`` is the fastest of ``r + 1`` attempts.  That exact form lives
  here, as the reference; :mod:`repro.core` keeps the paper's cost.

The r = 0 cells use beta = 2.5.  With beta = 1.5 a single attempt's
runtime has infinite variance, and Clone's mean machine time over 1000
jobs spread by +-6.5% across seeds 0-7.

The tolerances come from the spread over seeds 0-31 (each cell run at
every seed); the test runs seed 0 only.  The largest ``|z|`` was 3.32
(S-Resume and S-Restart outside the window), so ``Z_MAX`` is 4.  The
largest relative cost error inside the window was 2.05% (the beta = 2.5,
r = 0 cells) and 1.61% for r >= 1 (S-Restart, r = 1), and Clone's
distance from the exact form was at most 2.05%, so ``COST_RTOL`` is 3%.
Outside the window the simulated cost read 17-19% (Clone, r = 1),
28% (Clone, r = 2), 4-7% and 12-15% (S-Restart, r = 1, 2) and 9-11% and
17-19% (S-Resume, r = 1, 2) below the paper's formula.
"""

from __future__ import annotations

import math

import pytest

from repro.core.cost import expected_machine_time
from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import pocd
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.simulator.metrics import SimulationReport
from repro.simulator.runner import SimulationRunner
from repro.strategies import StrategyParameters, build_strategy

NUM_TASKS = 10
TMIN = 10.0
DEADLINE = 40.0
JOBS = 1000
SEED = 0
Z_MAX = 4.0
COST_RTOL = 0.03

CLONE = StrategyName.CLONE
RESTART = StrategyName.SPECULATIVE_RESTART
RESUME = StrategyName.SPECULATIVE_RESUME

#: ``(tau_est, tau_kill)`` per strategy; Clone has no detection time.
INSIDE = {CLONE: (0.0, 8.0), RESTART: (4.0, 12.0), RESUME: (4.0, 12.0)}
OUTSIDE = {CLONE: (0.0, 20.0), RESTART: (12.0, 40.0), RESUME: (12.0, 40.0)}


def simulate(strategy: StrategyName, r: int, timing: tuple) -> tuple:
    """``(model, report)`` of one cell: ``JOBS`` identical jobs, seed ``SEED``."""
    tau_est, tau_kill = timing
    beta = 2.5 if r == 0 else 1.5
    jobs = [
        JobSpec(
            job_id=f"job-{i}",
            num_tasks=NUM_TASKS,
            deadline=DEADLINE,
            tmin=TMIN,
            beta=beta,
            submit_time=i * DEADLINE,
        )
        for i in range(JOBS)
    ]
    runner = SimulationRunner(
        cluster=ClusterConfig(num_nodes=0), hadoop=HadoopConfig.instantaneous(), seed=SEED
    )
    params = StrategyParameters(tau_est=tau_est, tau_kill=tau_kill, fixed_r=r)
    report = runner.run(jobs, build_strategy(strategy, params))
    model = StragglerModel(
        tmin=TMIN,
        beta=beta,
        num_tasks=NUM_TASKS,
        deadline=DEADLINE,
        tau_est=tau_est,
        tau_kill=tau_kill,
    )
    return model, report


def assert_pocd_conforms(
    model: StragglerModel, strategy: StrategyName, r: int, report: SimulationReport
) -> None:
    expected = pocd(model, strategy, r)
    z = (report.pocd - expected) / math.sqrt(expected * (1.0 - expected) / report.num_jobs)
    assert abs(z) <= Z_MAX, f"PoCD {report.pocd:.4f} vs theorem {expected:.4f} (z = {z:+.2f})"


def exact_clone_machine_time(model: StragglerModel, r: int) -> float:
    """``N * (E[W] + r * E[min(W, tau_kill)])``, ``W`` the fastest of ``r + 1``.

    ``W`` is Pareto(``t_min``, ``beta * (r + 1)``) (Lemma 1), so for
    ``tau_kill > t_min``, ``E[min(W, tau_kill)] = t_min + integral from
    t_min to tau_kill of (t_min / t) ** b dt``; below ``t_min`` it is
    ``tau_kill``.
    """
    b = model.beta * (r + 1)
    tmin, tau_kill = model.tmin, model.tau_kill
    truncated = (
        tau_kill
        if tau_kill <= tmin
        else tmin + tmin**b * (tau_kill ** (1.0 - b) - tmin ** (1.0 - b)) / (1.0 - b)
    )
    winner = model.attempt_distribution.expected_min_of(r + 1)
    return model.num_tasks * (winner + r * truncated)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("strategy", [CLONE, RESTART, RESUME], ids=lambda s: s.value)
def test_inside_the_kill_window(strategy, r):
    model, report = simulate(strategy, r, INSIDE[strategy])
    assert_pocd_conforms(model, strategy, r, report)
    theorem = expected_machine_time(model, strategy, r)
    assert report.mean_machine_time == pytest.approx(theorem, rel=COST_RTOL)
    if strategy is CLONE:
        # Inside the window the exact form and the paper's are one.
        assert exact_clone_machine_time(model, r) == pytest.approx(theorem, rel=1e-12)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("strategy", [CLONE, RESTART, RESUME], ids=lambda s: s.value)
def test_outside_the_kill_window(strategy, r):
    model, report = simulate(strategy, r, OUTSIDE[strategy])
    assert_pocd_conforms(model, strategy, r, report)
    assert report.mean_machine_time < expected_machine_time(model, strategy, r)
    if strategy is CLONE:
        exact = exact_clone_machine_time(model, r)
        assert report.mean_machine_time == pytest.approx(exact, rel=COST_RTOL)
