"""Figure 3: sweeping the PoCD/cost tradeoff factor ``theta``.

Trace-driven simulation comparing Mantri, Clone, S-Restart and S-Resume
for ``theta`` in ``{1e-6, 1e-5, 1e-4, 1e-3}``:

* Figure 3(a): PoCD vs theta — as theta grows the optimizer launches
  fewer clone/speculative attempts, so PoCD decreases (Clone's drops the
  most because its attempts are the most expensive); Mantri ignores theta
  and stays flat and high,
* Figure 3(b): cost vs theta — the Chronos strategies' costs fall with
  theta; Mantri's stays the highest,
* Figure 3(c): utility vs theta — S-Resume is best; Mantri degrades the
  fastest because of its cost.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.core.model import StrategyName
from repro.experiments.common import (
    ExperimentScale,
    ExperimentTable,
    strategy_tables,
    trace_scenario,
    trace_workload,
)
from repro.hadoop.config import HadoopConfig

#: theta sweep (paper's Figure 3 x-axis).
THETA_VALUES = (1e-6, 1e-5, 1e-4, 1e-3)

#: Strategies compared in Figure 3.
FIGURE3_STRATEGIES = (
    StrategyName.MANTRI,
    StrategyName.CLONE,
    StrategyName.SPECULATIVE_RESTART,
    StrategyName.SPECULATIVE_RESUME,
)

#: Timing used for the Chronos strategies (multiples of tmin, as in the
#: best rows of Tables I and II).
TAU_EST_FACTOR = 0.3
TAU_KILL_FACTOR = 0.8


def run_figure3(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    theta_values: Sequence[float] = THETA_VALUES,
    **options: Any,
) -> Dict[str, ExperimentTable]:
    """Reproduce Figure 3(a)-(c).

    Returns tables keyed by ``"pocd"``, ``"cost"`` and ``"utility"``; each
    has one row per theta value and one column per strategy.  All rows
    run as one sweep; ``options`` are its sweep options (see
    :func:`repro.api.run_specs`).
    """
    workload = trace_workload(scale)
    # The paper's Mantri threshold (30 s) is calibrated to Google-trace task
    # durations of several hundred seconds; the synthetic trace uses much
    # shorter tasks, so the threshold is scaled down proportionally to keep
    # Mantri's aggressiveness comparable.
    hadoop = HadoopConfig(mantri_threshold=10.0)
    rows = {
        f"theta={theta:g}": [
            trace_scenario(workload, name, TAU_EST_FACTOR, TAU_KILL_FACTOR, theta, seed, hadoop)
            for name in FIGURE3_STRATEGIES
        ]
        for theta in theta_values
    }
    return strategy_tables(
        "figure3",
        ("PoCD vs theta", "Cost vs theta", "Utility vs theta"),
        rows,
        notes=f"{workload.params['num_jobs']} trace jobs, tau_est=0.3 tmin, tau_kill=0.8 tmin",
        **options,
    )
