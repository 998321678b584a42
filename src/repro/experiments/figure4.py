"""Figure 4: sweeping the Pareto tail index ``beta``.

Trace-driven simulation comparing Hadoop-NS, Hadoop-S, Clone, S-Restart
and S-Resume while forcing every job's tail index to a common ``beta`` in
``1.1 ... 1.9`` and setting each job's deadline to twice its mean task
execution time.

Expected shape: a smaller beta means a heavier tail, so every strategy's
cost is higher at small beta and decreases with beta; the optimal ``r``
also decreases with beta; the Chronos strategies dominate the baselines
in utility across the whole range.
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

#: beta sweep (paper's Figure 4 x-axis).
BETA_VALUES = (1.1, 1.3, 1.5, 1.7, 1.9)

#: Strategies compared in Figure 4.
FIGURE4_STRATEGIES = (
    StrategyName.HADOOP_NO_SPECULATION,
    StrategyName.HADOOP_SPECULATION,
    StrategyName.CLONE,
    StrategyName.SPECULATIVE_RESTART,
    StrategyName.SPECULATIVE_RESUME,
)

THETA = 1e-4
TAU_EST_FACTOR = 0.3
TAU_KILL_FACTOR = 0.8


def run_figure4(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    beta_values: Sequence[float] = BETA_VALUES,
    **options: Any,
) -> Dict[str, ExperimentTable]:
    """Reproduce Figure 4(a)-(c).

    Returns tables keyed by ``"pocd"``, ``"cost"`` and ``"utility"``; one
    row per beta, one column per strategy.  All rows run as one sweep;
    ``options`` are its sweep options (see :func:`repro.api.run_specs`).
    """
    rows = {}
    for beta in beta_values:
        workload = trace_workload(scale, beta_override=beta)
        rows[f"beta={beta:.1f}"] = [
            trace_scenario(workload, name, TAU_EST_FACTOR, TAU_KILL_FACTOR, THETA, seed)
            for name in FIGURE4_STRATEGIES
        ]
    return strategy_tables(
        "figure4",
        ("PoCD vs beta", "Cost vs beta", "Utility vs beta"),
        rows,
        notes=(
            "deadline = 2 x mean task time per job (deadline_factor=2 in the trace config), "
            f"theta={THETA}"
        ),
        **options,
    )
