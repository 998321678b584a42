"""Figure 5: histogram of the optimal number of extra attempts ``r``.

For every job in the trace, run the joint PoCD/cost optimization
(Algorithm 1) for the Clone and S-Resume strategies at two tradeoff
factors (``theta = 1e-5`` and ``theta = 1e-4``) and histogram the optimal
``r`` values.

Expected shape: increasing theta shifts the histogram toward smaller
``r`` for both strategies; S-Resume's optimal ``r`` values are larger
than Clone's at the same theta (its extra attempts are cheap because they
only run in the speculation window and only for detected stragglers).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.api.registry import build_jobs
from repro.core.model import StrategyName
from repro.core.optimizer import ChronosOptimizer
from repro.experiments.common import ExperimentScale, ExperimentTable, trace_workload

#: Tradeoff factors shown in the paper's histogram.
THETA_VALUES = (1e-5, 1e-4)
#: Strategies shown in the paper's histogram.
FIGURE5_STRATEGIES = (StrategyName.CLONE, StrategyName.SPECULATIVE_RESUME)
#: Timing (multiples of tmin) used when building the per-job model.
TAU_EST_FACTOR = 0.3
TAU_KILL_FACTOR = 0.8
#: Histogram support reported in the paper.
R_BINS = tuple(range(0, 7))


def run_figure5(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    theta_values: Sequence[float] = THETA_VALUES,
    **options: Any,
) -> ExperimentTable:
    """Reproduce Figure 5: frequency of each optimal ``r`` value.

    Returns a table with one row per (strategy, theta) pair and one column
    per ``r`` bin (``r=0`` ... ``r=6+``).  The sweep ``options`` are
    accepted for CLI uniformity with the simulation harnesses and
    ignored: this experiment only runs the closed-form optimizer, which
    is cheap enough to stay inline.
    """
    del options
    workload = trace_workload(scale)
    trace = build_jobs(workload.kind, workload.params, seed)
    columns = [f"r={r}" for r in R_BINS] + ["r>=7"]
    table = ExperimentTable("figure5", "Histogram of the optimal r", columns)

    for strategy in FIGURE5_STRATEGIES:
        for theta in theta_values:
            histogram: Dict[str, int] = {column: 0 for column in columns}
            for spec in trace:
                tau_est = TAU_EST_FACTOR * spec.tmin
                tau_kill = TAU_KILL_FACTOR * spec.tmin
                model = spec.to_straggler_model(tau_est, tau_kill)
                optimizer = ChronosOptimizer(model, theta=theta, unit_price=spec.unit_price)
                result = optimizer.optimize(strategy)
                if result.r_opt in R_BINS:
                    histogram[f"r={result.r_opt}"] += 1
                else:
                    histogram["r>=7"] += 1
            table.add_row(f"{strategy.display_name} theta={theta:g}", histogram)
    table.notes = f"{len(trace)} trace jobs, per-job Algorithm-1 optimization"
    return table
