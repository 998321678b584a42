"""Benchmark regenerating Figure 3(a)-(c): sweep of the tradeoff factor theta."""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.figure3 import THETA_VALUES, run_figure3


def test_figure3_theta_sweep(benchmark, experiment_scale):
    tables = run_once(benchmark, run_figure3, scale=experiment_scale, seed=0)
    attach_tables(benchmark, tables)

    cost = tables["cost"]
    utility = tables["utility"]
    theta_lo = f"theta={THETA_VALUES[0]:g}"
    theta_hi = f"theta={THETA_VALUES[-1]:g}"

    # Figure 3(b): the Chronos strategies' costs fall as theta grows (the
    # optimizer launches fewer attempts); Mantri ignores theta.
    for name in ("Clone", "S-Restart", "S-Resume"):
        assert cost.row(theta_hi).values[name] <= cost.row(theta_lo).values[name] * 1.02
    mantri_costs = [row.values["Mantri"] for row in cost.rows]
    assert max(mantri_costs) - min(mantri_costs) <= 0.05 * max(mantri_costs) + 1e-9

    # Figure 3(c): S-Resume's utility beats Mantri's at the cost-sensitive end.
    assert utility.row(theta_hi).values["S-Resume"] >= utility.row(theta_hi).values["Mantri"]
    # Utilities decrease as theta grows for every strategy.
    for name in ("Mantri", "Clone", "S-Restart", "S-Resume"):
        assert utility.row(theta_hi).values[name] <= utility.row(theta_lo).values[name]
