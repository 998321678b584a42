"""Benchmark regenerating Figure 4(a)-(c): sweep of the Pareto tail index beta."""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.figure4 import BETA_VALUES, run_figure4


def test_figure4_beta_sweep(benchmark, experiment_scale):
    tables = run_once(benchmark, run_figure4, scale=experiment_scale, seed=0)
    attach_tables(benchmark, tables)

    pocd = tables["pocd"]
    cost = tables["cost"]
    utility = tables["utility"]
    beta_lo = f"beta={BETA_VALUES[0]:.1f}"
    beta_hi = f"beta={BETA_VALUES[-1]:.1f}"

    # Figure 4(b): heavier tails (small beta) are more expensive for every
    # strategy; cost decreases as beta grows.
    for name in ("Hadoop-NS", "Hadoop-S", "Clone", "S-Restart", "S-Resume"):
        assert cost.row(beta_hi).values[name] <= cost.row(beta_lo).values[name]

    # Figure 4(a): Hadoop-NS never beats the speculative strategies.
    for row in pocd.rows:
        assert row.values["S-Resume"] >= row.values["Hadoop-NS"] - 1e-9

    # Figure 4(c): the Chronos strategies match or beat Hadoop-S in utility
    # across the beta range (small tolerance absorbs sampling noise at the
    # reduced benchmark scale).
    for row in utility.rows:
        assert (
            max(row.values["S-Resume"], row.values["S-Restart"])
            >= row.values["Hadoop-S"] - 0.05
        )
