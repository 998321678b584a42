"""Benchmark regenerating Figure 2(a)-(c): testbed benchmark comparison.

Reproduced shape (see EXPERIMENTS.md): Hadoop-NS has the lowest PoCD and a
high cost; Clone has the highest cost among the Chronos strategies;
S-Resume achieves the best net utility on every benchmark.
"""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.figure2 import run_figure2


def test_figure2_benchmark_comparison(benchmark, experiment_scale):
    tables = run_once(benchmark, run_figure2, scale=experiment_scale, seed=0)
    attach_tables(benchmark, tables)

    pocd = tables["pocd"]
    cost = tables["cost"]
    utility = tables["utility"]
    for row in pocd.rows:
        # Figure 2(a): Hadoop-NS is the weakest, the Chronos speculative
        # strategies at least match default Hadoop speculation.
        assert row.values["Hadoop-NS"] <= min(row.values.values()) + 1e-9
        assert row.values["S-Resume"] >= row.values["Hadoop-S"] - 0.05
    for row in cost.rows:
        # Figure 2(b): Clone is the costliest Chronos strategy.
        assert row.values["Clone"] >= row.values["S-Resume"]
    for row in utility.rows:
        # Figure 2(c): a Chronos strategy attains the best utility.
        best = max(row.values, key=row.values.get)
        assert best in ("S-Resume", "S-Restart", "Clone")
