"""Benchmark regenerating Figure 5: histogram of the optimal r."""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.figure5 import run_figure5


def _mean_r(row) -> float:
    total = sum(row.values.values())
    acc = 0.0
    for column, count in row.values.items():
        r = 7 if column == "r>=7" else int(column.split("=")[1])
        acc += r * count
    return acc / total if total else 0.0


def test_figure5_optimal_r_histogram(benchmark, experiment_scale):
    table = run_once(benchmark, run_figure5, scale=experiment_scale, seed=0)
    attach_tables(benchmark, table)

    assert len(table.rows) == 4
    # Increasing theta shifts the histogram toward smaller r for both
    # strategies (the paper's Figure 5 observation).
    assert _mean_r(table.row("Clone theta=0.0001")) <= _mean_r(table.row("Clone theta=1e-05"))
    assert _mean_r(table.row("S-Resume theta=0.0001")) <= _mean_r(
        table.row("S-Resume theta=1e-05")
    )
    # S-Resume can afford at least as many extra attempts as Clone at equal theta.
    assert _mean_r(table.row("S-Resume theta=1e-05")) >= _mean_r(table.row("Clone theta=1e-05"))
