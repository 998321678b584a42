"""Benchmark regenerating Table I: sweep of the detection time tau_est."""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.table1 import run_table1


def test_table1_tau_est_sweep(benchmark, experiment_scale):
    table = run_once(benchmark, run_table1, scale=experiment_scale, seed=0)
    attach_tables(benchmark, table)

    assert len(table.rows) == 7
    # Over-eager detection (tau_est = 0.1 tmin) costs at least as much as
    # detecting at 0.5 tmin, for both speculative strategies.
    for name in ("S-Restart", "S-Resume"):
        early = table.row(f"{name} @ tau_est=0.1tmin, tau_kill=0.6tmin").value("cost")
        late = table.row(f"{name} @ tau_est=0.5tmin, tau_kill=1.0tmin").value("cost")
        assert early >= late * 0.95
    # All PoCD values are valid probabilities and the speculative strategies
    # keep PoCD high across the sweep.
    for row in table.rows:
        assert 0.0 <= row.value("pocd") <= 1.0
