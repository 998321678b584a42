"""Benchmark regenerating Table II: sweep of the kill time tau_kill."""

from __future__ import annotations

from bench_support import attach_tables, run_once

from repro.experiments.table2 import run_table2


def test_table2_tau_kill_sweep(benchmark, experiment_scale):
    table = run_once(benchmark, run_table2, scale=experiment_scale, seed=0)
    attach_tables(benchmark, table)

    assert len(table.rows) == 9
    # A later tau_kill lets S-Resume's speculative attempts run longer before
    # pruning, so its cost does not decrease from 0.4 tmin to 0.8 tmin.  (For
    # Clone and S-Restart a very small window can cut the surviving attempt
    # badly and raise cost, so the paper's monotone trend is only asserted
    # for S-Resume; see EXPERIMENTS.md for the discussion.)
    low = table.row("S-Resume @ tau_est=0.3tmin, tau_kill=0.4tmin").value("cost")
    high = table.row("S-Resume @ tau_est=0.3tmin, tau_kill=0.8tmin").value("cost")
    assert high >= low * 0.9
    for row in table.rows:
        assert 0.0 <= row.value("pocd") <= 1.0
        assert row.value("cost") > 0.0
