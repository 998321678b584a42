"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4) and attaches the resulting rows to the pytest-benchmark
``extra_info`` so the numbers appear in ``--benchmark-verbose`` output and
in saved benchmark JSON.  Benchmarks run a single round by default: the
quantity of interest is the experiment output (the reproduced table), not
micro-second timing stability.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.experiments.common import ExperimentScale


def pytest_addoption(parser):
    parser.addoption(
        "--experiment-scale",
        action="store",
        default=ExperimentScale.SMOKE.value,
        choices=[scale.value for scale in ExperimentScale],
        help="scale of the experiment benchmarks (smoke/small/full)",
    )


@pytest.fixture(scope="session")
def experiment_scale(request) -> ExperimentScale:
    """The experiment scale selected on the command line."""
    return ExperimentScale(request.config.getoption("--experiment-scale"))


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Garbage left behind by earlier tests is collected *before* the round:
    with ``rounds=1`` a generational collection triggered mid-measurement
    would otherwise bill a previous experiment's garbage to this one
    (observed at tens of milliseconds for the simulator benchmarks).
    """
    gc.collect()
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def count_calls(func, *args, **kwargs):
    """Run ``func`` once; return its result and the Python calls it made.

    The count comes from ``sys.setprofile`` (``tests/test_simulator_cost.py``
    counts the same way).  It does not depend on the host's speed, so it
    pins a cost relation exactly where a wall-clock ratio is noisy.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = func(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls


def attach_tables(benchmark, tables) -> None:
    """Store experiment rows in the benchmark's extra_info for inspection."""
    if not isinstance(tables, dict):
        tables = {tables.experiment_id: tables}
    for key, table in tables.items():
        benchmark.extra_info[key] = {row.label: dict(row.values) for row in table.rows}
