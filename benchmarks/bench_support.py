"""Helpers shared by the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and
attaches the resulting rows to the pytest-benchmark
``extra_info`` so the numbers appear in ``--benchmark-verbose`` output and
in saved benchmark JSON.  Benchmarks run a single round by default: the
quantity of interest is the experiment output (the reproduced table), not
micro-second timing stability.

The benchmark files import this module by its name (pytest puts
``benchmarks/`` on ``sys.path``); the name is unique, unlike
``conftest``, so ``tests/conftest.py`` cannot shadow it.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence, Tuple

import repro


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


def cold_start(argv: Sequence[str], runs: int = 7, setup: str = "") -> Tuple[float, int, int]:
    """``chronos-experiments ARGV`` in ``runs`` fresh interpreters.

    Returns the median wall time of one process, from spawn to exit, and
    the number of modules it had loaded when the command returned: all of
    them, and those of ``repro``.  ``setup`` is Python run before the
    command (e.g. to stub out a server loop).  The wall time includes
    interpreter start-up, as a shell user sees it; the counts do not
    depend on the host's speed.
    """
    program = "\n".join([
        "import sys",
        setup,
        "from repro.experiments.cli import main",
        f"main({list(argv)!r})",
        "print(len(sys.modules), sum(name.split('.')[0] == 'repro' for name in sys.modules))",
    ])
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, check=True, env=env
        )
        times.append(time.perf_counter() - started)
    loaded, repro_loaded = (int(count) for count in child.stdout.splitlines()[-1].split())
    return statistics.median(times), loaded, repro_loaded
