"""Cold start of the commands that simulate nothing.

``--list``, ``workers status`` and ``serve`` run no scenario, so they
must not pay for numpy, the sweep API or the simulator.  Each benchmark
records the median wall time of the command in fresh interpreters
(``starts_per_sec`` is its inverse, for the trend file) and the modules
the command loaded.  The ``repro`` module counts are exact pins: a
change that makes one of these commands import more of the package has
to say so here.
"""

from __future__ import annotations

import pytest

from bench_support import cold_start, run_once

#: How each command runs once, with its expected ``repro`` module count.
COMMANDS = {
    "list": (["--list"], "", 4),
    "workers-status": (["workers", "status", "--db", "{db}"], "", 15),
    "serve": (
        ["serve", "--db", "{db}", "--port", "0"],
        # The command returns once its server would start serving.
        "from repro.service.server import ServiceHTTPServer\n"
        "ServiceHTTPServer.serve_forever = lambda self, *args, **kwargs: None",
        19,
    ),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cold_start(benchmark, tmp_path, command):
    argv, setup, expected_repro_modules = COMMANDS[command]
    db = tmp_path / "queue.sqlite"
    argv = [str(db) if arg == "{db}" else arg for arg in argv]
    # The queue exists and is empty before the timed runs.
    cold_start(["workers", "status", "--db", str(db)], runs=1)
    median_s, loaded, repro_loaded = run_once(benchmark, cold_start, argv, setup=setup)
    benchmark.extra_info["cold_start_s"] = median_s
    benchmark.extra_info["starts_per_sec"] = 1.0 / median_s
    benchmark.extra_info["loaded_modules"] = loaded
    benchmark.extra_info["repro_modules"] = repro_loaded
    assert repro_loaded == expected_repro_modules
