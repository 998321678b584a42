"""Command-line option and fixture of the benchmark harness.

``--experiment-scale`` selects the scale of the experiment benchmarks
(smoke by default).  The helpers the benchmarks share live in
``bench_support.py``: a module named ``conftest`` would collide with
``tests/conftest.py`` when one pytest run collects both directories.
"""

from __future__ import annotations

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
