"""Figure 2: testbed comparison across the four benchmarks.

The paper runs 100 MapReduce jobs (10 tasks each) per benchmark on a
40-node testbed and reports, for Hadoop-NS, Hadoop-S, Clone, S-Restart
and S-Resume:

* Figure 2(a): PoCD per benchmark,
* Figure 2(b): cost per benchmark (machine time x EC2 spot price),
* Figure 2(c): net utility per benchmark (Rmin = Hadoop-NS's PoCD).

Deadlines are 100 s (Sort, TeraSort) and 150 s (SecondarySort,
WordCount); ``tau_est = 40 s``, ``tau_kill = 80 s``, ``theta = 1e-4``.

Expected shape: Hadoop-NS has the lowest PoCD and a high cost (stragglers
run long); Clone has the highest cost of the Chronos strategies;
S-Resume achieves the highest PoCD at the lowest cost and hence the best
utility.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.api import ScenarioSpec
from repro.core.model import StrategyName
from repro.experiments.common import (
    ExperimentScale,
    ExperimentTable,
    explicit_workload,
    strategy_tables,
)
from repro.simulator.cluster import ClusterConfig
from repro.strategies import StrategyParameters
from repro.traces.spot_price import SpotPriceConfig, SpotPriceHistory
from repro.traces.workloads import BENCHMARKS, benchmark_jobs

#: Strategies compared in Figure 2, in the paper's plotting order.
FIGURE2_STRATEGIES = (
    StrategyName.HADOOP_NO_SPECULATION,
    StrategyName.HADOOP_SPECULATION,
    StrategyName.CLONE,
    StrategyName.SPECULATIVE_RESTART,
    StrategyName.SPECULATIVE_RESUME,
)

#: Paper parameters for the testbed experiments.
TAU_EST = 40.0
TAU_KILL = 80.0
THETA = 1e-4
JOBS_PER_BENCHMARK = 100


def run_figure2(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    spot_price: Optional[SpotPriceHistory] = None,
    **options: Any,
) -> Dict[str, ExperimentTable]:
    """Reproduce Figure 2(a)-(c).

    Returns a mapping with keys ``"pocd"``, ``"cost"`` and ``"utility"``,
    each an :class:`ExperimentTable` with one row per benchmark and one
    column per strategy.  All rows run as one sweep; ``options`` are its
    sweep options (``jobs``, ``executor``, ``on_event``, ...; see
    :func:`repro.api.run_specs`).
    """
    num_jobs = scale.scaled_jobs(JOBS_PER_BENCHMARK, minimum=20)
    spot_price = spot_price if spot_price is not None else SpotPriceHistory(
        SpotPriceConfig(mean_price=1.0, seed=seed + 7)
    )
    unit_price = spot_price.average_price()
    params = StrategyParameters(
        tau_est=TAU_EST, tau_kill=TAU_KILL, theta=THETA, unit_price=unit_price
    )
    cluster = ClusterConfig(num_nodes=40, slots_per_node=8)

    # The four benchmarks draw their job streams from one RNG, so each
    # row's jobs are materialized here and shipped as an explicit workload.
    rng = np.random.default_rng(seed)
    rows = {}
    for benchmark in sorted(BENCHMARKS):
        workload = explicit_workload(
            benchmark_jobs(
                benchmark, num_jobs=num_jobs, inter_arrival=5.0, unit_price=unit_price, rng=rng
            )
        )
        rows[benchmark] = [
            ScenarioSpec(workload, name.value, params, cluster=cluster, seed=seed)
            for name in FIGURE2_STRATEGIES
        ]
    return strategy_tables(
        "figure2",
        ("PoCD per benchmark", "Cost per benchmark", "Net utility per benchmark"),
        rows,
        notes=(
            f"{num_jobs} jobs/benchmark, 10 tasks/job, tau_est={TAU_EST}s, "
            f"tau_kill={TAU_KILL}s, theta={THETA}, Rmin=PoCD(Hadoop-NS)"
        ),
        **options,
    )
