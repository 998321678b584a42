"""Hadoop-NS baseline: default Hadoop with speculation disabled.

One attempt per task, no monitoring, no speculation.  This is the paper's
lowest-PoCD baseline and the source of ``Rmin`` in the testbed
experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.model import StrategyName
from repro.strategies.base import SpeculationStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.app_master import ApplicationMaster


class HadoopNoSpeculationStrategy(SpeculationStrategy):
    """Run every task exactly once and hope for the best."""

    name = StrategyName.HADOOP_NO_SPECULATION

    def on_job_start(self, am: "ApplicationMaster") -> None:
        # Nothing to schedule: no speculation, no pruning.
        return
