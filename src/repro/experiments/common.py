"""Shared infrastructure of the experiment harness.

Every experiment produces an :class:`ExperimentTable` — a titled list of
rows with named columns — so results can be rendered as text (mirroring
the paper's tables/figure series), compared in tests, and consumed by the
benchmark suite without re-parsing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run_specs
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.simulator.metrics import SimulationReport
from repro.strategies import StrategyParameters


class ExperimentScale(str, enum.Enum):
    """How big to make an experiment run.

    * ``SMOKE`` — seconds; used by the test suite.
    * ``SMALL`` — tens of seconds; used by the benchmark harness defaults.
    * ``FULL`` — closest to the paper's scale; minutes.
    """

    SMOKE = "smoke"
    SMALL = "small"
    FULL = "full"

    @property
    def job_multiplier(self) -> float:
        """Scaling factor applied to job counts."""
        return {ExperimentScale.SMOKE: 0.1, ExperimentScale.SMALL: 0.4, ExperimentScale.FULL: 1.0}[
            self
        ]

    def scaled_jobs(self, full_count: int, minimum: int = 10) -> int:
        """Number of jobs to simulate at this scale."""
        return max(minimum, int(round(full_count * self.job_multiplier)))


@dataclass(frozen=True)
class ExperimentRow:
    """One row of an experiment table."""

    label: str
    values: Mapping[str, float]

    def value(self, column: str) -> float:
        """Fetch one column's value."""
        return self.values[column]


@dataclass
class ExperimentTable:
    """A titled table of experiment results."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[ExperimentRow] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, values: Mapping[str, float]) -> None:
        """Append a row, validating that all columns are present."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row {label!r} is missing columns: {missing}")
        self.rows.append(ExperimentRow(label=label, values=dict(values)))

    def row(self, label: str) -> ExperimentRow:
        """Look up a row by its label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r} in {self.experiment_id}")

    def column(self, column: str) -> Dict[str, float]:
        """All values of one column, keyed by row label."""
        return {row.label: row.values[column] for row in self.rows}

    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render the table as aligned plain text."""
        header = ["row"] + list(self.columns)
        body = []
        for row in self.rows:
            rendered = [row.label]
            for column in self.columns:
                value = row.values[column]
                if isinstance(value, float):
                    rendered.append("-inf" if value == -math.inf else float_format.format(value))
                else:
                    rendered.append(str(value))
            body.append(rendered)
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Simulation helpers shared by the experiments
# ----------------------------------------------------------------------
def require_complete(sweep) -> "object":
    """Re-raise interruption for callers that need every scenario.

    ``run_specs`` turns Ctrl-C into a *partial* :class:`SweepResult`
    (finished work is worth returning to an interactive sweep), but the
    experiment harnesses zip results against their scenario lists — a
    silently-truncated sweep would mislabel rows.  So a partial result
    here propagates as the :class:`KeyboardInterrupt` it came from.
    """
    if getattr(sweep, "partial", False):
        raise KeyboardInterrupt("experiment sweep interrupted before completion")
    return sweep


def explicit_workload(jobs: Sequence[JobSpec]) -> WorkloadSpec:
    """Wrap concrete job specs as a serializable ``explicit`` workload."""
    return WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(job) for job in jobs]})


def suite_specs(
    jobs: Sequence[JobSpec],
    strategy_names: Iterable[StrategyName],
    params: StrategyParameters,
    cluster: Optional[ClusterConfig] = None,
    hadoop: Optional[HadoopConfig] = None,
    seed: int = 0,
    per_strategy_params: Optional[Mapping[StrategyName, StrategyParameters]] = None,
) -> List[ScenarioSpec]:
    """Declarative scenario specs for simulating ``jobs`` under each strategy."""
    workload = explicit_workload(jobs)
    cluster = cluster if cluster is not None else ClusterConfig()
    hadoop = hadoop if hadoop is not None else HadoopConfig()
    specs: List[ScenarioSpec] = []
    for name in strategy_names:
        strategy_params = params
        if per_strategy_params and name in per_strategy_params:
            strategy_params = per_strategy_params[name]
        specs.append(
            ScenarioSpec(
                workload=workload,
                strategy=name.value,
                strategy_params=strategy_params,
                cluster=cluster,
                hadoop=hadoop,
                seed=seed,
            )
        )
    return specs


def run_strategy_suite(
    jobs: Sequence[JobSpec],
    strategy_names: Iterable[StrategyName],
    params: StrategyParameters,
    cluster: Optional[ClusterConfig] = None,
    hadoop: Optional[HadoopConfig] = None,
    seed: int = 0,
    per_strategy_params: Optional[Mapping[StrategyName, StrategyParameters]] = None,
    parallel_jobs: int = 1,
    executor: Optional[str] = None,
) -> Dict[StrategyName, SimulationReport]:
    """Simulate the same jobs under several strategies via the façade.

    ``per_strategy_params`` overrides the common parameters for individual
    strategies (Tables I/II give Clone a different ``tau_est`` than the
    speculative strategies).  ``parallel_jobs > 1`` fans the per-strategy
    simulations out over that many local workers, the ``"pool"``
    executor (each strategy's run is independent: fresh engine, same
    seed).  ``executor`` picks the sweep
    backend explicitly (``"inline"``/``"pool"``/``"distributed"``); when
    ``None``, the process-wide default set by
    :func:`repro.api.set_default_executor` applies — which is how
    ``chronos-experiments --executor distributed`` reroutes every harness
    without changing any of them.
    """
    names = list(strategy_names)
    specs = suite_specs(
        jobs,
        names,
        params,
        cluster=cluster,
        hadoop=hadoop,
        seed=seed,
        per_strategy_params=per_strategy_params,
    )
    sweep = require_complete(run_specs(specs, jobs=parallel_jobs, executor=executor))
    return {name: result.report for name, result in zip(names, sweep.results)}


def utility_of(
    report: SimulationReport, r_min_pocd: float, theta: float
) -> float:
    """Net utility of a simulation report (paper's evaluation metric)."""
    return report.net_utility(r_min_pocd=r_min_pocd, theta=theta)


def reference_pocd(reports: Mapping[StrategyName, SimulationReport]) -> float:
    """The ``Rmin`` used in the testbed evaluation: Hadoop-NS's PoCD."""
    baseline = reports.get(StrategyName.HADOOP_NO_SPECULATION)
    if baseline is None:
        return 0.0
    # Rmin must stay strictly below any achievable PoCD for the logarithmic
    # utility to be finite; subtract a small margin exactly like an SLA
    # floor slightly below the baseline.
    return max(0.0, baseline.pocd - 1e-6)
