"""Shared infrastructure of the experiment harness.

Every experiment produces an :class:`ExperimentTable` — a titled list of
rows with named columns — so results can be rendered as text (mirroring
the paper's tables/figure series), compared in tests, and consumed by the
benchmark suite without re-parsing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run_specs
from repro.api.sweep import _aligned, _cell
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
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

    def to_text(self) -> str:
        """Render the table as aligned plain text."""
        header = ["row"] + list(self.columns)
        body = [
            [row.label] + [_cell(row.values[column]) for column in self.columns]
            for row in self.rows
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="] + _aligned(header, body)
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The strategy comparison every simulation harness runs
# ----------------------------------------------------------------------
#: The three numbers each run of a strategy comparison reports.
METRICS = ("pocd", "cost", "utility")

#: Full-scale number of trace jobs (the paper replays 2700).
FULL_TRACE_JOBS = 400

#: A harness's rows: each row label maps to the scenarios it compares,
#: one per strategy.
Rows = Mapping[str, Sequence[ScenarioSpec]]


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


def trace_workload(scale: ExperimentScale, beta_override: Optional[float] = None) -> WorkloadSpec:
    """The Google-trace workload of Tables I–II and Figures 3–5 at ``scale``."""
    params: Dict[str, float] = {"num_jobs": scale.scaled_jobs(FULL_TRACE_JOBS, minimum=30)}
    if beta_override is not None:
        params["beta_override"] = beta_override
    return WorkloadSpec("google-trace", params)


def trace_scenario(
    workload: WorkloadSpec,
    strategy: StrategyName,
    tau_est: float,
    tau_kill: float,
    theta: float,
    seed: int,
    hadoop: Optional[HadoopConfig] = None,
) -> ScenarioSpec:
    """One trace-driven scenario, as Tables I–II and Figures 3–4 run it.

    ``tau_est`` and ``tau_kill`` are multiples of each job's tmin, every
    job's unit price is 1, and the cluster is unbounded (the paper's
    datacenter is large).
    """
    params = StrategyParameters(
        tau_est=tau_est,
        tau_kill=tau_kill,
        theta=theta,
        unit_price=1.0,
        timing_relative_to_tmin=True,
    )
    return ScenarioSpec(
        workload,
        strategy.value,
        params,
        cluster=ClusterConfig(num_nodes=0),
        hadoop=hadoop or HadoopConfig(),
        seed=seed,
    )


def run_rows(rows: Rows, **options: Any) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Run every row's scenarios as one sweep and score each run.

    Returns, per row label, ``{strategy display name: {metric: value}}``
    over :data:`METRICS`, in the row's order.  A run's utility uses its
    own spec's theta, and Rmin is the row's Hadoop-NS PoCD, as in the
    testbed evaluation, or 0 in a row without Hadoop-NS.  ``options``
    are the sweep options of :func:`repro.api.run_specs` (``jobs``,
    ``executor``, ``db``, ``cache``, ``on_event``, ...), passed through
    unchanged: every harness takes them and hands them here, which is
    how ``chronos-experiments --jobs/--executor/--progress`` reach it.
    """
    specs = [spec for row in rows.values() for spec in row]
    results = iter(require_complete(run_specs(specs, **options)).results)
    scored: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, row in rows.items():
        reports = {StrategyName(spec.strategy): next(results).report for spec in row}
        baseline = reports.get(StrategyName.HADOOP_NO_SPECULATION)
        # Rmin must stay strictly below any achievable PoCD for the
        # logarithmic utility to be finite: an SLA floor just below the
        # baseline.
        r_min = max(0.0, baseline.pocd - 1e-6) if baseline else 0.0
        scored[label] = {
            name.display_name: {
                "pocd": report.pocd,
                "cost": report.mean_cost,
                "utility": report.net_utility(r_min_pocd=r_min, theta=spec.strategy_params.theta),
            }
            for spec, (name, report) in zip(row, reports.items())
        }
    return scored


def strategy_tables(
    experiment_id: str, titles: Sequence[str], rows: Rows, notes: str, **options: Any
) -> Dict[str, ExperimentTable]:
    """Run ``rows`` as one sweep and lay it out as PoCD, cost and utility tables.

    ``titles`` are the three tables' titles in :data:`METRICS` order;
    their ids are ``experiment_id`` suffixed ``a``, ``b`` and ``c``.  Each
    table has one row per label and one column per strategy (Figures 2–4).
    ``options`` go to :func:`run_rows`.
    """
    scored = run_rows(rows, **options)
    columns = list(next(iter(scored.values()), {}))
    tables = {
        metric: ExperimentTable(f"{experiment_id}{part}", title, columns, notes=notes)
        for metric, part, title in zip(METRICS, "abc", titles)
    }
    for label, runs in scored.items():
        for metric, table in tables.items():
            table.add_row(label, {column: values[metric] for column, values in runs.items()})
    return tables


def timing_table(
    experiment_id: str,
    title: str,
    timings: Sequence[Tuple[StrategyName, float, float]],
    scale: ExperimentScale,
    seed: int,
    theta: float,
    **options: Any,
) -> ExperimentTable:
    """Run each ``(strategy, tau_est, tau_kill)`` on the trace, as Tables I–II.

    All rows run as one sweep (``options`` go to :func:`run_rows`).
    Each table row shows its timing (in multiples of tmin) beside the
    run's PoCD, cost and utility.
    """
    workload = trace_workload(scale)
    rows = {
        f"{name.display_name} @ tau_est={tau_est:.1f}tmin, tau_kill={tau_kill:.1f}tmin": [
            trace_scenario(workload, name, tau_est, tau_kill, theta, seed)
        ]
        for name, tau_est, tau_kill in timings
    }
    table = ExperimentTable(
        experiment_id,
        title,
        ["tau_est", "tau_kill", *METRICS],
        notes=(
            f"{workload.params['num_jobs']} trace jobs, timing expressed as multiples "
            f"of each job's tmin, theta={theta}"
        ),
    )
    for (_, tau_est, tau_kill), (label, runs) in zip(timings, run_rows(rows, **options).items()):
        (values,) = runs.values()
        table.add_row(label, {"tau_est": tau_est, "tau_kill": tau_kill, **values})
    return table
