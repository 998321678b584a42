"""The multi-job façade: ``run_cluster(spec) -> ClusterResult``.

Mirrors :func:`repro.api.run` for :class:`ClusterSpec`.  A
:class:`ClusterResult` carries the same four-field shape as
:class:`~repro.api.facade.ScenarioResult` (spec, report, fingerprint,
wall time) and serializes with the ``"kind": "cluster"`` discriminator
inside its spec, so cluster results flow through the sweep cache, the
distributed result store and the event stream unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.api.facade import _summary_row
from repro.api.spec import SpecValidationError
from repro.cluster.metrics import ClusterReport, cluster_report_from_dict, cluster_report_to_dict
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.spec import CLUSTER_KIND, ClusterSpec
from repro.simulator.runner import _collector_paused
from repro.telemetry.profiler import active_profiler, null_phase


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of running one cluster spec."""

    spec: ClusterSpec
    report: ClusterReport
    fingerprint: str
    wall_time_s: float

    #: Discriminator, mirroring :attr:`ClusterSpec.kind`.
    kind = CLUSTER_KIND

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by caches and result stores)."""
        return {
            "spec": self.spec.to_dict(),
            "report": cluster_report_to_dict(self.report),
            "fingerprint": self.fingerprint,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterResult":
        """Rebuild a result from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("result", "expected a mapping")
        missing = [key for key in ("spec", "report", "fingerprint", "wall_time_s") if key not in data]
        if missing:
            raise SpecValidationError(f"result.{missing[0]}", "is required")
        return cls(
            spec=ClusterSpec.from_dict(data["spec"]),
            report=cluster_report_from_dict(data["report"]),
            fingerprint=str(data["fingerprint"]),
            wall_time_s=float(data["wall_time_s"]),
        )

    def summary_row(self) -> Dict[str, Any]:
        """Flat sweep-summary row (same columns as single-job results).

        The ``workload`` column carries ``cluster:<arrival kind>`` and
        the ``strategy`` column the cluster scheduler, so mixed sweeps
        stay readable in one table.
        """
        return _summary_row(self, f"cluster:{self.spec.arrival.kind}", self.spec.scheduler)


def run_cluster(spec: ClusterSpec) -> ClusterResult:
    """Execute one cluster scenario end to end and return its result.

    With a profiler active (:func:`repro.telemetry.enable_profiling`),
    the construction is timed as the ``build`` phase and the event loop
    as ``simulate``, like the single-job runner's phases.  The cyclic
    collector is paused from the build until the masters are released,
    as in :meth:`SimulationRunner.run`.
    """
    if not isinstance(spec, ClusterSpec):
        raise SpecValidationError("spec", f"expected ClusterSpec, got {type(spec).__name__}")
    profiler = active_profiler()
    phase = null_phase if profiler is None else profiler.phase
    with _collector_paused():
        with phase("build"):
            simulation = ClusterSimulation(spec, profiler=profiler)
        started = time.perf_counter()
        with phase("simulate"):
            report = simulation.run()
        for job in simulation.jobs:
            if job.master is not None:
                job.master.release()
        # Free the stack while the collector is still off, so the pass
        # that follows the window walks little more than the report.
        del simulation
    wall_time = time.perf_counter() - started
    return ClusterResult(
        spec=spec,
        report=report,
        fingerprint=spec.fingerprint(),
        wall_time_s=wall_time,
    )
