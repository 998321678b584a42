"""Declarative, fingerprintable specification of a cluster scenario.

A :class:`ClusterSpec` is to :func:`repro.cluster.run_cluster` what
:class:`~repro.api.spec.ScenarioSpec` is to :func:`repro.api.run` — one
frozen value that fully determines a multi-job simulation.  The JSON
form carries a ``"kind": "cluster"`` discriminator so payloads flow
polymorphically through every executor, cache and result store the
single-job specs already use (see :func:`repro.api.spec_from_dict`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import registry as _registry
from repro.api.spec import (
    SpecValidationError,
    _canonical_strategy,
    _canonicalize_common,
    _field_names,
    _normalize_json,
    _scalar_asdict,
    _spec_fingerprint,
    _state_without_memo,
    _with_overrides,
)
from repro.cluster.arrivals import ARRIVALS, available_arrivals, build_arrivals
from repro.cluster.scheduling import SCHEDULERS, available_cluster_schedulers
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.strategies import SpeculationStrategy, StrategyParameters

#: Discriminator value carried in serialized cluster payloads.
CLUSTER_KIND = "cluster"


@dataclass(frozen=True)
class ArrivalSpec:
    """An arrival model by registry kind plus builder parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Canonicalize the arrival kind and normalize the params."""
        if not isinstance(self.kind, str) or not self.kind.strip():
            raise SpecValidationError("arrival.kind", "must be a non-empty string")
        kind = self.kind.strip().lower()
        if kind not in ARRIVALS:
            raise SpecValidationError(
                "arrival.kind",
                f"unknown arrival {self.kind!r}; available: "
                f"{', '.join(available_arrivals())}",
            )
        object.__setattr__(self, "kind", kind)
        if not isinstance(self.params, Mapping):
            raise SpecValidationError("arrival.params", "must be a mapping")
        object.__setattr__(self, "params", _normalize_json(dict(self.params), "arrival.params"))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalSpec":
        """Rebuild from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("arrival", "expected a mapping")
        unknown = sorted(set(data) - {"kind", "params"})
        if unknown:
            raise SpecValidationError(
                f"arrival.{unknown[0]}", "unknown field (allowed: kind, params)"
            )
        if "kind" not in data:
            raise SpecValidationError("arrival.kind", "is required")
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to reproduce one multi-job cluster run.

    Parameters
    ----------
    arrival:
        The job-arrival process — an :class:`ArrivalSpec` (or equivalent
        mapping) resolved through the arrival registry.
    strategy / strategy_params / estimator:
        The per-job speculation strategy shared by every admitted job,
        exactly as in :class:`~repro.api.spec.ScenarioSpec`.
    scheduler / scheduler_params:
        The cluster-level admission policy, resolved through the
        scheduler registry (``fifo``, ``fair``, ``deadline_edf``,
        ``spec_budget``).
    cluster / hadoop:
        Shared cluster shape and simulated-runtime configuration.
    seed / max_events:
        RNG seed (shared by arrivals and the simulator) and the optional
        event-cap safety valve.
    """

    #: Class-level discriminator (mirrors the serialized ``"kind"`` key).
    kind = CLUSTER_KIND

    arrival: ArrivalSpec = field(default_factory=lambda: ArrivalSpec("poisson"))
    strategy: str = "hadoop-nospec"
    strategy_params: StrategyParameters = field(default_factory=StrategyParameters)
    scheduler: str = "fifo"
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    estimator: Optional[str] = None
    seed: int = 0
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate and canonicalize every section of the cluster spec."""
        arrival = self.arrival
        if isinstance(arrival, Mapping):
            arrival = ArrivalSpec.from_dict(arrival)
            object.__setattr__(self, "arrival", arrival)
        if not isinstance(arrival, ArrivalSpec):
            raise SpecValidationError(
                "arrival", f"expected ArrivalSpec or mapping, got {type(arrival).__name__}"
            )

        object.__setattr__(self, "strategy", _canonical_strategy(self.strategy))

        scheduler = self.scheduler
        if not isinstance(scheduler, str) or not scheduler.strip():
            raise SpecValidationError("scheduler", "must be a non-empty string")
        scheduler = scheduler.strip().lower()
        if scheduler not in SCHEDULERS:
            raise SpecValidationError(
                "scheduler",
                f"unknown scheduler {self.scheduler!r}; available: "
                f"{', '.join(available_cluster_schedulers())}",
            )
        object.__setattr__(self, "scheduler", scheduler)
        if not isinstance(self.scheduler_params, Mapping):
            raise SpecValidationError("scheduler_params", "must be a mapping")
        object.__setattr__(
            self,
            "scheduler_params",
            _normalize_json(dict(self.scheduler_params), "scheduler_params"),
        )

        _canonicalize_common(self)

    __getstate__ = _state_without_memo

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict carrying the ``"kind"`` discriminator."""
        return {
            "kind": CLUSTER_KIND,
            "arrival": self.arrival.to_dict(),
            "strategy": self.strategy,
            "strategy_params": _scalar_asdict(self.strategy_params),
            "scheduler": self.scheduler,
            "scheduler_params": dict(self.scheduler_params),
            "cluster": _scalar_asdict(self.cluster),
            "hadoop": _scalar_asdict(self.hadoop),
            "estimator": self.estimator,
            "seed": self.seed,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("spec", f"expected a mapping, got {type(data).__name__}")
        payload = dict(data)
        kind = payload.pop("kind", CLUSTER_KIND)
        if kind != CLUSTER_KIND:
            raise SpecValidationError("kind", f"expected {CLUSTER_KIND!r}, got {kind!r}")
        allowed = set(_field_names(cls))
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise SpecValidationError(
                unknown[0], f"unknown field (allowed: kind, {', '.join(sorted(allowed))})"
            )
        if "arrival" not in payload:
            raise SpecValidationError("arrival", "is required")
        return cls(**payload)

    def fingerprint(self) -> str:
        """Stable content hash (16 hex chars) of the canonical spec JSON.

        The serialized form includes the ``"kind"`` discriminator, so
        cluster fingerprints can never collide with single-job scenario
        fingerprints for structurally similar payloads.  Computed once
        per (frozen) instance.
        """
        return _spec_fingerprint(self)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_overrides(
        self, overrides: Optional[Mapping[str, Any]] = None, **kwargs: Any
    ) -> "ClusterSpec":
        """A copy with dotted-path overrides applied (sweep/search axes)."""
        return _with_overrides(self, overrides, kwargs)

    def build_arrivals(self) -> List[JobSpec]:
        """Materialize the arrival stream via the arrival registry."""
        try:
            return build_arrivals(self.arrival.kind, self.arrival.params, self.seed)
        except SpecValidationError:
            raise
        except ValueError as error:
            raise SpecValidationError("arrival.params", str(error)) from error

    def build_strategy(self) -> SpeculationStrategy:
        """Instantiate the per-job strategy via the strategy registry."""
        return _registry.create_strategy(self.strategy, self.strategy_params)
