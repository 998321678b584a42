"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the single value that fully determines one
simulation run: workload, cluster shape, Hadoop runtime knobs, strategy
(by registry name) and its parameters, completion-time estimator and the
RNG seed.  Specs are frozen, JSON-round-trippable
(``ScenarioSpec.from_dict(spec.to_dict()) == spec``) and content-hashable
(:meth:`ScenarioSpec.fingerprint` is stable across processes and
platforms), which is what makes result caching and multi-process sweeps
safe.

Validation happens at construction and every failure raises
:class:`SpecValidationError` carrying the dotted name of the offending
field (``"strategy"``, ``"workload.kind"``, ``"strategy_params.tau_est"``
...), so a bad spec loaded from JSON is diagnosable without a traceback
safari.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields as _dataclass_fields
from typing import Any, Dict, List, Optional, Tuple, get_type_hints

from repro.api import registry as _registry
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.strategies import SpeculationStrategy, StrategyParameters


class SpecValidationError(ValueError):
    """A scenario spec failed validation; :attr:`field` names the culprit."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


# ----------------------------------------------------------------------
# Canonical JSON (the substrate of fingerprinting)
# ----------------------------------------------------------------------
class _Irregular(Exception):
    """Raised by the fast normalization pass for anything not plain JSON."""


_isfinite = math.isfinite

#: Exact types the fast pass returns unchanged.
_PASSTHROUGH = frozenset({str, int, bool, type(None)})


def _normalize_plain(obj: Any) -> Any:
    """Fast pass of :func:`_normalize_json` over exact JSON-native types.

    Builds no field paths, and handles the scalars of a container inline
    rather than recursing for each.  Anything else — subclasses
    (``IntEnum``, numpy floats), non-dict mappings, non-string keys,
    non-finite floats, unsupported types — raises :class:`_Irregular`.
    """
    kind = type(obj)
    if kind is dict:
        normalized = {}
        for key, value in obj.items():
            if type(key) is not str:
                raise _Irregular
            kind = type(value)
            if kind is float and _isfinite(value):
                value += 0.0  # normalizes -0.0 to 0.0
            elif kind not in _PASSTHROUGH:
                value = _normalize_plain(value)
            normalized[key] = value
        return normalized
    if kind is list or kind is tuple:
        items = []
        for value in obj:
            kind = type(value)
            if kind is float and _isfinite(value):
                value += 0.0
            elif kind not in _PASSTHROUGH:
                value = _normalize_plain(value)
            items.append(value)
        return items
    if kind is float and _isfinite(obj):
        return obj + 0.0
    if kind in _PASSTHROUGH:
        return obj
    raise _Irregular


def _normalize_checked(obj: Any, where: str) -> Any:
    """Path-building pass: same output, and errors name the offending field."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise SpecValidationError(where, f"non-finite float {obj!r} is not serializable")
        return obj + 0.0  # normalizes -0.0 to 0.0
    if isinstance(obj, Mapping):
        return {str(key): _normalize_checked(value, f"{where}.{key}") for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_checked(value, f"{where}[{index}]") for index, value in enumerate(obj)]
    raise SpecValidationError(where, f"unsupported type {type(obj).__name__} in a spec")


def _normalize_json(obj: Any, where: str) -> Any:
    """Reduce ``obj`` to JSON-native types, rejecting anything unstable.

    Plain trees take the fast pass; whatever it rejects is walked again
    by the checked pass, which accepts the subclasses and raises
    :class:`SpecValidationError` with the dotted path of a bad value.
    """
    try:
        return _normalize_plain(obj)
    except _Irregular:
        return _normalize_checked(obj, where)


def _dump_canonical(normalized: Any) -> str:
    return json.dumps(normalized, sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, normalized floats."""
    return _dump_canonical(_normalize_json(obj, "spec"))


#: Instance attribute holding a spec's memoized fingerprint.
_FINGERPRINT_MEMO = "_fingerprint"


def _spec_fingerprint(spec: Any, normalized: Optional[Any] = None) -> str:
    """Content hash of a frozen spec, computed once per instance.

    ``normalized`` is the spec's already-normalized :meth:`to_dict`, for
    a caller that needed it anyway (the runner-template family key).
    """
    fingerprint = spec.__dict__.get(_FINGERPRINT_MEMO)
    if fingerprint is None:
        if normalized is None:
            normalized = _normalize_json(spec.to_dict(), "spec")
        digest = hashlib.sha256(_dump_canonical(normalized).encode("utf-8"))
        fingerprint = digest.hexdigest()[:16]
        object.__setattr__(spec, _FINGERPRINT_MEMO, fingerprint)
    return fingerprint


def _state_without_memo(spec: Any) -> Dict[str, Any]:
    """Pickle state of a spec: its fields, never the fingerprint memo."""
    state = dict(spec.__dict__)
    state.pop(_FINGERPRINT_MEMO, None)
    return state


# ----------------------------------------------------------------------
# Config sections (flat dataclasses of scalars)
# ----------------------------------------------------------------------
@functools.cache
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in _dataclass_fields(cls))


def _scalar_asdict(obj: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` for a dataclass whose fields hold only scalars.

    A shallow copy with the same keys in the same order: ``asdict``'s
    recursive ``deepcopy`` of every value buys nothing for immutables.
    """
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


@functools.cache
def _float_fields(cls: type) -> Tuple[str, ...]:
    hints = get_type_hints(cls)
    return tuple(name for name in _field_names(cls) if hints[name] in (float, Optional[float]))


def _section_from_mapping(section: str, cls, mapping: Mapping[str, Any]):
    """Build a flat dataclass (config section, job) from a mapping with field-level errors."""
    allowed = set(_field_names(cls))
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SpecValidationError(
            f"{section}.{unknown[0]}",
            f"unknown field (allowed: {', '.join(sorted(allowed))})",
        )
    try:
        return cls(**dict(mapping))
    except (TypeError, ValueError) as error:
        raise SpecValidationError(section, str(error)) from error


def _config_section(section: str, cls, value: Any):
    """One config section as a canonical ``cls`` instance.

    Ints in float-typed fields become floats, so ``40`` and ``40.0`` —
    which already compare and hash equal — share one fingerprint.
    Non-finite floats are rejected here, naming the field, rather than
    later when the spec is fingerprinted.
    """
    if isinstance(value, Mapping):
        value = _section_from_mapping(section, cls, value)
    elif not isinstance(value, cls):
        raise SpecValidationError(
            section, f"expected {cls.__name__} or mapping, got {type(value).__name__}"
        )
    data = _scalar_asdict(value)
    ints = [name for name in _float_fields(cls) if type(data[name]) is int]
    if ints:
        try:
            value = dataclasses.replace(value, **{name: float(data[name]) for name in ints})
        except OverflowError as error:
            raise SpecValidationError(f"{section}.{ints[0]}", str(error)) from error
    _normalize_json(data, section)
    return value



# ----------------------------------------------------------------------
# Validation and derivation shared by ScenarioSpec and ClusterSpec
# ----------------------------------------------------------------------
def _canonical_strategy(strategy: Any) -> str:
    """The registry-canonical strategy name (aliases resolved)."""
    if isinstance(strategy, StrategyName):
        strategy = strategy.value
    if not isinstance(strategy, str) or not strategy.strip():
        raise SpecValidationError("strategy", "must be a non-empty string")
    try:
        return _registry.resolve_strategy_name(strategy)
    except _registry.UnknownPluginError as error:
        raise SpecValidationError("strategy", str(error)) from error


_CONFIG_SECTIONS = (
    ("strategy_params", StrategyParameters),
    ("cluster", ClusterConfig),
    ("hadoop", HadoopConfig),
)


def _canonicalize_common(spec: Any) -> None:
    """Validate the sections :class:`ScenarioSpec` and ``ClusterSpec`` share.

    The config sections, ``estimator``, ``seed`` and ``max_events``, in
    that order; the strategy is checked by :func:`_canonical_strategy`.
    """
    for section, cls in _CONFIG_SECTIONS:
        object.__setattr__(spec, section, _config_section(section, cls, getattr(spec, section)))

    if spec.estimator is not None:
        if not isinstance(spec.estimator, str) or not spec.estimator.strip():
            raise SpecValidationError("estimator", "must be a non-empty string or None")
        estimator = spec.estimator.strip().lower()
        if estimator not in _registry.ESTIMATORS:
            raise SpecValidationError(
                "estimator",
                f"unknown estimator {spec.estimator!r}; available: "
                f"{', '.join(_registry.available_estimators())}",
            )
        object.__setattr__(spec, "estimator", estimator)

    if not isinstance(spec.seed, int) or isinstance(spec.seed, bool) or spec.seed < 0:
        raise SpecValidationError("seed", "must be a non-negative integer")
    if spec.max_events is not None and (
        not isinstance(spec.max_events, int)
        or isinstance(spec.max_events, bool)
        or spec.max_events < 1
    ):
        raise SpecValidationError("max_events", "must be a positive integer or None")


def _with_overrides(spec: Any, overrides: Optional[Mapping[str, Any]], kwargs: Mapping[str, Any]):
    """A copy of ``spec`` with dotted-path overrides applied to its dict form."""
    merged: Dict[str, Any] = dict(overrides or {})
    for key, value in kwargs.items():
        merged[key.replace("__", ".")] = value
    data = spec.to_dict()
    for path, value in merged.items():
        _apply_override(data, path, value)
    return type(spec).from_dict(data)


# ----------------------------------------------------------------------
# Job-spec serialization (used by the "explicit" workload kind)
# ----------------------------------------------------------------------
def job_spec_to_dict(spec: JobSpec) -> Dict[str, Any]:
    """Serialize a simulator :class:`JobSpec` to a JSON-ready dict."""
    return _scalar_asdict(spec)


def job_spec_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec`, naming bad fields on failure."""
    if not isinstance(data, Mapping):
        raise SpecValidationError("workload.params.jobs", "each job must be a mapping")
    return _section_from_mapping("workload.params.jobs", JobSpec, data)


# ----------------------------------------------------------------------
# The spec types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registry kind plus builder parameters.

    ``params`` is normalized to JSON-native values at construction so that
    equality and fingerprints are representation-independent (tuples
    become lists, mapping keys become strings, non-finite floats are
    rejected).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Canonicalize the workload kind and normalize the params."""
        if not isinstance(self.kind, str) or not self.kind.strip():
            raise SpecValidationError("workload.kind", "must be a non-empty string")
        kind = self.kind.strip().lower()
        if kind not in _registry.WORKLOADS:
            raise SpecValidationError(
                "workload.kind",
                f"unknown workload {self.kind!r}; available: "
                f"{', '.join(_registry.available_workloads())}",
            )
        object.__setattr__(self, "kind", kind)
        if not isinstance(self.params, Mapping):
            raise SpecValidationError("workload.params", "must be a mapping")
        object.__setattr__(self, "params", _normalize_json(dict(self.params), "workload.params"))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("workload", "expected a mapping")
        unknown = sorted(set(data) - {"kind", "params"})
        if unknown:
            raise SpecValidationError(
                f"workload.{unknown[0]}", "unknown field (allowed: kind, params)"
            )
        if "kind" not in data:
            raise SpecValidationError("workload.kind", "is required")
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one simulation run.

    Parameters
    ----------
    workload:
        What jobs to simulate — a :class:`WorkloadSpec` (or equivalent
        mapping) resolved through the workload registry.
    strategy:
        Registry name of the speculation strategy (paper aliases such as
        ``"restart"`` are canonicalized, so equivalent names share one
        fingerprint).
    strategy_params:
        Shared strategy knobs (timing, theta, SLA floor, ...).
    cluster / hadoop:
        Cluster shape and simulated-runtime configuration.
    estimator:
        Registry name of the completion-time estimator, or ``None`` for
        the paper's default (Chronos estimator for Chronos strategies,
        the plain Hadoop one for baselines).
    seed:
        RNG seed shared by the workload builder and the simulator.
    max_events:
        Optional hard cap on simulation events (truncation safety valve).
    """

    workload: WorkloadSpec
    strategy: str
    strategy_params: StrategyParameters = field(default_factory=StrategyParameters)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    estimator: Optional[str] = None
    seed: int = 0
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate and canonicalize every section of the spec."""
        workload = self.workload
        if isinstance(workload, Mapping):
            workload = WorkloadSpec.from_dict(workload)
            object.__setattr__(self, "workload", workload)
        if not isinstance(workload, WorkloadSpec):
            raise SpecValidationError(
                "workload", f"expected WorkloadSpec or mapping, got {type(workload).__name__}"
            )

        object.__setattr__(self, "strategy", _canonical_strategy(self.strategy))
        _canonicalize_common(self)

    __getstate__ = _state_without_memo

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict; inverse of :meth:`from_dict`."""
        return {
            "workload": self.workload.to_dict(),
            "strategy": self.strategy,
            "strategy_params": _scalar_asdict(self.strategy_params),
            "cluster": _scalar_asdict(self.cluster),
            "hadoop": _scalar_asdict(self.hadoop),
            "estimator": self.estimator,
            "seed": self.seed,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("spec", f"expected a mapping, got {type(data).__name__}")
        allowed = set(_field_names(cls))
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise SpecValidationError(
                unknown[0], f"unknown field (allowed: {', '.join(sorted(allowed))})"
            )
        if "workload" not in data:
            raise SpecValidationError("workload", "is required")
        if "strategy" not in data:
            raise SpecValidationError("strategy", "is required")
        kwargs = {key: value for key, value in data.items() if key in allowed}
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecValidationError("spec", f"invalid JSON: {error}") from error
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Stable content hash (16 hex chars) of the canonical spec JSON.

        Two specs have the same fingerprint iff they describe the same
        scenario; the hash is stable across processes, platforms and
        Python versions, which makes it a safe cache key.  Specs are
        frozen, so it is computed once per instance.
        """
        return _spec_fingerprint(self)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_overrides(
        self, overrides: Optional[Mapping[str, Any]] = None, **kwargs: Any
    ) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied.

        Paths address the :meth:`to_dict` structure: ``"strategy"``,
        ``"strategy_params.theta"``, ``"cluster.num_nodes"``,
        ``"workload.params.num_jobs"``...  Keyword arguments use ``__``
        in place of dots (``strategy_params__theta=1e-3``).
        """
        return _with_overrides(self, overrides, kwargs)

    def build_jobs(self) -> List[JobSpec]:
        """Materialize the workload via the workload registry."""
        return _build_jobs(self.workload, self.seed)

    def build_strategy(self) -> SpeculationStrategy:
        """Instantiate the strategy via the strategy registry."""
        return _registry.create_strategy(self.strategy, self.strategy_params)


def _build_jobs(workload: WorkloadSpec, seed: int) -> List[JobSpec]:
    """``workload``'s job list for ``seed``; a builder's ``ValueError`` names the params."""
    try:
        return _registry.build_jobs(workload.kind, workload.params, seed)
    except SpecValidationError:
        raise
    except ValueError as error:
        raise SpecValidationError("workload.params", str(error)) from error


def _apply_override(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path inside a nested spec dict."""
    if not path:
        raise SpecValidationError("override", "empty override path")
    parts = path.split(".")
    node = data
    for depth, part in enumerate(parts[:-1]):
        if not isinstance(node, dict):
            raise SpecValidationError(
                ".".join(parts[: depth + 1]), "override path does not address a mapping"
            )
        if part not in node:
            # Workload builder params are open-ended; config sections are not.
            node[part] = {}
        elif isinstance(node[part], dict):
            # Copy on the way down: nested params are shared with the spec
            # being derived from, which must not change.
            node[part] = dict(node[part])
        node = node[part]
    if not isinstance(node, dict):
        raise SpecValidationError(path, "override path does not address a mapping")
    node[parts[-1]] = value
