"""The sweep event stream: what happens, as it happens.

Every executor backend — inline, local worker pool, distributed queue,
remote HTTP service — reports progress through one vocabulary: a small hierarchy
of frozen, JSON-serializable :class:`SweepEvent` dataclasses.  The
streaming API (:func:`repro.api.stream_specs` / ``Sweep.stream``) yields
these events as scenarios complete; the blocking API (``run_specs`` /
``Sweep.run``) is a thin consumer that assembles the same events into a
:class:`~repro.api.sweep.SweepResult`.

Event lifecycle of one sweep::

    SweepStarted
      ScenarioCacheHit*      (answered by the cache/result store)
      ScenarioQueued*        (one per uncached scenario index)
        ScenarioStarted      (execution began; distributed: a worker claimed it)
        ScenarioRetried      (lease expired / worker died / inline retry)
        ScenarioCompleted    (carries the ScenarioResult)
        ScenarioFailed       (the scenario itself raised)
    SweepFinished            (totals; cancelled/stopped flags)

An adaptive search (:mod:`repro.adaptive`) speaks the same vocabulary:
its driver forwards the scenario lifecycle events of each executed batch
and adds three members of its own — ``TrialProposed`` (the algorithm
asked for a configuration), ``TrialPruned`` (the algorithm ruled one out
without paying for it) and a final ``SearchFinished`` — so progress
rendering, stop conditions and Ctrl-C partial-result semantics work for
searches exactly as they do for grids.

Events serialize to JSON (:meth:`SweepEvent.to_dict` /
:func:`event_from_dict`), so they can cross process and host boundaries
exactly like specs and results do — the distributed broker keeps a
monotonic event log in sqlite, and the HTTP service relays it via the
``events_since`` RPC.  ``index`` is the scenario's position in the
submitted spec list (duplicates share the first position); ``elapsed_s``
is wall time since the sweep began.

Every event also carries an optional ``sweep_id`` — the correlation id
:func:`repro.telemetry.new_sweep_id` mints once per sweep and
``stream_specs`` stamps onto the stream (and into the broker's
``queued`` rows), so one sweep's events are joinable across hosts; see
``chronos-experiments trace``.  Pre-telemetry payloads without the field
still deserialize (it defaults to ``None``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro.api.facade import ScenarioResult, result_from_dict


@dataclass(frozen=True)
class SweepEvent:
    """Base class of every sweep event (no fields of its own)."""

    #: Wire name of the event, set by each subclass.
    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :func:`event_from_dict`."""
        data: Dict[str, Any] = {"event": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in _RESULT_FIELDS and value is not None:
                # ScenarioResult or ClusterResult — both serialize the
                # same way and round-trip via result_from_dict.
                value = value.to_dict()
            data[field.name] = value
        return data


@dataclass(frozen=True)
class SweepStarted(SweepEvent):
    """The sweep began: how many scenarios, on which executor backend."""

    kind: ClassVar[str] = "sweep-started"

    total: int = 0
    executor: str = "inline"
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioQueued(SweepEvent):
    """One uncached scenario entered the work queue."""

    kind: ClassVar[str] = "scenario-queued"

    fingerprint: str = ""
    index: int = 0
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioStarted(SweepEvent):
    """Execution of a scenario began (pool and distributed: a worker claimed it)."""

    kind: ClassVar[str] = "scenario-started"

    fingerprint: str = ""
    index: int = 0
    worker_id: Optional[str] = None
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioCacheHit(SweepEvent):
    """A scenario was answered by the cache or result store, not executed."""

    kind: ClassVar[str] = "scenario-cache-hit"

    fingerprint: str = ""
    index: int = 0
    result: Optional[ScenarioResult] = None
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioCompleted(SweepEvent):
    """A scenario finished executing; carries its result."""

    kind: ClassVar[str] = "scenario-completed"

    fingerprint: str = ""
    index: int = 0
    result: Optional[ScenarioResult] = None
    worker_id: Optional[str] = None
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioFailed(SweepEvent):
    """A scenario raised; ``error`` is the recorded diagnostic."""

    kind: ClassVar[str] = "scenario-failed"

    fingerprint: str = ""
    index: int = 0
    error: str = ""
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioRetried(SweepEvent):
    """A scenario is being re-run: lease expiry, worker death, stall drains
    and parent-inline retries all surface here instead of happening silently."""

    kind: ClassVar[str] = "scenario-retried"

    fingerprint: str = ""
    index: int = 0
    reason: str = ""
    worker_id: Optional[str] = None
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class SweepFinished(SweepEvent):
    """The sweep ended (normally, cancelled, or stopped early)."""

    kind: ClassVar[str] = "sweep-finished"

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    cancelled: bool = False
    stopped: bool = False
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class TrialProposed(SweepEvent):
    """An adaptive-search algorithm proposed one trial configuration.

    ``params`` is the proposal's dotted-path override mapping (what
    :meth:`~repro.api.spec.ScenarioSpec.with_overrides` receives);
    ``trial_id`` is its stable content id, so resumed searches emit the
    same ids for the same configurations.
    """

    kind: ClassVar[str] = "trial-proposed"

    trial_id: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    algorithm: str = ""
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class TrialPruned(SweepEvent):
    """An adaptive-search algorithm ruled a trial out without running it.

    Pruned trials are the whole point of searching instead of sweeping:
    each one is a scenario the grid would have paid for.  ``reason``
    records why (rung elimination, bisection bracket, ...).
    """

    kind: ClassVar[str] = "trial-pruned"

    trial_id: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    reason: str = ""
    algorithm: str = ""
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class SearchFinished(SweepEvent):
    """An adaptive search ended (normally, cancelled, or stopped early).

    ``trials`` counts proposals resolved (completed + failed, including
    ledger replays of a resumed search); ``executed``/``cache_hits``
    partition the scenarios that backed them, exactly like
    :class:`SweepFinished` does for a grid sweep.
    """

    kind: ClassVar[str] = "search-finished"

    algorithm: str = ""
    objective: str = ""
    trials: int = 0
    executed: int = 0
    cache_hits: int = 0
    pruned: int = 0
    failures: int = 0
    best_trial_id: Optional[str] = None
    best_objective: Optional[float] = None
    cancelled: bool = False
    stopped: bool = False
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class JobArrived(SweepEvent):
    """A job entered a cluster simulation's admission queue.

    Emitted by :func:`repro.cluster.run_cluster` (and the ``multijob``
    CLI) for multi-job scenarios; ``time_s`` is *simulation* time,
    ``queue_length`` the queue depth just after the arrival.
    """

    kind: ClassVar[str] = "job-arrived"

    job_id: str = ""
    workload: str = ""
    fingerprint: str = ""
    time_s: float = 0.0
    queue_length: int = 0
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class JobStarted(SweepEvent):
    """A queued job was admitted and its Application Master started."""

    kind: ClassVar[str] = "job-started"

    job_id: str = ""
    workload: str = ""
    fingerprint: str = ""
    time_s: float = 0.0
    queue_wait_s: float = 0.0
    queue_length: int = 0
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


@dataclass(frozen=True)
class JobFinished(SweepEvent):
    """A running job reached a terminal state (completed or missed)."""

    kind: ClassVar[str] = "job-finished"

    job_id: str = ""
    workload: str = ""
    fingerprint: str = ""
    state: str = ""
    met_deadline: bool = False
    time_s: float = 0.0
    sojourn_s: float = 0.0
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


#: Every concrete event type, keyed by wire name.
EVENT_TYPES: Dict[str, Type[SweepEvent]] = {
    cls.kind: cls
    for cls in (
        SweepStarted,
        ScenarioQueued,
        ScenarioStarted,
        ScenarioCacheHit,
        ScenarioCompleted,
        ScenarioFailed,
        ScenarioRetried,
        SweepFinished,
        TrialProposed,
        TrialPruned,
        SearchFinished,
        JobArrived,
        JobStarted,
        JobFinished,
    )
}

#: Fields that deserialize into a :class:`ScenarioResult`.
_RESULT_FIELDS = ("result",)


def event_from_dict(data: Mapping[str, Any]) -> SweepEvent:
    """Rebuild an event from :meth:`SweepEvent.to_dict` output.

    Raises :class:`ValueError` on an unknown event name or a payload that
    does not match the event's fields, so a corrupt log line is an error
    at the boundary rather than a latent surprise.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"expected an event mapping, got {type(data).__name__}")
    name = data.get("event")
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown sweep event {name!r}; known: {', '.join(sorted(EVENT_TYPES))}"
        )
    allowed = {field.name for field in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "event":
            continue
        if key not in allowed:
            raise ValueError(f"{name}: unknown field {key!r}")
        if key in _RESULT_FIELDS and value is not None:
            value = result_from_dict(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ValueError(f"{name}: {error}") from error


__all__: Tuple[str, ...] = (
    "SweepEvent",
    "SweepStarted",
    "ScenarioQueued",
    "ScenarioStarted",
    "ScenarioCacheHit",
    "ScenarioCompleted",
    "ScenarioFailed",
    "ScenarioRetried",
    "SweepFinished",
    "TrialProposed",
    "TrialPruned",
    "SearchFinished",
    "JobArrived",
    "JobStarted",
    "JobFinished",
    "EVENT_TYPES",
    "event_from_dict",
)
