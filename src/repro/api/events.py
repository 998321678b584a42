"""The sweep event stream: what happens, as it happens.

Every executor backend — inline, local worker pool, distributed queue,
remote HTTP service — reports progress through one vocabulary: a small hierarchy
of frozen :class:`SweepEvent` dataclasses.  The
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

Events live in the process that drives the sweep; they are not a wire
format.  Workers report through the broker, whose event log (sqlite, or
the HTTP service's ``events_since`` RPC) has rows of its own, and the
sweep driver turns those rows into events.  ``index`` is the scenario's
position in the submitted spec list (duplicates share the first
position); ``elapsed_s`` is wall time since the sweep began.

Every event also carries an optional ``sweep_id`` — the correlation id
:func:`repro.telemetry.new_sweep_id` mints once per sweep and
``stream_specs`` stamps onto the stream (and into the broker's
``queued`` rows), so one sweep's events are joinable across hosts; see
``chronos-experiments trace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.api.facade import ScenarioResult


@dataclass(frozen=True)
class SweepEvent:
    """Base class of every sweep event (no fields of its own)."""

    #: Name of the event, set by each subclass.
    kind: ClassVar[str] = "event"


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
    #: The answer's config: its params without the algorithm's resource axis.
    best_config: Optional[Dict[str, Any]] = None
    cancelled: bool = False
    stopped: bool = False
    elapsed_s: float = 0.0
    sweep_id: Optional[str] = None


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
)
