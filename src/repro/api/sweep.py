"""Grid sweeps over scenario specs: streaming execution, caching, control.

:class:`Sweep` expands a base :class:`~repro.api.spec.ScenarioSpec` with a
list of dotted-path override mappings (or a full cartesian grid via
:meth:`Sweep.grid`) and runs the resulting scenarios through a pluggable
executor backend — ``"inline"`` (this process), ``"pool"`` (local
worker processes on a throwaway sqlite queue) or ``"distributed"`` (a
durable sqlite queue, or a sweep service, shared by worker processes;
both run one driver, :mod:`repro.distributed.executor`) — optionally
against a fingerprint-keyed result store (:class:`ResultStore`) so
repeated sweeps only pay for scenarios they have not seen before.

Execution is *event driven*: every backend reports progress through one
stream of :class:`~repro.api.events.SweepEvent` objects.
:func:`stream_specs` / :meth:`Sweep.stream` yield those events as
scenarios complete; the blocking :func:`run_specs` / :meth:`Sweep.run`
are thin consumers of the same stream that assemble a
:class:`SweepResult`.  On top of the stream sit cooperative cancellation
(:class:`CancelToken`; Ctrl-C returns a *partial* result instead of
losing finished work) and early stopping on any callable over the
events (:func:`max_failures` and :func:`first_deadline_miss` build the
two common ones).

Example::

    from repro.api import CancelToken, ScenarioSpec, Sweep, WorkloadSpec, max_failures

    base = ScenarioSpec(
        workload=WorkloadSpec("google-trace", {"num_jobs": 50}),
        strategy="s-resume",
    )
    sweep = Sweep.grid(base, {
        "strategy": ["clone", "s-restart", "s-resume"],
        "strategy_params.theta": [1e-5, 1e-4],
    })
    for event in sweep.stream(jobs=4):          # live progress
        print(event.kind, getattr(event, "fingerprint", ""))

    token = CancelToken()                        # cancellable blocking run
    result = sweep.run(jobs=4, cancel=token, stop=max_failures())
    print(result.to_text())
"""

from __future__ import annotations

import csv
import io
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.api.events import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioQueued,
    ScenarioStarted,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from repro.api.facade import ScenarioResult, execute, spec_from_dict
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro import telemetry
from repro.telemetry import new_sweep_id

_SWEEP_SCENARIOS = telemetry.counter(
    "chronos_sweep_scenarios_total",
    "Scenarios resolved by sweeps, by outcome",
    labelnames=("outcome",),
)
_SWEEP_RATE = telemetry.gauge(
    "chronos_sweep_scenarios_per_second",
    "Scenario throughput (executed + cache hits over wall time) of the last sweep",
)
_SWEEP_HIT_RATIO = telemetry.gauge(
    "chronos_sweep_cache_hit_ratio",
    "Fraction of the last sweep answered by caches instead of execution",
)


class ResultStore(Protocol):
    """The ``cache=`` contract: a fingerprint-keyed result store.

    :class:`repro.distributed.SqliteResultStore` (``":memory:"`` or a
    file) and :class:`repro.service.HttpResultStore` both implement it.
    """

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results by fingerprint; misses are absent."""

    def put(self, result: ScenarioResult) -> None:
        """Store a result under its fingerprint."""


def _execute_spec_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a spec from its payload, run it, return the result as a dict.

    No sweep path calls this: ``"pool"`` runs the worker fleet.  It stays
    because ``perfbench/tracing.py`` patches it by name, and a missing
    name would crash every traced benchmark run.
    """
    return execute(spec_from_dict(payload)).to_dict()


def _is_sweepable_spec(spec: Any) -> bool:
    """Whether a value can anchor a sweep (scenario or cluster spec)."""
    if isinstance(spec, ScenarioSpec):
        return True
    return (
        getattr(spec, "kind", None) == "cluster"
        and callable(getattr(spec, "with_overrides", None))
        and callable(getattr(spec, "fingerprint", None))
    )


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------
#: Names of the pluggable executor backends.
EXECUTORS = ("inline", "pool", "distributed")


def _check_queue_target(
    executor: Optional[str], db: Optional[Union[str, Path]], broker: Optional[str]
) -> Optional[str]:
    """``executor``, or ``"distributed"`` when a queue target implies it.

    ``db`` and ``broker`` name the queue of the distributed executor;
    neither means anything to ``"inline"`` or ``"pool"`` (whose queue is
    throwaway), so pairing them raises instead of dropping the target.
    """
    if executor is None and (db is not None or broker is not None):
        executor = "distributed"
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r} (available: {', '.join(EXECUTORS)})")
    if broker is not None and executor != "distributed":
        raise ValueError("broker= requires the distributed executor")
    if db is not None and executor != "distributed":
        raise ValueError("db= requires the distributed executor")
    if broker is not None and db is not None:
        raise ValueError("pass either db (sqlite path) or broker (service URL), not both")
    return executor


# ----------------------------------------------------------------------
# Cancellation and early stopping
# ----------------------------------------------------------------------
class CancelToken:
    """Cooperative cancellation flag shared by a sweep and its caller.

    Thread safe: trip it from a signal handler, another thread, or an
    ``on_event`` callback.  Executors poll it between scenarios (and on
    every supervision pass, for the pool and distributed backends),
    finish what is in flight, release unclaimed work and return — so a
    cancelled ``run_specs`` yields a *partial* :class:`SweepResult`
    instead of discarding everything.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


#: A stop condition: called with every sweep event, returns True to stop.
StopCondition = Callable[[SweepEvent], bool]

def max_failures(limit: int = 1) -> StopCondition:
    """A fresh stop condition: stop once ``limit`` scenarios have failed.

    Pair with ``on_failure="continue"`` — under the default
    ``on_failure="raise"`` the first failure raises before a second one
    can ever be counted.  The condition counts, so build one per sweep.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    seen = 0

    def condition(event: SweepEvent) -> bool:
        nonlocal seen
        if isinstance(event, ScenarioFailed):
            seen += 1
        return seen >= limit

    return condition


def first_deadline_miss() -> StopCondition:
    """A stop condition: stop at the first scenario that missed a deadline.

    The Chronos question is often binary — "does this configuration keep
    PoCD at 1.0?" — and a 10⁴-scenario sweep can stop the moment the
    answer is no.
    """

    def condition(event: SweepEvent) -> bool:
        if isinstance(event, (ScenarioCompleted, ScenarioCacheHit)) and event.result is not None:
            return event.result.report.pocd < 1.0
        return False

    return condition


# ----------------------------------------------------------------------
# Table rendering, shared by every result table and export
# ----------------------------------------------------------------------
def _cell(value: Any) -> str:
    """One table cell: a float as ``{:.4g}``, ``None`` empty, else ``str``."""
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return "" if value is None else str(value)


def _aligned(header: Sequence[str], body: Sequence[Sequence[str]]) -> List[str]:
    """Header, rule and body lines of a left-aligned plain-text table."""
    widths = [
        max([len(column)] + [len(line[i]) for line in body]) for i, column in enumerate(header)
    ]
    lines = ["  ".join(column.ljust(width) for column, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend("  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in body)
    return lines


def _csv_text(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """``rows`` as CSV text under a ``columns`` header."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass(frozen=True)
class SweepResult:
    """Outcome of running a batch of scenarios.

    ``executed`` counts simulations actually performed; ``cache_hits``
    counts scenarios answered from the cache; duplicate fingerprints
    within one batch are executed once and fanned back out, so
    ``executed + cache_hits`` can be less than ``len(results)``.

    A *partial* result (cancelled sweep, tripped stop condition, or
    ``on_failure="continue"``) partitions the batch: ``results`` holds
    the completed scenarios in submission order and ``pending`` the
    specs that never finished — re-running exactly those completes the
    sweep without repeating paid-for work.
    """

    results: Tuple[ScenarioResult, ...]
    executed: int
    cache_hits: int
    wall_time_s: float
    pending: Tuple[ScenarioSpec, ...] = ()
    failures: int = 0
    cancelled: bool = False
    stopped: bool = False

    def __len__(self) -> int:
        """Number of completed results."""
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        """Iterate over the completed results, in spec order."""
        return iter(self.results)

    def __getitem__(self, index: int) -> ScenarioResult:
        """The ``index``-th completed result."""
        return self.results[index]

    @property
    def completed(self) -> Tuple[ScenarioResult, ...]:
        """The completed partition (alias of ``results``)."""
        return self.results

    @property
    def partial(self) -> bool:
        """Whether the sweep ended before every scenario finished."""
        return bool(self.pending) or self.cancelled or self.stopped

    # ------------------------------------------------------------------
    # Tabular export
    # ------------------------------------------------------------------
    #: Columns of the tabular exports, in order.
    COLUMNS = (
        "fingerprint",
        "workload",
        "strategy",
        "estimator",
        "seed",
        "num_jobs",
        "pocd",
        "mean_cost",
        "mean_machine_time",
        "mean_response_time",
        "utility",
        "wall_time_s",
    )

    def to_rows(self) -> List[Dict[str, Any]]:
        """One summary dict per scenario (columns in :attr:`COLUMNS`)."""
        return [result.summary_row() for result in self.results]

    def to_csv(self) -> str:
        """The summary rows as CSV text."""
        return _csv_text(self.COLUMNS, self.to_rows())

    def to_text(self) -> str:
        """The summary rows as an aligned plain-text table."""
        body = [[_cell(row[column]) for column in self.COLUMNS] for row in self.to_rows()]
        lines = _aligned(self.COLUMNS, body)
        summary = (
            f"{len(self.results)} scenarios: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.wall_time_s:.1f}s"
        )
        if self.partial:
            if self.stopped:
                state = "stopped early"
            elif self.cancelled:
                state = "cancelled"
            else:  # failures under on_failure="continue", nothing cancelled
                state = "incomplete"
            summary += f" [{state}: {len(self.pending)} pending, {self.failures} failed]"
        lines.append(summary)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The event stream (all executors) and its blocking consumer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Plan:
    """The validated sweep options of one :func:`stream_specs` call."""

    jobs: int
    cache: Optional[ResultStore]
    executor: str
    workers: Optional[int]
    db: Optional[Union[str, Path]]
    broker: Optional[str]
    lease_timeout: Optional[float]
    cancel: CancelToken
    stop: Optional[StopCondition]
    on_failure: str


def _resolve_plan(
    *,
    jobs: int = 1,
    cache: Optional[ResultStore] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[Union[str, Path]] = None,
    lease_timeout: Optional[float] = None,
    cancel: Optional[CancelToken] = None,
    stop: Optional[StopCondition] = None,
    on_failure: str = "raise",
) -> _Plan:
    """Validate the sweep options; the one place they and their defaults live.

    Every sweep entry point (:func:`stream_specs`, :func:`run_specs`,
    :class:`Sweep`, ``repro.adaptive``'s searches, the experiment
    harnesses) passes its keyword options through to here unchanged, so
    an unknown option name is a :class:`TypeError` and a bad value a
    :class:`ValueError`, raised before anything runs.  Their meaning is
    documented on :func:`stream_specs`.
    """
    if jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if broker is not None:
        if not str(broker).startswith(("http://", "https://")):
            raise ValueError(f"broker must be an http(s):// sweep-service URL, got {broker!r}")
        broker = str(broker)
    executor = _check_queue_target(executor, db, broker)
    if executor is None:
        executor = "pool" if jobs > 1 else "inline"
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    if lease_timeout is not None and lease_timeout <= 0:
        raise ValueError("lease timeout must be positive")
    if stop is not None and not callable(stop):
        raise ValueError(f"stop must be a callable or None, got {type(stop).__name__}")
    if on_failure not in ("raise", "continue"):
        raise ValueError(f"on_failure must be 'raise' or 'continue', got {on_failure!r}")
    return _Plan(
        jobs=jobs,
        cache=cache,
        executor=executor,
        workers=workers,
        db=db,
        broker=broker,
        lease_timeout=lease_timeout,
        cancel=cancel if cancel is not None else CancelToken(),
        stop=stop,
        on_failure=on_failure,
    )


def stream_specs(specs: Sequence[ScenarioSpec], **options: Any) -> Iterator[SweepEvent]:
    """Run a batch of scenarios, yielding events as they happen.

    This is the one execution path of the sweep layer: the generator
    emits a :class:`~repro.api.events.SweepStarted`, one
    ``ScenarioCacheHit``/``ScenarioQueued`` per scenario, per-scenario
    lifecycle events from the chosen backend as they occur (the first
    event arrives long before the last scenario finishes), and a final
    ``SweepFinished`` — identically for the inline, pool and distributed
    backends, including sweeps against a remote ``https://`` broker.

    The keyword options, all optional, are the *sweep options* every
    sweep entry point passes through (validated up front, before any
    scenario runs):

    jobs:
        Worker processes (default 1).  ``1`` runs inline; ``>1`` fans
        the uncached scenarios out over a local worker fleet on a
        throwaway queue (the ``"pool"`` executor).
    cache:
        Optional :class:`ResultStore` — e.g.
        :class:`repro.distributed.SqliteResultStore` — probed once with
        ``get_many`` before executing and updated with ``put`` as
        results arrive.
    executor:
        Backend: ``"inline"``, ``"pool"`` or ``"distributed"``.  ``None``
        (the default) means ``"distributed"`` when a ``db`` path or a
        ``broker`` URL is given, else ``"pool"`` when ``jobs > 1`` and
        ``"inline"`` otherwise.  ``"pool"`` and ``"distributed"`` run
        the same driver and workers, so a scenario that fails under
        ``on_failure="raise"`` raises
        :class:`~repro.distributed.TaskFailedError` on both (its
        ``__cause__`` is the scenario's own error).
    workers:
        Worker count for the pool/distributed backends (defaults to
        ``jobs``, or 3 for ``"distributed"`` when ``jobs`` is 1).  With a
        ``broker`` URL the default is *no* local workers — the fleets
        attached to the service do the work; pass a count to also spawn
        a local fleet speaking HTTP.
    db:
        Queue database path for the distributed backend (``"queue.sqlite"``
        or ``"sqlite:queue.sqlite"``).  ``None`` uses a throwaway per-run
        database; pass a real path to make the queue durable — scenarios
        already in its result store are *not* re-executed (they count as
        cache hits).  A path implies ``"distributed"``; with
        ``"inline"`` or ``"pool"`` it raises :class:`ValueError`.
    broker:
        ``http(s)://host:port`` URL of a ``chronos-experiments serve``
        sweep service.  Mutually exclusive with ``db``: the service owns
        the queue database, and this process (plus any worker fleets
        pointed at the same URL, on any host) talks to it over HTTP.
    lease_timeout:
        Seconds a distributed worker's task lease survives without a
        heartbeat before the task is requeued (default 30).  With a
        ``broker`` URL the server's policy governs actual lease expiry.
    cancel:
        A :class:`CancelToken`; tripping it makes every backend finish
        the work in flight, release unclaimed queue tasks and leases,
        and end the stream early (``SweepFinished.cancelled``).
    stop:
        A stop condition, a callable ``condition(event) -> bool`` such
        as ``max_failures()`` or ``first_deadline_miss()``.  Evaluated
        against every event; the first ``True`` ends the sweep
        (``SweepFinished.stopped``).
    on_failure:
        ``"raise"`` (default) re-raises a scenario's error out of the
        stream after emitting ``ScenarioFailed`` — the pre-streaming
        behaviour; ``"continue"`` keeps going, leaving failed scenarios
        in the pending partition.

    Closing the generator early (``break``/``close()``/Ctrl-C) performs
    the same cleanup as cancellation.
    """
    return _event_stream(list(specs), _resolve_plan(**options))


def _event_stream(specs: List[ScenarioSpec], plan: _Plan) -> Iterator[SweepEvent]:
    """The generator behind :func:`stream_specs` (options pre-validated)."""
    cache, token, stop_condition = plan.cache, plan.cancel, plan.stop
    started = time.perf_counter()
    sweep_id = new_sweep_id()

    def clock() -> float:
        return time.perf_counter() - started

    def stamp(event: SweepEvent) -> SweepEvent:
        """Correlate one event with this sweep (backends never set the id)."""
        if getattr(event, "sweep_id", None) is None:
            return replace(event, sweep_id=sweep_id)
        return event

    executed = 0
    cache_hits = 0
    failures = 0
    stopped = False

    def note(event: SweepEvent) -> None:
        """Evaluate the stop condition against one delivered event."""
        nonlocal stopped
        if stop_condition is not None and not stopped and stop_condition(event):
            stopped = True
            token.cancel()

    event: SweepEvent = SweepStarted(
        total=len(specs), executor=plan.executor, elapsed_s=clock(), sweep_id=sweep_id
    )
    yield event
    note(event)

    fingerprints = [spec.fingerprint() for spec in specs]
    stored = cache.get_many(fingerprints) if cache is not None else {}
    pending_by_fp: Dict[str, List[int]] = {}
    for index, fingerprint in enumerate(fingerprints):
        if token.cancelled():
            break
        cached = stored.get(fingerprint)
        if cached is not None:
            cache_hits += 1
            _SWEEP_SCENARIOS.labels(outcome="cache_hit").inc()
            event = ScenarioCacheHit(
                fingerprint=fingerprint,
                index=index,
                result=cached,
                elapsed_s=clock(),
                sweep_id=sweep_id,
            )
        else:
            pending_by_fp.setdefault(fingerprint, []).append(index)
            event = ScenarioQueued(
                fingerprint=fingerprint, index=index, elapsed_s=clock(), sweep_id=sweep_id
            )
        yield event
        note(event)

    if pending_by_fp and not token.cancelled():
        todo = [
            (fingerprint, specs[indices[0]], indices[0])
            for fingerprint, indices in pending_by_fp.items()
        ]
        backend = _open_backend(todo, plan, clock, span={"sweep_id": sweep_id})
        try:
            for event in backend:
                if isinstance(event, ScenarioCompleted):
                    executed += 1
                    _SWEEP_SCENARIOS.labels(outcome="executed").inc()
                    # Cache each result the moment it exists, so work
                    # already done survives a later failure or cancel.
                    if cache is not None and event.result is not None:
                        cache.put(event.result)
                elif isinstance(event, ScenarioCacheHit):
                    # Served by the queue's result store: paid for by an
                    # earlier run, so a cache hit rather than an execution.
                    cache_hits += 1
                    _SWEEP_SCENARIOS.labels(outcome="cache_hit").inc()
                    if cache is not None and event.result is not None:
                        cache.put(event.result)
                elif isinstance(event, ScenarioFailed):
                    failures += 1
                    _SWEEP_SCENARIOS.labels(outcome="failed").inc()
                yield stamp(event)
                note(event)
        finally:
            backend.close()

    elapsed = clock()
    if elapsed > 0:
        _SWEEP_RATE.set((executed + cache_hits) / elapsed)
    if specs:
        _SWEEP_HIT_RATIO.set(cache_hits / len(specs))
    yield SweepFinished(
        total=len(specs),
        executed=executed,
        cache_hits=cache_hits,
        failures=failures,
        cancelled=token.cancelled() and not stopped,
        stopped=stopped,
        elapsed_s=elapsed,
        sweep_id=sweep_id,
    )


def _open_backend(
    todo: List[Tuple[str, ScenarioSpec, int]],
    plan: _Plan,
    clock: Callable[[], float],
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """The per-backend event generator for the deduplicated work list.

    ``"pool"`` is the distributed driver on a throwaway queue with one
    local worker per job; one scenario, or one worker, runs inline.
    """
    workers, jobs = plan.workers, plan.jobs
    if plan.executor == "pool":
        fleet = workers if workers is not None else jobs
        if fleet < 2 or len(todo) < 2:
            return _stream_inline(todo, plan.cancel, plan.on_failure, clock)
    elif plan.executor == "inline":
        return _stream_inline(todo, plan.cancel, plan.on_failure, clock)
    elif plan.broker is not None:
        # None means "the service's attached fleets do the work".
        fleet = workers
    else:
        # A local db defaults to a local worker pool.
        fleet = workers if workers is not None else (jobs if jobs > 1 else 3)
    # Imported lazily: repro.distributed depends on repro.api.
    from repro.distributed import executor as _distributed

    policy = None
    if plan.lease_timeout is not None:
        from repro.distributed import LeasePolicy

        policy = LeasePolicy(timeout=plan.lease_timeout)
    return _distributed.execute_stream(
        todo,
        workers=fleet,
        db=plan.db,
        broker=plan.broker,
        policy=policy,
        cancel=plan.cancel,
        on_failure=plan.on_failure,
        clock=clock,
        span=span,
    )


def _stream_inline(
    todo: Sequence[Tuple[str, ScenarioSpec, int]],
    token: CancelToken,
    on_failure: str,
    clock: Callable[[], float],
) -> Iterator[SweepEvent]:
    """Execute scenarios in this process, one event pair at a time."""
    for fingerprint, spec, index in todo:
        if token.cancelled():
            return
        yield ScenarioStarted(fingerprint=fingerprint, index=index, elapsed_s=clock())
        try:
            outcome = execute(spec)
        except Exception as error:
            yield ScenarioFailed(
                fingerprint=fingerprint,
                index=index,
                error=f"{type(error).__name__}: {error}",
                elapsed_s=clock(),
            )
            if on_failure == "raise":
                raise
            continue
        yield ScenarioCompleted(
            fingerprint=fingerprint, index=index, result=outcome, elapsed_s=clock()
        )


def _drain(
    stream: Iterator[SweepEvent],
    record: Callable[[SweepEvent], None],
    on_event: Optional[Callable[[SweepEvent], None]],
    cancel: Optional[CancelToken],
    final: type,
) -> Tuple[Any, bool]:
    """Feed every event of ``stream`` to ``record``, then to ``on_event``.

    The blocking half of :func:`run_specs` and ``repro.adaptive``'s
    ``run_search``.  Returns the stream's last ``final`` event
    (``SweepFinished`` or ``SearchFinished``; ``None`` if it never came)
    and whether the run was cancelled.  Ctrl-C mid-stream ends the drain
    instead of propagating: closing the stream (always done here)
    terminates pools, releases unclaimed tasks and drains leases, and
    the work that did finish is returned as a partial result instead of
    being lost.
    """
    finished = None
    interrupted = False
    try:
        for event in stream:
            # Record before notifying: if Ctrl-C lands while the callback
            # runs (or in reaction to what it printed), the completion the
            # callback announced is already part of the partial result.
            record(event)
            if isinstance(event, final):
                finished = event
            if on_event is not None:
                on_event(event)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        stream.close()
    cancelled = interrupted or bool(finished and finished.cancelled)
    if not cancelled and finished is None and cancel is not None:
        cancelled = cancel.cancelled()
    return finished, cancelled


def run_specs(
    specs: Sequence[ScenarioSpec],
    *,
    on_event: Optional[Callable[[SweepEvent], None]] = None,
    **options: Any,
) -> SweepResult:
    """Run a batch of scenarios, deduplicated by fingerprint.

    A thin consumer of :func:`stream_specs`: it drains the event stream,
    fans results back out to duplicate fingerprints and assembles a
    :class:`SweepResult` — byte-identical (minus wall time) to what the
    pre-streaming implementation returned, on every backend.

    ``specs`` come back as results in the same order.  The keyword
    options are the sweep options of :func:`stream_specs` (``jobs``,
    ``cache``, ``executor``, ``workers``, ``db``, ``broker``,
    ``lease_timeout``, ``cancel``, ``stop``, ``on_failure``), plus:

    on_event:
        Callback fed every :class:`~repro.api.events.SweepEvent` as it
        happens (progress bars, logging, metrics).

    A tripped ``cancel`` token — like pressing Ctrl-C — returns a
    *partial* result (``cancelled=True``) whose ``pending`` partition
    lists the unfinished specs, with queue tasks and leases released so
    a follow-up run completes exactly the remainder.  A tripped token
    first lets a local fleet finish the scenarios it is running (they
    join the result); Ctrl-C stops at once.  A tripped ``stop``
    condition returns a partial result with ``stopped=True``, and
    ``on_failure="continue"`` records failures and keeps sweeping.
    """
    started = time.perf_counter()
    specs = list(specs)
    stream = stream_specs(specs, **options)
    results: Dict[int, ScenarioResult] = {}
    queued: Dict[str, List[int]] = {}
    counts: Counter = Counter()

    def record(event: SweepEvent) -> None:
        counts[type(event)] += 1
        if isinstance(event, ScenarioQueued):
            queued.setdefault(event.fingerprint, []).append(event.index)
        elif isinstance(event, (ScenarioCacheHit, ScenarioCompleted)):
            for index in queued.get(event.fingerprint, (event.index,)):
                results[index] = event.result

    finished, cancelled = _drain(stream, record, on_event, options.get("cancel"), SweepFinished)
    return SweepResult(
        results=tuple(results[index] for index in sorted(results)),
        executed=counts[ScenarioCompleted],
        cache_hits=counts[ScenarioCacheHit],
        wall_time_s=(
            finished.elapsed_s if finished is not None else time.perf_counter() - started
        ),
        pending=tuple(specs[index] for index in range(len(specs)) if index not in results),
        failures=counts[ScenarioFailed],
        cancelled=cancelled,
        stopped=bool(finished and finished.stopped),
    )


class Sweep:
    """A batch of scenarios derived from one base spec.

    Construct either with an explicit list of override mappings (dotted
    paths, see :meth:`ScenarioSpec.with_overrides`) or with
    :meth:`Sweep.grid`, which expands the cartesian product of the given
    axes.  All scenarios are validated eagerly, so a typo in any override
    fails fast — before anything is simulated.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        overrides: Optional[Sequence[Mapping[str, Any]]] = None,
    ):
        if not _is_sweepable_spec(base):
            raise SpecValidationError(
                "base",
                f"expected ScenarioSpec or ClusterSpec, got {type(base).__name__}",
            )
        self._base = base
        cleaned = []
        for index, override in enumerate(overrides if overrides is not None else [{}]):
            if not isinstance(override, Mapping):
                raise SpecValidationError(
                    f"overrides[{index}]",
                    f"must be a mapping of dotted paths to values, got {type(override).__name__}",
                )
            cleaned.append(dict(override))
        self._overrides: Tuple[Dict[str, Any], ...] = tuple(cleaned) or ({},)
        self._specs = tuple(base.with_overrides(override) for override in self._overrides)

    @staticmethod
    def grid_overrides(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
        """Expand grid axes into override mappings without building specs."""
        if not isinstance(axes, Mapping):
            raise SpecValidationError(
                "grid", f"must be a mapping of dotted paths to value lists, got {type(axes).__name__}"
            )
        for key, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence) or not values:
                raise SpecValidationError(
                    str(key), "grid axis must be a non-empty sequence of values"
                )
        keys = list(axes)
        return [
            dict(zip(keys, combo)) for combo in itertools.product(*(axes[key] for key in keys))
        ]

    @classmethod
    def grid(cls, base: ScenarioSpec, axes: Mapping[str, Sequence[Any]]) -> "Sweep":
        """Cartesian-product sweep over dotted-path axes.

        ``Sweep.grid(base, {"strategy": [...], "seed": [0, 1]})`` yields
        one scenario per combination, in row-major (last axis fastest)
        order.
        """
        return cls(base, cls.grid_overrides(axes))

    @property
    def base(self) -> ScenarioSpec:
        """The spec the overrides are applied to."""
        return self._base

    @property
    def overrides(self) -> Tuple[Dict[str, Any], ...]:
        """The override mapping of each scenario, in order."""
        return self._overrides

    @property
    def specs(self) -> Tuple[ScenarioSpec, ...]:
        """The expanded scenario specs, in order."""
        return self._specs

    def __len__(self) -> int:
        """Number of scenarios in the sweep."""
        return len(self._specs)

    def run(self, **options: Any) -> SweepResult:
        """Execute the sweep; ``options`` as for :func:`run_specs`."""
        return run_specs(self._specs, **options)

    def stream(self, **options: Any) -> Iterator[SweepEvent]:
        """Execute the sweep as an event stream; ``options`` as for :func:`stream_specs`."""
        return stream_specs(self._specs, **options)
