"""The search driver: ask/tell algorithms executed as scenario batches.

:func:`stream_search` is to adaptive search what
:func:`repro.api.stream_specs` is to grid sweeps — the one execution
path, yielding events as they happen.  Each iteration asks the algorithm
for a batch of proposals, converts them to
:class:`~repro.api.spec.ScenarioSpec`\\ s via ``base.with_overrides``,
replays any trial the :class:`~repro.adaptive.ledger.TrialLedger`
already settled (zero re-execution on resume), runs the rest through
:func:`stream_specs` on whatever executor backend the caller chose
(inline, pool, distributed sqlite queue, or a remote HTTP service with
auth + TLS — all unchanged), tells the oriented objective scores back,
and surfaces what the algorithm pruned.

The stream speaks the ordinary :class:`~repro.api.events.SweepEvent`
vocabulary — scenario lifecycle events of each executed batch are
forwarded verbatim — plus three search-specific members:
``TrialProposed``, ``TrialPruned`` and a final ``SearchFinished``.  Stop
conditions, :class:`~repro.api.CancelToken` cancellation and Ctrl-C
partial-result semantics therefore work for searches exactly as they do
for grids.

When the search targets a distributed queue (``db=``) or a broker
service (``broker=``), trial proposals and prunes are also appended —
best effort — to the broker's event log, so ``workers status`` and the
``events_since`` RPC show the *search's* decisions next to the queue's
task lifecycle.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.adaptive.algorithms import AlgorithmAdapter, Proposal, make_algorithm
from repro.adaptive.ledger import TrialLedger, TrialRecord
from repro.adaptive.objectives import Objective, make_objective, summary_metrics
from repro.api.events import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    SearchFinished,
    SweepEvent,
    SweepFinished,
    SweepStarted,
    TrialProposed,
    TrialPruned,
)
from repro.api.facade import ScenarioResult
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.api.sweep import (
    _aligned,
    _cell,
    _csv_text,
    _drain,
    _event_stream,
    _is_sweepable_spec,
    _Plan,
    _resolve_plan,
)
from repro import telemetry

_TRIALS = telemetry.counter(
    "chronos_search_trials_total",
    "Adaptive-search trial decisions, by decision",
    labelnames=("decision",),
)


class _TrialEventLog:
    """Best-effort mirror of trial decisions into a broker's event log.

    Opens the broker lazily (sqlite path or service URL, via
    :func:`repro.distributed.targets.open_broker`) and disables itself
    permanently on the first failure — a search must never die because
    its progress mirror did.
    """

    def __init__(self, target: Optional[Union[str, Path]]):
        self._target = target
        self._broker: Any = None
        self._dead = target is None

    def log(self, kind: str, fingerprint: Optional[str], detail: Optional[str]) -> None:
        """Best-effort event write; any failure silences future writes."""
        if self._dead:
            return
        try:
            if self._broker is None:
                from repro.distributed.targets import open_broker

                self._broker = open_broker(self._target)
            self._broker.record_event(kind, fingerprint=fingerprint, detail=detail)
        except Exception:
            self._dead = True

    def close(self) -> None:
        """Release the broker connection, ignoring teardown errors."""
        if self._broker is not None:
            try:
                self._broker.close()
            except Exception:
                pass
            self._broker = None


def stream_search(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    *,
    algorithm: str,
    objective: Union[str, Objective] = "utility",
    algorithm_params: Optional[Mapping[str, Any]] = None,
    max_trials: Optional[int] = None,
    batch: int = 8,
    ledger: Optional[Union[str, Path, TrialLedger]] = None,
    **options: Any,
) -> Iterator[SweepEvent]:
    """Run an adaptive search, yielding events as they happen.

    Parameters
    ----------
    base:
        The spec every proposal's overrides are applied to.
    axes:
        Dotted-path search axes (``{"strategy_params.fixed_r": [0, 1,
        2]}``) — the same shape :meth:`repro.api.Sweep.grid` takes;
        algorithms decide how to explore them.
    algorithm:
        Registered algorithm name, required: ``successive_halving``
        (best mean score), ``frontier_bisect`` (cheapest PoCD-feasible
        value of one axis), or anything added via
        :func:`~repro.adaptive.algorithms.register_algorithm`.
    objective:
        Registered objective name (or an
        :class:`~repro.adaptive.objectives.Objective`); the driver
        orients values so the best trial always maximizes the score.
    algorithm_params:
        Extra keyword configuration for the algorithm factory
        (``{"eta": 2, "min_pocd": 0.99}``, ...).
    max_trials:
        Budget of resolved trials (replayed ledger trials count — the
        budget is about search progress, not compute).  ``None`` runs
        until the algorithm finishes.
    batch:
        How many proposals to request and execute per round; with a
        parallel executor this is the fan-out unit.
    ledger:
        Path of the trial ledger (or an open :class:`TrialLedger`).
        ``None`` keeps trials in memory — the search works but cannot
        resume.  A ledger written by a different algorithm, objective or
        base spec is refused.
    options:
        The sweep options of :func:`repro.api.stream_specs`, validated
        up front and used for every batch — a search runs anywhere a
        sweep does.  Two defaults differ: ``cache`` is a fresh in-memory
        :class:`~repro.distributed.SqliteResultStore`, so duplicate
        fingerprints across batches never re-execute, and
        ``on_failure`` is ``"continue"`` (a failed trial is an
        infeasible data point, not a reason to abort the search).  The
        ``stop`` condition sees every forwarded scenario event *and*
        the search events.
    """
    if not _is_sweepable_spec(base):
        raise SpecValidationError(
            "base", f"expected ScenarioSpec or ClusterSpec, got {type(base).__name__}"
        )
    if not isinstance(axes, Mapping) or not axes:
        raise SpecValidationError(
            "axes", "must be a non-empty mapping of dotted paths to value lists"
        )
    if batch < 1:
        raise ValueError("batch must be a positive integer")
    if max_trials is not None and max_trials < 1:
        raise ValueError("max_trials must be a positive integer or None")
    options.setdefault("on_failure", "continue")
    plan = _resolve_plan(**options)
    objective_obj = make_objective(objective)
    algo = make_algorithm(algorithm, axes, **dict(algorithm_params or {}))
    own_ledger = not isinstance(ledger, TrialLedger)
    book = ledger if isinstance(ledger, TrialLedger) else TrialLedger(ledger)
    try:
        book.claim_meta("algorithm", algo.name)
        book.claim_meta("objective", objective_obj.name)
        book.claim_meta("base_fingerprint", base.fingerprint())
    except Exception:
        if own_ledger:
            book.close()
        raise
    if plan.cache is None:
        from repro.distributed import SqliteResultStore

        plan = replace(plan, cache=SqliteResultStore(":memory:"))
    return _search_stream(
        base, algo, objective_obj, book, own_ledger, plan, max_trials=max_trials, batch=batch
    )


def _search_stream(
    base: ScenarioSpec,
    algo: AlgorithmAdapter,
    objective: Objective,
    book: TrialLedger,
    own_ledger: bool,
    plan: _Plan,
    *,
    max_trials: Optional[int],
    batch: int,
) -> Iterator[SweepEvent]:
    """The generator behind :func:`stream_search` (options pre-validated).

    Each batch runs on ``plan`` without its stop condition: the search,
    not each batch, evaluates ``stop``, and one token cancels both.
    """
    token, stop_condition = plan.cancel, plan.stop
    batch_plan = replace(plan, stop=None)
    started = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - started

    trials = executed = cache_hits = failures = pruned_total = 0
    stopped = False

    def note(event: SweepEvent) -> None:
        nonlocal stopped
        if stop_condition is not None and not stopped and stop_condition(event):
            stopped = True
            token.cancel()

    mirror = _TrialEventLog(plan.broker if plan.broker is not None else plan.db)
    try:
        while not token.cancelled():
            if max_trials is not None and trials >= max_trials:
                break
            if algo.finished():
                break
            want = batch if max_trials is None else min(batch, max_trials - trials)
            proposals = algo.ask(want)
            if not proposals:
                # Either finished, or waiting on trials that will never
                # arrive (cancelled mid-batch); both end the loop.
                break

            fresh: List[Tuple[Proposal, ScenarioSpec, str]] = []
            for proposal in proposals:
                record = book.get(proposal.trial_id)
                if record is not None and record.state in ("completed", "failed"):
                    # Replay from the ledger: the trial is settled, the
                    # algorithm just has not heard about it yet.
                    event: SweepEvent = TrialProposed(
                        trial_id=proposal.trial_id,
                        params=dict(proposal.params),
                        fingerprint=record.fingerprint or "",
                        algorithm=algo.name,
                        elapsed_s=clock(),
                    )
                    yield event
                    note(event)
                    if record.state == "completed":
                        algo.tell(proposal.trial_id, record.score, record.metrics)
                    else:
                        failures += 1
                        algo.tell(proposal.trial_id, None)
                    trials += 1
                    continue
                spec = base.with_overrides(proposal.params)
                fingerprint = spec.fingerprint()
                book.propose(proposal.trial_id, proposal.params, fingerprint)
                _TRIALS.labels(decision="proposed").inc()
                event = TrialProposed(
                    trial_id=proposal.trial_id,
                    params=dict(proposal.params),
                    fingerprint=fingerprint,
                    algorithm=algo.name,
                    elapsed_s=clock(),
                )
                yield event
                note(event)
                mirror.log("trial-proposed", fingerprint, detail=proposal.trial_id)
                fresh.append((proposal, spec, fingerprint))

            outcome: Dict[str, ScenarioResult] = {}
            failed_fingerprints: set = set()
            if fresh and not token.cancelled():
                inner = _event_stream([spec for _, spec, _ in fresh], batch_plan)
                try:
                    for event in inner:
                        if isinstance(event, SweepStarted):
                            continue  # the search, not each batch, frames the run
                        if isinstance(event, SweepFinished):
                            executed += event.executed
                            cache_hits += event.cache_hits
                            continue
                        if (
                            isinstance(event, (ScenarioCompleted, ScenarioCacheHit))
                            and event.result is not None
                        ):
                            outcome[event.fingerprint] = event.result
                        elif isinstance(event, ScenarioFailed):
                            failed_fingerprints.add(event.fingerprint)
                        yield event
                        note(event)
                finally:
                    inner.close()

            for proposal, _spec, fingerprint in fresh:
                result = outcome.get(fingerprint)
                if result is not None:
                    value = objective.value(result)
                    score = objective.orient(value)
                    metrics = summary_metrics(result)
                    book.complete(proposal.trial_id, value, score, metrics)
                    algo.tell(proposal.trial_id, score, metrics)
                    trials += 1
                elif fingerprint in failed_fingerprints:
                    failures += 1
                    book.fail(proposal.trial_id, "scenario failed")
                    algo.tell(proposal.trial_id, None)
                    trials += 1
                # else: cancelled before it ran — left leased for resume.

            for proposal, reason in algo.drain_pruned():
                book.prune(proposal.trial_id, proposal.params, reason)
                pruned_total += 1
                _TRIALS.labels(decision="pruned").inc()
                event = TrialPruned(
                    trial_id=proposal.trial_id,
                    params=dict(proposal.params),
                    reason=reason,
                    algorithm=algo.name,
                    elapsed_s=clock(),
                )
                yield event
                note(event)
                mirror.log("trial-pruned", None, detail=f"{proposal.trial_id}: {reason}")

        best, best_objective, best_config = _resolve_best(algo, book)
        finished = SearchFinished(
            algorithm=algo.name,
            objective=objective.name,
            trials=trials,
            executed=executed,
            cache_hits=cache_hits,
            pruned=pruned_total,
            failures=failures,
            best_trial_id=best.trial_id if best is not None else None,
            best_objective=best_objective,
            best_config=best_config,
            cancelled=token.cancelled() and not stopped,
            stopped=stopped,
            elapsed_s=clock(),
        )
        mirror.log(
            "search-finished",
            None,
            detail=(
                f"{algo.name}: {trials} trials, {executed} executed, "
                f"{pruned_total} pruned"
            ),
        )
        yield finished
        note(finished)
    finally:
        mirror.close()
        if own_ledger:
            book.close()


def _resolve_best(
    algo: AlgorithmAdapter, book: TrialLedger
) -> Tuple[Optional[TrialRecord], Optional[float], Optional[Dict[str, Any]]]:
    """The search's answer, its objective and the config it names.

    The algorithm's pick, reported with the mean objective of the trials
    it was ranked by (:meth:`AlgorithmAdapter.best_trial_ids`) and the
    algorithm's config of it (:meth:`AlgorithmAdapter.config_params`);
    else the ledger's best completed trial, whole.
    """
    best_id = algo.best_trial_id()
    if best_id is not None:
        record = book.get(best_id)
        if record is not None and record.state == "completed":
            values = [
                peer.objective
                for peer in map(book.get, algo.best_trial_ids())
                if peer is not None and peer.state == "completed" and peer.objective is not None
            ]
            objective = sum(values) / len(values) if values else record.objective
            return record, objective, algo.config_params(record.params)
    best = book.best()
    if best is None:
        return None, None, None
    return best, best.objective, dict(best.params)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one adaptive search.

    ``trials`` holds every ledger row in proposal order — completed,
    failed, pruned and (after a cancellation) still-leased ones — so the
    full decision trail survives into analysis.  ``best`` is the
    search's answer: the algorithm's own pick (the cheapest feasible
    value for ``frontier_bisect``, a trial of the surviving config for
    ``successive_halving``), otherwise the completed trial with the best
    oriented score.  ``best_objective`` is the answer's raw objective
    value: for ``successive_halving`` the surviving config's mean over
    its completed trials, the value it was ranked by.  ``best_config``
    is the config that value belongs to: ``best``'s params without the
    algorithm's resource axis (``successive_halving``'s seeds).
    """

    algorithm: str
    objective: str
    trials: Tuple[TrialRecord, ...]
    best: Optional[TrialRecord]
    best_objective: Optional[float]
    executed: int
    cache_hits: int
    pruned: int
    failures: int
    wall_time_s: float
    cancelled: bool = False
    stopped: bool = False
    best_config: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        """Number of recorded trials."""
        return len(self.trials)

    def __iter__(self) -> Iterator[TrialRecord]:
        """Iterate over the recorded trials, in proposal order."""
        return iter(self.trials)

    @property
    def partial(self) -> bool:
        """Whether the search ended before its algorithm finished."""
        return self.cancelled or self.stopped

    @property
    def best_params(self) -> Optional[Dict[str, Any]]:
        """The winning config's override mapping, or ``None``."""
        return dict(self.best_config) if self.best_config is not None else None

    @property
    def completed(self) -> Tuple[TrialRecord, ...]:
        """The completed trials, in proposal order."""
        return tuple(record for record in self.trials if record.state == "completed")

    #: Columns of the tabular exports, in order.
    COLUMNS = ("trial_id", "state", "objective", "score", "fingerprint", "params")

    def to_rows(self) -> List[Dict[str, Any]]:
        """One summary dict per trial (columns in :attr:`COLUMNS`)."""
        rows = []
        for record in self.trials:
            rows.append(
                {
                    "trial_id": record.trial_id,
                    "state": record.state,
                    "objective": record.objective,
                    "score": record.score,
                    "fingerprint": record.fingerprint or "",
                    "params": ", ".join(
                        f"{key}={value}" for key, value in sorted(record.params.items())
                    ),
                }
            )
        return rows

    def to_csv(self) -> str:
        """The trial rows as CSV text."""
        return _csv_text(self.COLUMNS, self.to_rows())

    def to_text(self) -> str:
        """The trial table plus a one-line summary, aligned for a terminal."""
        body = [[_cell(row[column]) for column in self.COLUMNS] for row in self.to_rows()]
        lines = _aligned(self.COLUMNS, body)
        resolved = sum(1 for r in self.trials if r.state in ("completed", "failed"))
        summary = (
            f"{self.algorithm} search over {self.objective}: {resolved} trials "
            f"({self.executed} executed, {self.cache_hits} cache hits, "
            f"{self.pruned} pruned, {self.failures} failed), {self.wall_time_s:.1f}s"
        )
        if self.best is not None:
            config = self.best_params or {}
            # A trial id names the answer only when the answer is one trial.
            label = "" if config != self.best.params else f" {self.best.trial_id}"
            summary += (
                f"\nbest:{label} {self.objective}="
                + "{:.4g}".format(self.best_objective)
                + (
                    " ("
                    + ", ".join(f"{key}={value}" for key, value in sorted(config.items()))
                    + ")"
                    if config
                    else ""
                )
            )
        if self.partial:
            state = "stopped early" if self.stopped else "cancelled"
            summary += f" [{state}]"
        lines.append(summary)
        return "\n".join(lines)


def run_search(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    *,
    algorithm: str,
    objective: Union[str, Objective] = "utility",
    algorithm_params: Optional[Mapping[str, Any]] = None,
    max_trials: Optional[int] = None,
    batch: int = 8,
    ledger: Optional[Union[str, Path, TrialLedger]] = None,
    **options: Any,
) -> SearchResult:
    """Run an adaptive search to completion (or interruption).

    A thin consumer of :func:`stream_search`, exactly as
    :func:`repro.api.run_specs` consumes :func:`stream_specs`, and
    through the same drain: it feeds every event to ``on_event`` and
    assembles a :class:`SearchResult` from the trial ledger.  Ctrl-C
    returns a *partial* result — settled trials, current best — instead
    of losing paid-for work; re-running with the same ``ledger`` path
    resumes with zero re-executed scenarios.  ``options`` are
    :func:`stream_search`'s sweep options plus ``on_event``, as for
    :func:`repro.api.run_specs`.
    """
    on_event = options.pop("on_event", None)
    own_ledger = not isinstance(ledger, TrialLedger)
    book = ledger if isinstance(ledger, TrialLedger) else TrialLedger(ledger)
    started = time.perf_counter()
    counts: Counter = Counter()
    try:
        stream = stream_search(
            base,
            axes,
            algorithm=algorithm,
            objective=objective,
            algorithm_params=algorithm_params,
            max_trials=max_trials,
            batch=batch,
            ledger=book,
            **options,
        )
        finished, cancelled = _drain(
            stream,
            lambda event: counts.update((type(event),)),
            on_event,
            options.get("cancel"),
            SearchFinished,
        )
        records = tuple(book.records())
        best: Optional[TrialRecord] = None
        best_objective: Optional[float] = None
        best_config: Optional[Dict[str, Any]] = None
        if finished is not None and finished.best_trial_id is not None:
            best = book.get(finished.best_trial_id)
            best_objective = finished.best_objective
            best_config = finished.best_config
        if best is None:
            best = book.best()
            best_objective = best.objective if best is not None else None
            best_config = dict(best.params) if best is not None else None
        return SearchResult(
            algorithm=finished.algorithm if finished is not None else str(algorithm),
            objective=(
                finished.objective
                if finished is not None
                else (objective.name if isinstance(objective, Objective) else str(objective))
            ),
            trials=records,
            best=best,
            best_objective=best_objective,
            executed=finished.executed if finished is not None else counts[ScenarioCompleted],
            cache_hits=(
                finished.cache_hits if finished is not None else counts[ScenarioCacheHit]
            ),
            pruned=finished.pruned if finished is not None else counts[TrialPruned],
            failures=finished.failures if finished is not None else counts[ScenarioFailed],
            wall_time_s=(
                finished.elapsed_s if finished is not None else time.perf_counter() - started
            ),
            cancelled=cancelled,
            stopped=bool(finished and finished.stopped),
            best_config=best_config,
        )
    finally:
        if own_ledger:
            book.close()
