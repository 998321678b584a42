"""The distributed sweep driver: enqueue, then reconcile until settled.

:func:`execute_stream` is the backend behind ``run_specs(...,
executor="distributed")`` and ``executor="pool"`` (a local fleet on a
throwaway queue), and so of ``Sweep.stream`` too.  It enqueues the
uncached scenarios on a queue *target* — a sqlite database path or the
``http(s)://`` URL of a :mod:`repro.service` broker front-end — spins up a
:class:`~repro.distributed.worker.WorkerPool` (unless the caller relies
on remote fleets already attached to the service), and then runs one
loop until the queue settles.  Each turn of the loop is a single,
idempotent *reconcile pass* over (event log, store, fleet health):

1. **Observe.**  Tail the broker's monotonic event log
   (:meth:`~repro.distributed.broker.Broker.events_since`, or the
   service's ``events_since`` RPC) and translate queue transitions into
   the :mod:`repro.api.events` vocabulary, reading the payload of every
   result a log batch completed through
   :func:`~repro.distributed.store.stored_results`, which builds each
   result from the spec the driver enqueued, not from the payload's copy
   of it: a payload whose ``fingerprint`` names another spec, or a
   corrupt one, is a miss.  The pass's first read is a
   long poll: it waits up to the pass interval (:data:`SUPERVISE_INTERVAL`
   locally, :data:`REMOTE_SUPERVISE_INTERVAL` against a service) unless
   the queue settles first, so the driver paces itself without sleeping
   and learns that a sweep is done as soon as its last task commits.
   If the log cannot be read (a non-auth error), the pass waits out the
   interval and diffs the result store instead;
   :data:`TAIL_FAILURE_LIMIT` consecutive failures disable tailing for
   the rest of the sweep, with a warning.
2. **Heal.**  Requeue expired leases and supervise the local pool
   (reaping a dead worker releases its leases at once).
3. **Drain when stalled.**  The fleet is stalled when no local worker
   is alive, or when a fleetless remote queue has nothing leased and
   nothing done for one lease timeout.  The stall is announced once (a
   :class:`RuntimeWarning` and one ``ScenarioRetried`` per unresolved
   scenario); from then on each pass runs one claimed task in the driver
   instead of waiting, so a sweep never deadlocks.

The loop ends on ``settled()``, observed before the pass's final log
read, and one last store diff collects anything whose log row was
pruned.  Tasks a fleet worker *failed* then get one retry in the
driver; a scenario that fails inside the driver is final.

A tripped :class:`~repro.api.sweep.CancelToken` on a locally owned
queue with a local pool first *harvests*: the tasks nobody claimed are
withdrawn, and the driver keeps observing until the tasks the pool holds
commit or their workers die, so work already running is not thrown away.
Cleanup then has one path — normal end, cancellation, the consumer
closing the stream (Ctrl-C, an early ``break``, which stops at once) and
errors alike: the local pool is terminated and its leases released, and
— on a locally owned queue database — tasks nobody claimed yet are
withdrawn, so a follow-up run completes exactly the remaining
scenarios.  A shared ``broker`` URL's pending tasks are deliberately
left in place: the queue is content-addressed infrastructure other
sweeps and attached fleets may be counting on, and leftovers simply
land in the result store.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.distributed.broker import TaskFailedError
from repro.distributed.leases import LeasePolicy
from repro.distributed.store import stored_results
from repro.distributed.targets import (
    is_auth_error,
    is_service_url,
    open_broker,
    open_store,
)
from repro.distributed.worker import WorkerPool

# The sweep API is imported by the calls that use it, not here, so that
# importing the distributed package (the sweep service does) loads
# neither numpy nor the simulator.
if TYPE_CHECKING:
    from repro.api.events import SweepEvent
    from repro.api.facade import ScenarioResult
    from repro.api.spec import ScenarioSpec

#: Longest wait of one reconcile pass's event-log long poll (the pass
#: ends sooner when the queue settles).
SUPERVISE_INTERVAL = 0.05

#: The long-poll wait against an HTTP broker: each pass costs a few RPCs
#: through the service's single lock (one of them a write transaction),
#: so healing 20x/sec would tax the server for nothing; the end of the
#: sweep still wakes the driver at once.
REMOTE_SUPERVISE_INTERVAL = 0.25

#: Queue-log rows fetched per ``events_since`` batch while supervising.
EVENT_BATCH = 500

#: Consecutive ``events_since`` failures tolerated (transient transport
#: blips ride through on the store-polling fallback) before event tailing
#: is disabled for the rest of the sweep — with a warning, never silently.
TAIL_FAILURE_LIMIT = 3

#: Lease owner of the tasks the driver runs itself.
DRIVER_ID = "parent-inline"


def default_db_path() -> Path:
    """A fresh throwaway queue database (per-call temp directory)."""
    return Path(tempfile.mkdtemp(prefix="chronos-queue-")) / "queue.sqlite"


def execute_stream(
    todo: Sequence[Tuple[str, ScenarioSpec, int]],
    *,
    workers: Optional[int] = 3,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
    policy: Optional[LeasePolicy] = None,
    cancel=None,
    on_failure: str = "raise",
    clock: Optional[Callable[[], float]] = None,
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """Run ``(fingerprint, spec, index)`` triples across a worker fleet.

    Yields :mod:`repro.api.events` events in observation order: a
    :class:`ScenarioCacheHit` for every scenario already in the result
    store (work a previous run paid for), then per-scenario
    ``ScenarioStarted`` / ``ScenarioRetried`` / ``ScenarioCompleted``
    events tailed from the broker's event log as workers make progress.
    ``index`` rides through untouched, so the sweep layer's positions
    arrive intact on the far side.

    Exactly one queue target applies: ``db`` (sqlite path; ``None`` means
    a throwaway per-run database) or ``broker`` (service URL).  With a
    ``broker`` URL, ``workers=None`` spawns *no* local pool — the fleets
    already attached to the service do the work, which is the multi-host
    topology; a positive ``workers`` spawns a local fleet speaking HTTP,
    which composes with remote fleets.

    The stream comes from the reconcile loop described in the module
    docstring: each pass observes the event log (or diffs the store),
    heals expired leases and dead local workers, and — once the fleet
    is stalled — runs one claimed task in the driver.  A stall (every
    local worker dead, or a fleetless remote queue idle for a full lease
    timeout) is announced by ``ScenarioRetried`` events and a
    :class:`RuntimeWarning` rather than happening silently.

    Tasks whose workers crash are requeued by lease expiry (or
    immediately, when the parent reaps the dead process) with bounded
    attempts.  Tasks a fleet worker *fails* (the scenario itself raised)
    are retried once in the driver after the queue settles — which also
    covers plugins registered only in the parent process under
    ``spawn`` start methods.  A failure inside the driver, whether that
    retry or a stall drain, is final: one :class:`ScenarioFailed`, and
    :class:`TaskFailedError` unless ``on_failure="continue"``, in which
    case the stream records the failure and keeps going.

    ``cancel`` is a :class:`~repro.api.sweep.CancelToken` checked every
    pass.  Tripping it on a local ``db`` target withdraws the run's
    unclaimed tasks and yields the local pool's in-flight scenarios as
    they commit before the stream ends; closing the generator ends it at
    once.  Either way the one cleanup path terminates the local pool and
    releases its leases.  On a shared ``broker`` URL the unclaimed tasks
    are left for the attached fleets (and any concurrent sweeps) to
    finish, and a tripped token ends the stream at once.
    """
    if broker is not None and db is not None:
        raise ValueError("pass either db (sqlite path) or broker (service URL), not both")
    if broker is not None and not is_service_url(broker):
        raise ValueError(f"broker must be an http(s):// service URL, got {broker!r}")
    if on_failure not in ("raise", "continue"):
        raise ValueError(f"on_failure must be 'raise' or 'continue', got {on_failure!r}")
    remote = broker is not None
    throwaway = db is None and not remote
    target = str(broker) if remote else str(db if db is not None else default_db_path())
    policy = policy if policy is not None else LeasePolicy()
    if workers is None:
        workers = 0 if remote else 3
    if workers < 0 or (workers == 0 and not remote):
        raise ValueError("workers must be positive (or None with a broker URL)")
    if clock is None:
        origin = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - origin

    return _stream(
        list(todo),
        target=target,
        remote=remote,
        throwaway=throwaway,
        workers=workers,
        policy=policy,
        cancel=cancel,
        on_failure=on_failure,
        clock=clock,
        span=span,
    )


def _stream(
    todo: List[Tuple[str, ScenarioSpec, int]],
    *,
    target: str,
    remote: bool,
    throwaway: bool,
    workers: int,
    policy: LeasePolicy,
    cancel,
    on_failure: str,
    clock: Callable[[], float],
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """The generator behind :func:`execute_stream` (inputs validated)."""
    from repro.api.events import (
        ScenarioCacheHit,
        ScenarioCompleted,
        ScenarioFailed,
        ScenarioRetried,
        ScenarioStarted,
    )
    from repro.api.facade import execute as execute_spec
    from repro.api.facade import spec_from_dict

    def cancelled() -> bool:
        return cancel is not None and cancel.cancelled()

    broker_client = open_broker(target, policy=policy)
    store = open_store(target)
    # Fingerprints whose terminal event (completed or failed) was yielded.
    resolved: Set[str] = set()
    position_of: Dict[str, int] = {}
    spec_of: Dict[str, Any] = {}
    pool: Optional[WorkerPool] = None

    def unresolved() -> List[str]:
        return [fingerprint for fingerprint in position_of if fingerprint not in resolved]

    def completed(
        fingerprint: str, result: ScenarioResult, worker_id: Optional[str] = None
    ) -> SweepEvent:
        resolved.add(fingerprint)
        return ScenarioCompleted(
            fingerprint=fingerprint,
            index=position_of[fingerprint],
            result=result,
            worker_id=worker_id,
            elapsed_s=clock(),
        )

    def retried(fingerprint: str, reason: str, worker_id: Optional[str] = None) -> SweepEvent:
        return ScenarioRetried(
            fingerprint=fingerprint,
            index=position_of[fingerprint],
            reason=reason,
            worker_id=worker_id,
            elapsed_s=clock(),
        )

    def store_diff() -> Iterator[SweepEvent]:
        """Collect finished results straight from the store, log or no log."""
        fresh = (store.fingerprints() & position_of.keys()) - resolved
        results = stored_results(store, {fp: spec_of[fp] for fp in fresh})
        for fingerprint, result in results.items():
            yield completed(fingerprint, result)

    def observe(wait_s: float) -> Iterator[SweepEvent]:
        """Translate fresh queue-log rows into sweep events.

        The first read waits up to ``wait_s`` for the queue to settle.
        A non-auth ``events_since`` error makes this pass a store diff
        instead, after the same wait; :data:`TAIL_FAILURE_LIMIT`
        consecutive ones disable tailing for the rest of the sweep, with
        a warning.
        """
        nonlocal since, tail_failures
        while tail_failures < TAIL_FAILURE_LIMIT:
            try:
                batch = broker_client.events_since(since, limit=EVENT_BATCH, wait_s=wait_s)
            except Exception as error:
                if is_auth_error(error):
                    raise
                tail_failures += 1
                if tail_failures >= TAIL_FAILURE_LIMIT:
                    warnings.warn(
                        f"disabling sweep event tailing after {tail_failures} "
                        f"consecutive events_since failures ({error}); progress "
                        "degrades to result-store polling",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                break
            tail_failures, wait_s = 0, 0.0
            # One batched read for every result this batch completed.
            results = stored_results(
                store,
                {
                    row["fingerprint"]: spec_of[row["fingerprint"]]
                    for row in batch
                    if row.get("kind") == "completed"
                    and row.get("fingerprint") in position_of
                    and row["fingerprint"] not in resolved
                },
            )
            for row in batch:
                since = max(since, int(row["seq"]))
                fingerprint, kind = row.get("fingerprint"), row.get("kind")
                index = position_of.get(fingerprint)
                if index is None or fingerprint in resolved:
                    continue  # another run's task, or already final here
                if kind == "started":
                    yield ScenarioStarted(
                        fingerprint=fingerprint,
                        index=index,
                        worker_id=row.get("worker_id"),
                        elapsed_s=clock(),
                    )
                elif kind == "retried":
                    reason = row.get("detail") or "lease expired; task requeued"
                    yield retried(fingerprint, reason, row.get("worker_id"))
                elif kind == "failed":
                    # Terminal in the queue, but a fleet failure gets one
                    # retry in the driver once the queue settles.
                    detail = row.get("detail") or "task failed"
                    reason = f"{detail}; will retry inline in the parent"
                    yield retried(fingerprint, reason, row.get("worker_id"))
                elif kind == "completed" and results.get(fingerprint) is not None:
                    yield completed(fingerprint, results[fingerprint], row.get("worker_id"))
            if len(batch) < EVENT_BATCH:
                return
        # No long poll paced this pass, so wait as it would have.
        time.sleep(wait_s)
        yield from store_diff()

    def run_in_driver(
        fingerprint: str, payload: Dict[str, Any], fleet_error: Optional[str] = None
    ) -> Iterator[SweepEvent]:
        """Execute one scenario in this process; its outcome is final.

        ``fleet_error`` marks the retry of a task a fleet worker failed;
        without it the driver holds the task's lease (a stall drain).
        """
        index = position_of.get(fingerprint)
        try:
            result = execute_spec(spec_from_dict(payload))
        except Exception as error:
            if fleet_error is None:
                detail = f"{type(error).__name__}: {error}"
                broker_client.fail(fingerprint, DRIVER_ID, detail)
            else:
                detail = f"{fleet_error}; inline retry: {error}"
            if index is None or fingerprint in resolved:
                return  # another run's task, or one a late fleet commit resolved
            resolved.add(fingerprint)
            yield ScenarioFailed(
                fingerprint=fingerprint, index=index, error=detail, elapsed_s=clock()
            )
            if on_failure == "raise":
                raise TaskFailedError(fingerprint, detail) from error
            return
        broker_client.complete(fingerprint, DRIVER_ID, result.to_dict())
        if index is not None and fingerprint not in resolved:
            yield completed(fingerprint, result, DRIVER_ID)

    def harvest() -> Iterator[SweepEvent]:
        """Collect the local fleet's in-flight work once the token trips.

        A leased task costs real compute and is seconds from done, so the
        driver withdraws the unclaimed tasks (again on every pass: a dead
        worker's leases return to pending) and keeps observing until no
        live pool worker holds a lease.
        """
        while True:
            broker_client.release_pending(unresolved())
            members = set(pool.worker_ids)
            in_flight = any(row["worker_id"] in members for row in broker_client.leased())
            yield from observe(SUPERVISE_INTERVAL if in_flight else 0.0)
            if not in_flight:
                return
            pool.supervise(broker_client)

    try:
        # One fingerprint-set query up front instead of a point read per
        # scenario: over HTTP that is one round trip, and on sqlite it
        # keeps re-run short-circuiting O(stored) rather than O(todo).
        known = store.fingerprints()
        cached = stored_results(
            store, {fingerprint: spec for fingerprint, spec, _ in todo if fingerprint in known}
        )
        pending: List[Tuple[str, ScenarioSpec, int]] = []
        for fingerprint, spec, index in todo:
            stored = cached.get(fingerprint)
            if stored is not None:
                yield ScenarioCacheHit(
                    fingerprint=fingerprint, index=index, result=stored, elapsed_s=clock()
                )
            else:
                pending.append((fingerprint, spec, index))
        if not pending or cancelled():
            return

        # Remember where the queue log stands *before* we enqueue, so the
        # tail replays every transition of this run and none of an
        # earlier one.
        since = broker_client.last_event_seq()
        tail_failures = 0
        broker_client.enqueue(
            [spec.to_dict() for _, spec, _ in pending],
            [fingerprint for fingerprint, _, _ in pending],
            span=span,
        )
        position_of.update({fingerprint: index for fingerprint, _, index in pending})
        spec_of.update({fingerprint: spec for fingerprint, spec, _ in pending})
        if workers > 0:
            pool = WorkerPool(
                target,
                workers=min(workers, len(pending)),
                policy=policy,
            ).start()

        interval = REMOTE_SUPERVISE_INTERVAL if remote else SUPERVISE_INTERVAL
        wait_s = interval  # the next pass's long-poll wait
        stall: Optional[str] = None  # the announced cause, once stalled
        last_done, last_progress = -1, time.monotonic()
        while True:
            if cancelled():
                if pool is not None and not remote:
                    yield from harvest()
                return
            settled = broker_client.settled()
            yield from observe(0.0 if settled else wait_s)
            if settled:
                break
            broker_client.requeue_expired()
            if pool is not None:
                pool.supervise(broker_client)
            if stall is None:
                if pool is not None:
                    # The re-check matters: exit_when_idle workers leave
                    # as soon as the queue settles.
                    if pool.alive_count() == 0 and not broker_client.settled():
                        stall = "local worker pool died"
                else:
                    # Fleetless remote queue: nothing leased and nothing
                    # done for a full lease timeout means no fleet is
                    # attached.
                    counts = broker_client.counts()
                    if counts["leased"] > 0 or counts["done"] != last_done:
                        last_done, last_progress = counts["done"], time.monotonic()
                    elif time.monotonic() - last_progress > policy.timeout:
                        stall = f"no worker fleet attached to {target}"
                if stall is not None:
                    warnings.warn(
                        f"distributed sweep stalled ({stall}); draining the remaining "
                        f"{len(unresolved())} task(s) inline in the sweep driver",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    for fingerprint in unresolved():
                        yield retried(fingerprint, f"{stall}; draining inline in the sweep driver")
                    broker_client.register_worker(DRIVER_ID)
            task = broker_client.claim(DRIVER_ID) if stall is not None else None
            wait_s = interval if task is None else 0.0
            if task is not None:
                yield from run_in_driver(task.fingerprint, task.payload)
        # Anything completed without a visible log row (events pruned
        # mid-run) is still collected.
        yield from store_diff()

        # Tasks a fleet worker failed get one retry in the driver: it sees
        # plugins the workers may not (spawn start method), and a genuine
        # scenario error surfaces here exactly like the inline executor's.
        for fingerprint, payload, error in broker_client.failed_payloads():
            if fingerprint not in position_of or fingerprint in resolved:
                continue
            if cancelled():
                return
            yield retried(fingerprint, f"{error}; retrying inline in the parent")
            yield from run_in_driver(fingerprint, payload, fleet_error=error)
    finally:
        # The one cleanup path: normal end, cancellation, a closed stream
        # and errors alike.  On a *local* queue this driver is the
        # producer, so its unclaimed tasks are withdrawn; a broker URL is
        # shared infrastructure whose fleets and concurrent sweeps may
        # count on them, so they are left in place.
        _release(broker_client, pool, [] if remote else unresolved())
        store.close()
        broker_client.close()
        if throwaway:
            # We minted the temp queue; its durability has no value past
            # this call, so do not litter the temp dir with WAL files.
            shutil.rmtree(Path(target).parent, ignore_errors=True)


def _release(broker_client, pool: Optional[WorkerPool], unresolved: List[str]) -> None:
    """Stop the local pool, drain its leases, withdraw unclaimed tasks.

    Best effort by design — cleanup must never raise over a half-
    reachable broker; anything missed here is healed by lease expiry and
    the content-addressed re-enqueue of a follow-up run.
    """
    if pool is not None:
        pool.terminate()
        for worker_id in list(pool.worker_ids):
            try:
                broker_client.release_worker(worker_id)
            except Exception:
                pass
    if unresolved:
        try:
            broker_client.release_pending(unresolved)
        except Exception:
            pass
