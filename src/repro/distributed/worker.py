"""Worker processes that execute queued scenarios.

A :class:`Worker` repeatedly claims a batch of tasks from the broker,
rebuilds each :class:`~repro.api.spec.ScenarioSpec` from the stored
payload, runs it through the :func:`repro.api.run` façade and writes the
batch's results back with ``complete_many`` — all while a
:class:`~repro.distributed.leases.LeaseKeeper` thread renews the leases
of the batch so slow scenarios are not mistaken for crashes.

Claims are sized by time, not by count.  The first claim takes one
task; each later one takes about :data:`CLAIM_TARGET_S` worth of work at
the last batch's measured seconds per task, at most doubling per claim
and never more than ``WorkerConfig.claim_batch``.  Sub-millisecond
scenarios therefore go a few dozen to a round trip, and long ones go one
at a time, so a batch never sits on finished results for long.  A batch
that still runs past :data:`CLAIM_TARGET_S` (one scenario was slower than
its neighbours) commits the results it already has each time it does.

Workers are transport-agnostic: the queue target may be a sqlite path
(workers on one machine, or a shared filesystem) or an ``http://`` URL
of a :mod:`repro.service` broker front-end (multi-host fleets) — see
:mod:`repro.distributed.targets`.

``worker_main`` is the process entry point (importable at module top
level, so it works under both ``fork`` and ``spawn`` start methods), and
:class:`WorkerPool` spawns and supervises N such processes from a parent
— the shape the sweep executor and the ``chronos-experiments workers``
CLI both use.  With a :class:`RestartPolicy` the pool is a *supervised
fleet*: members that die abnormally are replaced automatically (clean
exits — drained queue, ``max_tasks`` recycling — are not), but under a
per-member token bucket with exponential backoff rather than a flat
budget, so one crash-looping member slows down instead of burning the
fleet's whole allowance in seconds.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro import telemetry
from repro.distributed.broker import Task
from repro.distributed.leases import LeaseKeeper, LeasePolicy
from repro.telemetry.profiler import _exit_on_sigterm

# Worker-loop instrumentation: per-process totals and the latency of the
# claim round trip (the queue's contention signal under batch claims).
_WORKER_TASKS = telemetry.counter(
    "chronos_worker_tasks_total",
    "Tasks a worker loop finished, by outcome",
    labelnames=("outcome",),
)
_CLAIM_LATENCY = telemetry.histogram(
    "chronos_claim_batch_seconds", "Wall-clock of one claim_many round trip"
)
_CLAIM_SIZE = telemetry.histogram(
    "chronos_claim_batch_tasks",
    "Tasks taken by one non-empty claim_many",
    buckets=(1, 2, 4, 8, 16, 32, 64),
)

#: Seconds of work one claim aims to take, and how long a batch may hold
#: finished results before it commits them.
CLAIM_TARGET_S = 0.05

#: The worker's clock (module level, so tests can substitute one).
_clock = time.perf_counter


def make_worker_id(prefix: str = "worker") -> str:
    """A unique worker identity: ``prefix-<pid>-<random>``."""
    return f"{prefix}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


#: Consecutive transient transport failures a worker rides out before
#: giving up (a service restart takes a few seconds; a whole fleet dying
#: to one blip would waste the restart budget on a non-crash).
TRANSIENT_RETRY_LIMIT = 8


@dataclass(frozen=True)
class WorkerConfig:
    """Behavioural knobs of a worker loop.

    Parameters
    ----------
    policy:
        Lease timing and retry limits (shared with the broker).
    poll_interval:
        Seconds to sleep when a claim comes back empty.
    exit_when_idle:
        Exit once the queue is settled (nothing pending *or* leased) —
        the mode the sweep executor uses.  When ``False`` the worker
        polls forever (service mode) until the queue is drained.
    max_tasks:
        Optional cap on tasks executed before exiting (useful in tests
        and for worker recycling).
    claim_batch:
        The most tasks one claim may take (one transaction, one lease
        each).  Claims are sized by time up to this bound (see the module
        docstring): batching amortizes the ~ms/task queue overhead for
        short scenarios, and recovery is unchanged because every task in
        a batch still has its own lease.
    """

    policy: LeasePolicy = field(default_factory=LeasePolicy)
    poll_interval: float = 0.05
    exit_when_idle: bool = True
    max_tasks: Optional[int] = None
    claim_batch: int = 64

    def __post_init__(self) -> None:
        if self.claim_batch < 1:
            raise ValueError("claim_batch must be a positive integer")

    def to_dict(self) -> Dict[str, Any]:
        """JSON/pickle-friendly representation (crosses the spawn boundary)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerConfig":
        """Rebuild from :meth:`to_dict` output."""
        payload = dict(data)
        policy = payload.pop("policy", None)
        if isinstance(policy, Mapping):
            payload["policy"] = LeasePolicy(**dict(policy))
        return cls(**payload)


class Worker:
    """One claim-execute-commit loop bound to a queue target.

    ``target`` is a sqlite path or an ``http://`` service URL (see
    :mod:`repro.distributed.targets`); the loop is identical either way.
    """

    def __init__(
        self,
        target: Union[str, Path],
        worker_id: Optional[str] = None,
        config: Optional[WorkerConfig] = None,
    ):
        from repro.distributed.targets import is_service_url, open_broker

        self.worker_id = worker_id or make_worker_id()
        self.config = config if config is not None else WorkerConfig()
        self._target = str(target)
        self._broker = open_broker(self._target, policy=self.config.policy)
        # Over HTTP, a dropped request is recoverable (the lease protocol
        # already tolerates gaps); over sqlite any error is a local fault.
        # Rejected credentials are the opposite of transient: a bad token
        # never fixes itself, so retrying would just hammer the server.
        if is_service_url(self._target):
            from repro.service.protocol import ServiceAuthError, ServiceError

            self._transient_errors: Tuple[type, ...] = (ServiceError,)
            self._fatal_errors: Tuple[type, ...] = (ServiceAuthError,)
        else:
            self._transient_errors = ()
            self._fatal_errors = ()
        # Lazily-created second broker used only by the heartbeat thread
        # (sqlite Broker instances are not thread safe); one long-lived
        # connection rather than a fresh one per task.  HttpBroker *is*
        # thread safe (each thread gets its own keep-alive connection),
        # so it is simply shared.
        self._keeper_broker = None
        self.tasks_done = 0
        # Size and measured seconds per task of the last non-empty batch
        # (0 before the first), from which the next claim is sized.
        self._last_batch = 0
        self._last_task_s = 0.0

    def _claim_size(self) -> int:
        """Tasks the next claim asks for (0 once ``max_tasks`` is spent).

        One at first; then at most twice the last batch, and no more than
        :data:`CLAIM_TARGET_S` of work at the last batch's pace; always
        within ``claim_batch`` and what ``max_tasks`` has left.
        """
        size = max(1, 2 * self._last_batch)
        if self._last_task_s > 0:
            size = max(1, min(size, int(CLAIM_TARGET_S / self._last_task_s)))
        size = min(size, self.config.claim_batch)
        if self.config.max_tasks is not None:
            size = min(size, self.config.max_tasks - self.tasks_done)
        return size

    def run(self) -> int:
        """Process tasks until the exit condition; returns tasks executed.

        Exit conditions: the queue settles (``exit_when_idle``), the
        queue is draining and has no claimable work, or ``max_tasks`` is
        reached.  Transient service errors (an HTTP broker restarting, a
        dropped request) are retried with backoff up to
        :data:`TRANSIENT_RETRY_LIMIT` consecutive failures — a lease lost
        to a failed ``complete`` simply expires and the task is redone.
        Authentication rejections
        (:class:`~repro.service.protocol.ServiceAuthError`) are raised
        immediately: credentials do not heal with retries.
        """
        transient_failures = 0
        registered = False
        while True:
            limit = self._claim_size()
            if limit <= 0:
                return self.tasks_done
            try:
                if not registered:
                    self._broker.register_worker(self.worker_id)
                    registered = True
                with _CLAIM_LATENCY.time():
                    tasks = self._broker.claim_many(self.worker_id, limit)
                if not tasks:
                    if self._broker.is_draining() or (
                        self.config.exit_when_idle and self._broker.settled()
                    ):
                        return self.tasks_done
                    self._broker.touch_worker(self.worker_id)
                    time.sleep(self.config.poll_interval)
                    continue
                _CLAIM_SIZE.observe(len(tasks))
                started = _clock()
                self._execute_batch(tasks)
                self._last_batch = len(tasks)
                self._last_task_s = (_clock() - started) / len(tasks)
                transient_failures = 0
            except self._fatal_errors:
                raise
            except self._transient_errors:
                transient_failures += 1
                if transient_failures > TRANSIENT_RETRY_LIMIT:
                    raise
                time.sleep(
                    min(
                        self.config.poll_interval * (2 ** transient_failures),
                        self.config.policy.heartbeat_interval,
                    )
                )

    def _heartbeat_broker(self):
        """The broker the heartbeat thread talks to (created on demand)."""
        if self._keeper_broker is None:
            from repro.distributed.targets import is_service_url, open_broker

            if is_service_url(self._target):
                self._keeper_broker = self._broker
            else:
                self._keeper_broker = open_broker(self._target, policy=self.config.policy)
        return self._keeper_broker

    def _execute_batch(self, tasks: List[Task]) -> None:
        """Run claimed scenarios while one keeper renews every held lease."""
        outstanding = {task.fingerprint for task in tasks}
        keeper_broker = self._heartbeat_broker()

        def renew() -> bool:
            if not outstanding:
                return True  # batch finished; nothing left to lose
            alive = False
            for fingerprint in list(outstanding):
                if keeper_broker.heartbeat(fingerprint, self.worker_id):
                    alive = True
            return alive

        # Pace beats to the broker's *effective* policy: over HTTP the
        # server grants the leases under its own timeout, and beating at
        # a locally-configured (possibly much longer) interval would let
        # healthy tasks expire between beats.  For sqlite targets the
        # broker's policy is the config's, so this changes nothing.
        interval = min(
            self.config.policy.heartbeat_interval,
            self._broker.policy.heartbeat_interval,
        )
        keeper = LeaseKeeper(renew=renew, interval=interval)
        finished: List[Tuple[str, Dict[str, Any]]] = []

        def commit() -> None:
            # Execution is deterministic, so results are committed even if
            # a lease was lost mid-run (the upsert is idempotent and
            # whoever re-claimed the task will produce the same bytes).
            self._broker.complete_many(self.worker_id, finished)
            outstanding.difference_update(fingerprint for fingerprint, _ in finished)
            self.tasks_done += len(finished)
            _WORKER_TASKS.labels(outcome="executed").inc(len(finished))
            finished.clear()

        try:
            with keeper:
                committed_at = _clock()
                for task in tasks:
                    try:
                        result = _run_scenario(task.payload)
                    except Exception as error:  # scenario errors are terminal, not retried
                        self._broker.fail(
                            task.fingerprint, self.worker_id, f"{type(error).__name__}: {error}"
                        )
                        outstanding.discard(task.fingerprint)
                        _WORKER_TASKS.labels(outcome="failed").inc()
                        continue
                    finished.append((task.fingerprint, result.to_dict()))
                    # A batch running past its time budget (a scenario
                    # slower than the claim was sized for) commits what it
                    # has rather than holding it to the end.
                    if _clock() - committed_at >= CLAIM_TARGET_S:
                        commit()
                        committed_at = _clock()
                # The keeper renews every lease until the last commit lands.
                if finished:
                    commit()
        finally:
            keeper.stop()

    def close(self) -> None:
        """Release the worker's broker connections."""
        keeper_broker = self._keeper_broker
        self._keeper_broker = None
        if keeper_broker is not None and keeper_broker is not self._broker:
            keeper_broker.close()
        self._broker.close()


def _run_scenario(payload: Mapping[str, Any]) -> Any:
    """Rebuild a queued spec payload and run it to a result.

    The sweep API is imported here, on first use, not at module level:
    the sweep service imports this package and never runs a scenario.
    """
    from repro.api.facade import execute, spec_from_dict

    return execute(spec_from_dict(payload))


def worker_main(
    target: str,
    worker_id: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
) -> None:
    """Process entry point: run one worker to completion.

    ``config`` is a :meth:`WorkerConfig.to_dict` payload so the argument
    list stays picklable under the ``spawn`` start method.  SIGTERM (how a
    sweep driver stops its fleet) raises :class:`SystemExit`, so the
    worker's ``finally`` blocks run and it exits with status 143.  Under
    ``CHRONOS_PROFILE=path`` the worker writes its phases to
    ``<stem>.<pid><suffix>`` (see :func:`repro.telemetry.profile_worker`).
    """
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with telemetry.profile_worker():
        # WorkerPool starts members with SIGTERM blocked: a stop sent before
        # the handler above was installed is delivered here, inside the
        # profiled block, instead of killing the process outright.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        worker = Worker(
            target,
            worker_id=worker_id,
            config=WorkerConfig.from_dict(config) if config is not None else None,
        )
        try:
            worker.run()
        finally:
            worker.close()


@dataclass(frozen=True)
class RestartPolicy:
    """Rate limits for supervised fleet restarts.

    PR 3's flat per-pool ``restart_budget`` treated one crash-looping
    member and three independent crashes the same way: both drained the
    budget and left the fleet unsupervised.  This policy replaces it with
    a *token bucket per member slot* plus *exponential backoff on crash
    loops*:

    - every member slot starts with ``burst`` restart tokens and regains
      one every ``refill_s`` seconds (capped at ``burst``), so isolated
      crashes are always healed but a slot can never consume more than
      ``burst + elapsed / refill_s`` restarts;
    - consecutive crashes of one slot push its next restart out by
      ``backoff_s * backoff_factor**(n-1)`` seconds (capped at
      ``backoff_max_s``), so a scenario that kills its worker on sight
      turns into a slow, bounded trickle instead of a hot loop;
    - a member that stays up for ``stable_s`` seconds before dying is
      considered recovered: its crash streak (and backoff) resets.

    ``burst=0`` disables supervision restarts entirely.
    """

    burst: int = 3
    refill_s: float = 30.0
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    stable_s: float = 30.0

    def __post_init__(self) -> None:
        if self.burst < 0:
            raise ValueError("burst must be non-negative")
        if self.refill_s <= 0 or self.backoff_s <= 0 or self.stable_s <= 0:
            raise ValueError("refill_s, backoff_s and stable_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < self.backoff_s:
            raise ValueError("backoff_max_s must be >= backoff_s")

    def backoff_for(self, streak: int) -> float:
        """Seconds the ``streak``-th consecutive crash delays the restart."""
        if streak < 1:
            return 0.0
        return min(self.backoff_s * self.backoff_factor ** (streak - 1), self.backoff_max_s)


class RestartRateLimiter:
    """Token bucket + backoff bookkeeping behind :meth:`WorkerPool.supervise`.

    One bucket per member *slot* (the slot keeps its identity across
    replacements, so a crash loop cannot reset its own limiter by dying
    under a fresh worker id).  Deliberately clock-agnostic: every method
    takes ``now`` (monotonic seconds), which makes crash-loop behaviour
    unit-testable without real sleeps.
    """

    @dataclass
    class _Slot:
        tokens: float
        refilled_at: float
        streak: int = 0
        not_before: float = 0.0

    def __init__(self, policy: RestartPolicy):
        self.policy = policy
        self._slots: Dict[int, RestartRateLimiter._Slot] = {}

    def _slot(self, slot: int, now: float) -> "RestartRateLimiter._Slot":
        state = self._slots.get(slot)
        if state is None:
            state = self._Slot(tokens=float(self.policy.burst), refilled_at=now)
            self._slots[slot] = state
        return state

    def note_crash(self, slot: int, now: float, uptime: Optional[float] = None) -> None:
        """Record an abnormal exit; a stable run first resets the streak."""
        state = self._slot(slot, now)
        if uptime is not None and uptime >= self.policy.stable_s:
            state.streak = 0

    def try_acquire(self, slot: int, now: float) -> bool:
        """Take one restart token for ``slot`` if the limiter allows it.

        On success the slot's crash streak grows and the *next* restart
        is pushed out by the streak's backoff; on refusal nothing
        changes and the caller simply asks again on a later pass.
        """
        state = self._slot(slot, now)
        self._refill(state, now)
        if state.tokens < 1.0 or now < state.not_before:
            return False
        state.tokens -= 1.0
        state.streak += 1
        state.not_before = now + self.policy.backoff_for(state.streak)
        return True

    def _refill(self, state: "RestartRateLimiter._Slot", now: float) -> None:
        elapsed = max(0.0, now - state.refilled_at)
        state.tokens = min(float(self.policy.burst), state.tokens + elapsed / self.policy.refill_s)
        state.refilled_at = now


class WorkerPool:
    """N worker processes sharing one queue target.

    The pool only starts and reaps processes; all work coordination goes
    through the broker.  When the parent reaps a dead worker it releases
    that worker's leases immediately (crash fast-path) instead of waiting
    out the lease timeout — workers that died *without* a supervising
    parent are still recovered by lease expiry.

    With a ``restart_policy`` the pool runs as a *supervised fleet*:
    :meth:`supervise` replaces members that died abnormally (nonzero
    exit code — a crash, OOM kill or SIGKILL) with fresh processes,
    rate-limited per member slot by a :class:`RestartPolicy` token
    bucket with exponential backoff, so a long-lived service fleet heals
    itself without operator action and a crash loop cannot spin hot.
    Clean exits (drained queue, ``max_tasks`` recycling, settled idle
    queue) are never restarted.
    """

    def __init__(
        self,
        target: Union[str, Path],
        workers: int,
        config: Optional[WorkerConfig] = None,
        id_prefix: str = "worker",
        restart_policy: Optional[RestartPolicy] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self._target = str(target)
        self._config = config if config is not None else WorkerConfig()
        self._context = multiprocessing.get_context()
        self._id_prefix = id_prefix
        self.restart_policy = restart_policy
        self._limiter = (
            RestartRateLimiter(restart_policy)
            if restart_policy is not None and restart_policy.burst > 0
            else None
        )
        self.restarts: List[Tuple[str, str]] = []  # (dead worker id, replacement id)
        self.worker_ids = [f"{id_prefix}-{uuid.uuid4().hex[:8]}" for _ in range(workers)]
        #: Member slot of each worker id: the slot survives replacement,
        #: so rate limiting follows the seat, not the (fresh) identity.
        self._slot_of: Dict[str, int] = {
            worker_id: slot for slot, worker_id in enumerate(self.worker_ids)
        }
        self._processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._spawned_at: Dict[str, float] = {}
        self._awaiting_restart: Dict[str, int] = {}  # dead worker id -> slot
        self._reaped: set = set()

    def start(self) -> "WorkerPool":
        """Spawn all worker processes (idempotent)."""
        for worker_id in self.worker_ids:
            if worker_id not in self._processes:
                self._processes[worker_id] = self._spawn(worker_id)
        return self

    def _spawn(self, worker_id: str) -> multiprocessing.process.BaseProcess:
        process = self._context.Process(
            target=worker_main,
            args=(self._target, worker_id, self._config.to_dict()),
            name=worker_id,
            daemon=True,
        )
        # The child inherits the blocked SIGTERM and unblocks it in
        # worker_main once its handler is in place.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        self._spawned_at[worker_id] = time.monotonic()
        return process

    @property
    def processes(self) -> List[multiprocessing.process.BaseProcess]:
        """The managed processes, in worker order."""
        return [self._processes[worker_id] for worker_id in self.worker_ids]

    @property
    def restarts_used(self) -> int:
        """How many replacement workers have been spawned so far."""
        return len(self.restarts)

    def alive_count(self) -> int:
        """How many workers are currently running."""
        return sum(1 for process in self._processes.values() if process.is_alive())

    def reap(self, broker) -> List[str]:
        """Release leases of newly-dead workers; returns their ids."""
        newly_dead = []
        for worker_id, process in self._processes.items():
            if worker_id not in self._reaped and not process.is_alive():
                self._reaped.add(worker_id)
                broker.release_worker(worker_id)
                newly_dead.append(worker_id)
        return newly_dead

    def restart(self, worker_id: str) -> str:
        """Replace one (dead) member with a fresh process; returns its id.

        The replacement gets a new worker identity — worker ids are
        lease owners, and reusing a dead worker's id would let its stale
        leases outlive the crash accounting — but inherits the member's
        *slot*, so per-slot rate limiting follows the seat.
        """
        if worker_id not in self._processes:
            raise KeyError(f"unknown worker {worker_id!r}")
        replacement = f"{self._id_prefix}-{uuid.uuid4().hex[:8]}"
        self.worker_ids[self.worker_ids.index(worker_id)] = replacement
        self._slot_of[replacement] = self._slot_of.pop(worker_id)
        del self._processes[worker_id]
        self._spawned_at.pop(worker_id, None)
        self._processes[replacement] = self._spawn(replacement)
        self.restarts.append((worker_id, replacement))
        return replacement

    def pending_restarts(self) -> List[str]:
        """Dead members waiting for the rate limiter to allow a restart."""
        return list(self._awaiting_restart)

    def supervise(self, broker, now: Optional[float] = None) -> List[str]:
        """One supervision pass: reap the dead, restart what the limiter allows.

        Releases leases of every newly-dead worker (via :meth:`reap`),
        then replaces the ones that exited abnormally — each restart
        gated by the :class:`RestartPolicy` token bucket of its member
        slot.  A member the limiter holds back stays *pending*: later
        passes retry it once its backoff elapses or its bucket refills,
        so a crash loop slows down instead of exhausting a budget and
        going unsupervised.  Returns the replacement worker ids spawned
        this pass.  ``now`` (monotonic seconds) is injectable for tests;
        call the method periodically from the owning loop — it is cheap
        when nothing died.
        """
        now = time.monotonic() if now is None else now
        for worker_id in self.reap(broker):
            process = self._processes[worker_id]
            if process.exitcode == 0:
                continue  # clean exit: drained, recycled or idle
            if self._limiter is None:
                continue  # supervision restarts disabled
            spawned_at = self._spawned_at.get(worker_id)
            self._limiter.note_crash(
                self._slot_of[worker_id],
                now,
                uptime=None if spawned_at is None else now - spawned_at,
            )
            self._awaiting_restart[worker_id] = self._slot_of[worker_id]
        replacements: List[str] = []
        for worker_id, slot in list(self._awaiting_restart.items()):
            if self._limiter is not None and self._limiter.try_acquire(slot, now):
                del self._awaiting_restart[worker_id]
                replacements.append(self.restart(worker_id))
        return replacements

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for all workers to exit."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for process in self._processes.values():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            process.join(remaining)

    def terminate(self) -> None:
        """Forcibly stop every worker still running."""
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.terminate()
