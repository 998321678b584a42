"""Per-layer tracing by wrapping each layer's public functions.

Nothing under ``src/`` is edited: :func:`install` replaces selected
functions and methods of the program with timing wrappers in the current
process.  Install them before a process pool or worker fleet forks, and
the children inherit them.  Pool and fleet children leave through
``os._exit``, which skips ``atexit``, so each child writes its totals to
``trace-<pid>.json`` from inside the wrapped pool task and the wrapped
``worker_main``; the service launcher writes its file when it is stopped.

A span is recorded only when no span of the same layer encloses it, so a
layer's time is never counted twice (``ScenarioResult.to_dict`` calling
``ScenarioSpec.to_dict`` is one codec span).  A span's *self* time is its
duration minus the recorded spans of other layers nested inside it, which
is how ``simulator.self_s`` excludes Algorithm 1 and ``service.lock_wait_s``
excludes the broker work done under the service lock.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Broker methods with their own call count and busy time.
BROKER_METHODS = (
    "enqueue", "claim_many", "complete", "heartbeat", "events_since", "settled", "requeue_expired",
)

#: Client RPC methods with their own latency percentiles (the hot ones).
RPC_METHODS = (
    "enqueue", "claim_many", "complete", "heartbeat", "events_since", "settled",
    "requeue_expired", "result_get",
)

_clock = time.perf_counter


class Tracer:
    """Span and counter totals of one process (reset on first use after fork)."""

    def __init__(self, flush_dir: Optional[Path] = None):
        self.flush_dir = flush_dir
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Drop every total (spans, counters and samples)."""
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def _check_pid(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked child starts with a copy of the parent's totals and
            # possibly a lock some parent thread held at fork time.
            self._pid = pid
            self._lock = threading.Lock()
            self._local = threading.local()
            self.reset()

    def _stack(self) -> list:
        self._check_pid()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter."""
        self._check_pid()
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        """Append one observation to a sample list."""
        self._check_pid()
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A wrapper timing ``fn`` as span ``name`` of ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == layer:
                    return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                    tracer.seconds[name] = tracer.seconds.get(name, 0.0) + elapsed
                    tracer.self_seconds[name] = (
                        tracer.self_seconds.get(name, 0.0) + elapsed - frame[1]
                    )

        return wrapper

    def snapshot(self) -> Dict[str, Any]:
        """The totals as a JSON-native dict."""
        self._check_pid()
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts),
                "samples": {name: list(values) for name, values in self.samples.items()},
            }

    def flush(self) -> None:
        """Write this process's totals to ``flush_dir/trace-<pid>.json`` (atomic)."""
        if self.flush_dir is None:
            return
        path = Path(self.flush_dir) / f"trace-{os.getpid()}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(self.snapshot()))
        os.replace(temp, path)


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span/counter totals and concatenate samples across processes."""
    merged: Dict[str, Any] = {"calls": {}, "seconds": {}, "self_seconds": {}, "counts": {}, "samples": {}}
    for snap in snapshots:
        for key in ("calls", "seconds", "self_seconds", "counts"):
            for name, value in snap.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in snap.get("samples", {}).items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def read_flushed(directory: Path) -> List[Dict[str, Any]]:
    """Every ``trace-*.json`` written into ``directory``."""
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("trace-*.json"))]


#: Broker methods wrapped as ``distributed.broker.other`` besides the ones
#: reported one by one, so the service's lock-wait figure subtracts all
#: broker work, not just the hot methods.
_BROKER_OTHER = (
    "claim", "fail", "release_worker", "release_pending", "register_worker", "touch_worker",
    "counts", "last_event_seq", "failed_payloads", "is_draining", "record_event", "drain",
    "task", "tasks", "workers", "leased", "stats", "telemetry_summary", "events_for",
    "done_watermark", "prune_events",
)
_STORE_OTHER = ("get_payload", "put_payload", "put", "fingerprints", "summary_rows")


def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` by ``make(original)``, keeping classmethods intact."""
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap the public entry points of every layer in this process.

    ``service=True`` additionally wraps ``BrokerService.call`` (the
    service launcher's process); sweep drivers and workers leave it alone.
    """
    import repro.api.sweep as sweep
    import repro.cluster as cluster_pkg
    import repro.cluster.facade as cluster_facade
    import repro.distributed.worker as worker_mod
    import repro.service.client as client
    from repro.api.facade import ScenarioResult
    from repro.api.spec import ScenarioSpec
    from repro.cluster import ClusterResult, ClusterSpec
    from repro.core.optimizer import ChronosOptimizer
    from repro.distributed.broker import Broker
    from repro.distributed.store import SqliteResultStore
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.runner import SimulationRunner

    wrap = tracer.wrap
    _patch(ChronosOptimizer, "optimize", lambda fn: wrap("core", "core.optimize", fn))
    _patch(SimulationRunner, "run", lambda fn: wrap("simulator", "simulator.run", fn))

    def engine_run(fn):
        timed = wrap("simulator", "simulator.run", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.processed_events
            try:
                return timed(self, *args, **kwargs)
            finally:
                tracer.count("simulator.events", self.processed_events - before)

        return wrapper

    _patch(SimulationEngine, "run", engine_run)
    traced_cluster = wrap("cluster", "cluster.run", cluster_pkg.run_cluster)
    cluster_pkg.run_cluster = traced_cluster
    cluster_facade.run_cluster = traced_cluster

    for cls in (ScenarioSpec, ClusterSpec):
        _patch(cls, "fingerprint", lambda fn: wrap("api", "api.fingerprint", fn))
    for cls in (ScenarioSpec, ClusterSpec, ScenarioResult, ClusterResult):
        for name in ("to_dict", "from_dict"):
            _patch(cls, name, lambda fn: wrap("api", "api.codec", fn))

    for name in BROKER_METHODS:
        if name not in ("claim_many", "complete"):
            _patch(Broker, name, lambda fn, n=name: wrap("distributed", f"distributed.broker.{n}", fn))
    for name in _BROKER_OTHER:
        if name in Broker.__dict__:
            _patch(Broker, name, lambda fn: wrap("distributed", "distributed.broker.other", fn))

    def claim_many(fn):
        timed = wrap("distributed", "distributed.broker.claim_many", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tasks = timed(*args, **kwargs)
            tracer.count("distributed.broker.tasks_claimed", len(tasks))
            if not tasks:
                tracer.count("distributed.broker.empty_claims")
            return tasks

        return wrapper

    def complete(fn):
        timed = wrap("distributed", "distributed.broker.complete", fn)

        @functools.wraps(fn)
        def wrapper(self, fingerprint, worker_id, result_payload):
            # Sized outside the span, so the measurement costs no broker time.
            tracer.sample("distributed.result_bytes", len(json.dumps(result_payload)))
            return timed(self, fingerprint, worker_id, result_payload)

        return wrapper

    _patch(Broker, "claim_many", claim_many)
    _patch(Broker, "complete", complete)
    _patch(SqliteResultStore, "get", lambda fn: wrap("distributed", "distributed.store.get", fn))
    for name in _STORE_OTHER:
        _patch(SqliteResultStore, name, lambda fn: wrap("distributed", "distributed.store.other", fn))

    def rpc_call(fn):
        @functools.wraps(fn)
        def wrapper(url, method, *args, **kwargs):
            started = _clock()
            try:
                return fn(url, method, *args, **kwargs)
            finally:
                tracer.sample(f"service.rpc.{method}", _clock() - started)

        return wrapper

    _patch(client, "rpc_call", rpc_call)

    _patch(
        worker_mod.Worker, "_execute_batch",
        lambda fn: wrap("worker", "distributed.worker.busy", fn),
    )

    def worker_main(fn):
        timed = wrap("worker-process", "distributed.worker.lifetime", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.flush()

        return wrapper

    _patch(worker_mod, "worker_main", worker_main)

    def supervise(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("distributed.executor.supervise_passes")
            return fn(*args, **kwargs)

        return wrapper

    _patch(worker_mod.WorkerPool, "supervise", supervise)

    def pool_task(fn):
        timed = wrap("pool", "pool.task", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.flush()

        return wrapper

    _patch(sweep, "_execute_spec_payload", pool_task)

    if service:
        from repro.service.server import BrokerService

        _patch(BrokerService, "call", lambda fn: wrap("service", "service.handler", fn))
