"""Coarse-phase wall-clock profiler for the simulation stack.

A :class:`Profiler` accumulates ``(calls, seconds)`` per named phase.
The simulator runner wraps its three coarse phases (``build`` the
engine/cluster/masters, ``simulate`` the event loop, ``report`` the
metric aggregation) in :meth:`Profiler.phase` blocks; the multi-job
cluster façade records ``build`` and ``simulate`` the same way, and
each Algorithm 1 cache miss records an ``optimize`` phase, which runs
inside ``simulate``, in the profiler of the run that planned the job.
Every site times itself only when a profiler is attached, so the
disabled path costs one ``is None`` check per run (or per planned job)
— the bench gate's "instrumentation overhead ≤ noise" criterion.

Activation is either programmatic::

    from repro.telemetry import enable_profiling, active_profiler
    profiler = enable_profiling()
    run(spec)                       # facade attaches the active profiler
    print(profiler.to_dict())

or environmental: ``CHRONOS_PROFILE=1`` enables profiling at import
time, and ``CHRONOS_PROFILE=/path/profile.json`` additionally dumps the
accumulated phases as JSON, one file per process.  The process that
imported :mod:`repro` first (the sweep driver, or a single-process run)
writes ``/path/profile.json`` at interpreter exit.  Each fleet worker
(the ``"pool"`` and ``"distributed"`` executors alike) writes
``/path/profile.<pid>.json`` when its ``worker_main`` returns or the
worker is stopped with SIGTERM (:func:`profile_worker`): forked
children leave through ``os._exit``, which skips ``atexit``, and a
worker starts from a fresh profiler, so its file holds only the
scenarios it ran.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, ContextManager, Dict, Iterator, Optional

#: Environment variable that switches profiling on process-wide.
PROFILE_ENV = "CHRONOS_PROFILE"

_FALSEY = ("", "0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on")


_NULL_CONTEXT = nullcontext()


def null_phase(name: str) -> ContextManager[None]:
    """The disabled-profiler phase: one reusable no-op context manager.

    ``phase = null_phase if profiler is None else profiler.phase`` lets a
    site write its ``with phase(...)`` blocks once.
    """
    return _NULL_CONTEXT


class _Phase:
    """Context manager adding a block's wall-clock to one phase bucket."""

    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Phase":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.record(self._name, perf_counter() - self._started)


class Profiler:
    """Thread-safe accumulator of per-phase call counts and seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: Dict[str, Dict[str, float]] = {}

    def phase(self, name: str) -> _Phase:
        """``with profiler.phase("simulate"): ...`` times the block."""
        return _Phase(self, name)

    def record(self, name: str, seconds: float) -> None:
        """Add one timed call to a phase bucket."""
        with self._lock:
            bucket = self._phases.get(name)
            if bucket is None:
                bucket = {"calls": 0, "seconds": 0.0}
                self._phases[name] = bucket
            bucket["calls"] += 1
            bucket["seconds"] += seconds

    def reset(self) -> None:
        with self._lock:
            self._phases.clear()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native snapshot: ``{"phases": {name: {calls, seconds}}}``."""
        with self._lock:
            phases = {
                name: {"calls": int(bucket["calls"]), "seconds": bucket["seconds"]}
                for name, bucket in sorted(self._phases.items())
            }
        return {"phases": phases}


_active: Optional[Profiler] = None

#: The dump path ``CHRONOS_PROFILE`` names (``None`` when it names none).
_dump_path: Optional[str] = None


def active_profiler() -> Optional[Profiler]:
    """The process-wide profiler, or ``None`` when profiling is off.

    This is the one call sitting on the hot path (once per
    ``run(spec)``); it is a plain module-global read.
    """
    return _active


def enable_profiling(profiler: Optional[Profiler] = None) -> Profiler:
    """Install (or replace) the process-wide profiler and return it."""
    global _active
    _active = profiler if profiler is not None else Profiler()
    return _active


def disable_profiling() -> None:
    """Detach the process-wide profiler; subsequent runs pay nothing."""
    global _active
    _active = None


def _dump_profile(path: str) -> None:
    """Write the active profiler's phases as JSON (atexit hook)."""
    profiler = _active
    if profiler is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(profiler.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # a broken dump path must not turn process exit into a crash


def process_dump_path(path: str, pid: Optional[int] = None) -> str:
    """``path`` with a pid before its suffix: ``p.json`` -> ``p.<pid>.json``."""
    target = Path(path)
    pid = os.getpid() if pid is None else pid
    return str(target.with_name(f"{target.stem}.{pid}{target.suffix}"))


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    """A SIGTERM handler that exits normally, running ``finally`` blocks."""
    raise SystemExit(128 + signum)


@contextmanager
def profile_worker() -> Iterator[None]:
    """Profile one worker process into its own file (see the module doc).

    With profiling on, a fresh profiler replaces the one inherited from
    the parent; on exit its phases go to :func:`process_dump_path` of
    the ``CHRONOS_PROFILE`` path (when one is set), and profiling stops,
    so an inherited ``atexit`` dump, should it run, writes nothing.
    A worker stopped with SIGTERM exits through this block too, because
    ``worker_main`` turns SIGTERM into :class:`SystemExit`
    (:func:`_exit_on_sigterm`).
    """
    if _active is None:
        yield
        return
    enable_profiling()
    try:
        yield
    finally:
        # A worker that exits on its own can still get the driver's stop
        # SIGTERM; raised mid-write, it would leave a truncated file, so
        # the signal waits until the dump is complete.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            if _dump_path is not None:
                _dump_profile(process_dump_path(_dump_path))
            disable_profiling()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _activate_from_environment() -> None:
    global _dump_path
    value = os.environ.get(PROFILE_ENV, "").strip()
    if value.lower() in _FALSEY:
        return
    enable_profiling()
    if value.lower() not in _TRUTHY:  # anything else is an output path
        _dump_path = value
        atexit.register(_dump_profile, value)


_activate_from_environment()
