"""Lease-based ownership of queued tasks.

A worker that claims a task does not own it forever: it holds a *lease*
that expires ``timeout`` seconds into the future unless renewed.  A
healthy worker renews (heartbeats) every ``heartbeat_interval`` seconds
from a background :class:`LeaseKeeper` thread; a crashed or wedged worker
stops renewing, its lease runs out, and the broker hands the task to
someone else — up to ``max_attempts`` claims, after which the task is
marked failed rather than ping-ponging between dying workers forever.

Leases are wall-clock timestamps (``time.time()``) because they must be
comparable across processes and, eventually, across machines.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class LeasePolicy:
    """Timing and retry parameters of the queue's lease protocol.

    Parameters
    ----------
    timeout:
        Seconds a lease lives without renewal.  Must comfortably exceed
        ``heartbeat_interval`` (a factor of ~4 by default) so one missed
        beat does not orphan a healthy worker's task.
    heartbeat_interval:
        Seconds between renewals while a worker executes a task.
    max_attempts:
        Total times a task may be claimed before it is marked failed.
    """

    timeout: float = 30.0
    heartbeat_interval: float = 7.5
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("lease timeout must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.heartbeat_interval >= self.timeout:
            raise ValueError("heartbeat interval must be shorter than the lease timeout")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


@dataclass(frozen=True)
class Lease:
    """A worker's claim on one task: who holds it and until when."""

    fingerprint: str
    owner: str
    expires_at: float

    def expired(self, now: float) -> bool:
        """Whether the lease has run out at wall-clock time ``now``."""
        return now >= self.expires_at


class LeaseKeeper:
    """Background thread renewing one lease while its task executes.

    ``renew`` is called every ``interval`` seconds until :meth:`stop`.
    If a renewal reports the lease is no longer ours (the broker requeued
    the task after an earlier expiry, or the queue was reset underneath
    us), the keeper stops beating.  The sweep worker commits its result
    even on a lost lease: scenario execution is deterministic and the
    result upsert idempotent.
    """

    def __init__(self, renew: Callable[[], bool], interval: float):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._renew = renew
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LeaseKeeper":
        """Start beating (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True, name="lease-keeper")
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                alive = self._renew()
            except Exception:
                # A transient database hiccup is not lease loss; the next
                # beat (well within the timeout) will retry.
                continue
            if not alive:
                return

    def stop(self) -> None:
        """Stop beating and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "LeaseKeeper":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
