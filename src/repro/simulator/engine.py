"""Minimal, deterministic discrete-event simulation engine.

The engine keeps a priority queue of timestamped events; each event wraps
a callback.  Ties are broken by insertion order so runs are fully
deterministic for a given seed, which the test suite relies on.  The heap
itself stores immutable ``(time, sequence, event)`` triples, so ordering
can never be perturbed by mutation of an already-scheduled event — the
tie-break by insertion sequence is structural, not incidental.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The heap orders events by their ``(time, sequence)`` key; two
    ``Event`` objects are never compared with each other.
    """

    time: float
    sequence: int
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self.cancelled = True


class SimulationEngine:
    """Event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed of the root random generator.  Components that need their own
        stream call :meth:`spawn_rng` so that adding a new consumer does not
        perturb the samples seen by existing ones.
    """

    def __init__(self, seed: Optional[int] = 0):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._seed_sequence = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(self._seed_sequence)

    # ------------------------------------------------------------------
    # Clock and RNG
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def rng(self) -> np.random.Generator:
        """The engine's root random generator."""
        return self._rng

    def spawn_rng(self) -> np.random.Generator:
        """Create an independent random stream derived from the engine seed."""
        child = self._seed_sequence.spawn(1)[0]
        return np.random.default_rng(child)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if not time >= self._now:
            if math.isnan(time):
                raise ValueError("cannot schedule an event at NaN time")
            raise ValueError(
                f"cannot schedule an event in the past (now={self._now}, requested={time})"
            )
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        # The heap entry is an immutable (time, sequence, event) triple:
        # even if callers mutate the Event after scheduling, the queue
        # order stays fixed at what it was on insertion.
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        The body repeats :meth:`schedule_at` instead of calling it: every
        attempt schedules through here, and one check (``delay >= 0``,
        false for NaN too) replaces the two that the absolute time needs.
        """
        if not delay >= 0:
            if delay < 0:
                raise ValueError(f"delay must be non-negative, got {delay}")
            raise ValueError("cannot schedule an event at NaN time")
        time = self._now + delay
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def clear(self) -> None:
        """Drop every pending event (the teardown of a capped run)."""
        self._queue.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event; return False when idle."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, time exceeds ``until``, or the event cap.

        Parameters
        ----------
        until:
            Optional simulation-time horizon.  Events strictly after the
            horizon remain queued and the clock is advanced to ``until``.
        max_events:
            Optional safety cap on the number of events to execute.
        """
        # Pop the whole run of same-timestamp events in one sweep instead
        # of re-peeking the heap after every callback.  Events scheduled
        # *by* a batch member at the same timestamp carry a higher sequence
        # number, so they form the next sweep — overall execution order is
        # identical to a one-at-a-time loop.  Cancellation by an earlier
        # batch member is honoured by re-checking ``cancelled`` immediately
        # before each callback runs.  Under an event cap a sweep pops at
        # most the cap's remaining room; members left behind keep their
        # heap keys, so they still run before anything scheduled later at
        # the same timestamp, and the cap counts executed callbacks only.
        queue = self._queue
        pop = heapq.heappop
        cap = sys.maxsize if max_events is None else max_events
        processed = 0
        batch: List[Event] = []
        try:
            while queue:
                room = cap - processed
                if room <= 0:
                    return
                head_time, _, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    continue
                if until is not None and head_time > until:
                    self._now = until
                    return
                pop(queue)
                batch.append(event)
                while queue and queue[0][0] == head_time and len(batch) < room:
                    batch.append(pop(queue)[2])
                self._now = head_time
                for member in batch:
                    if not member.cancelled:
                        member.callback(*member.args)
                        processed += 1
                batch.clear()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._processed += processed
