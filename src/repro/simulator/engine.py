"""Minimal, deterministic discrete-event simulation engine.

The engine keeps a priority queue of timestamped events; each event wraps
a callback.  Ties are broken by insertion order so runs are fully
deterministic for a given seed, which the test suite relies on.  The heap
stores immutable ``(time, sequence, callback, args)`` tuples, so ordering
can never be perturbed by mutation of an already-scheduled event — the
tie-break by insertion sequence is structural, not incidental.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, List, Optional

import numpy as np


class Event(tuple):
    """A scheduled callback: the heap entry ``(time, sequence, callback, args)``.

    The heap holds the events themselves.  An event is a ``tuple``
    subclass, built in C with no Python-level ``__init__`` (every attempt
    schedules two), and its ``(time, sequence)`` key is fixed when it is
    scheduled: a tuple cannot be mutated, so the order is structural.
    Sequences are unique, so two events never compare past their key.
    What may change later lives in the instance dict: :meth:`cancel`
    sets ``cancelled``, and the engine drops a cancelled event when it
    pops it.
    """

    #: Set on the instance by :meth:`cancel`.
    cancelled = False

    sequence = property(itemgetter(1))
    #: A non-data descriptor: assigning ``time`` stores a value on the
    #: instance and leaves the heap key as it was scheduled.
    time = cached_property(itemgetter(0))

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
        #: Current simulation time (seconds).  A plain attribute, not a
        #: property: the hadoop layer reads it several times per attempt.
        self.now = 0.0
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._seed_sequence = np.random.SeedSequence(seed)

    # ------------------------------------------------------------------
    # Clock and RNG
    # ------------------------------------------------------------------
    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @cached_property
    def rng(self) -> np.random.Generator:
        """The engine's root random generator, built on first access.

        No simulation component draws from it (each spawns its own
        stream), and ``default_rng`` of the seed sequence spawns no
        child, so building it late changes no stream.
        """
        return np.random.default_rng(self._seed_sequence)

    def spawn_rng(self) -> np.random.Generator:
        """Create an independent random stream derived from the engine seed."""
        child = self._seed_sequence.spawn(1)[0]
        return np.random.default_rng(child)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:
            if math.isnan(time):
                raise ValueError("cannot schedule an event at NaN time")
            raise ValueError(
                f"cannot schedule an event in the past (now={self.now}, requested={time})"
            )
        event = Event((time, next(self._sequence), callback, args))
        heappush(self._queue, event)
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
        event = Event((self.now + delay, next(self._sequence), callback, args))
        heappush(self._queue, event)
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
            event = heappop(self._queue)
            if event.cancelled:
                continue
            self.now, _, callback, args = event
            callback(*args)
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
        # A plain pop loop: the events' (time, sequence) keys alone fix the
        # order, and a cancelled event is dropped when it is popped.  The
        # cap counts executed callbacks and is checked before each pop.
        # The first event past the horizon goes back on the heap; keys are
        # unique, so the heap pops in the same order as if it had stayed.
        queue = self._queue
        cap = sys.maxsize if max_events is None else max_events
        horizon = math.inf if until is None else until
        processed = 0
        try:
            while queue and processed < cap:
                event = heappop(queue)
                if event.cancelled:
                    continue
                time, _, callback, args = event
                if time > horizon:
                    heappush(queue, event)
                    self.now = until
                    return
                self.now = time
                callback(*args)
                processed += 1
            if processed >= cap and queue:
                return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._processed += processed
