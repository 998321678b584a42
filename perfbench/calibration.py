"""Host-speed calibration, so timings read at one reference speed.

On a shared host the speed of the same pure-Python loop drifts by a third
or more between windows a few minutes apart, and within a window each CPU
flips between a fast and a slow mode every second or so, independently of
the other.  CPU time drifts with it, so no measure of the program alone is
steady.  While ``run.py`` measures, a :class:`SpeedSampler` times a short
fixed loop on each CPU the repetition is pinned to, every
:data:`INTERVAL_S`, in the sampling thread's own CPU time (so waiting for
a CPU the sweep holds does not count).  ``run.py`` scales each timing by
the mean sample during it over :data:`REFERENCE_SAMPLE_S`.  The loop uses
nothing from ``repro``: no change to the program moves it, only the speed
of the host does.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from statistics import mean
from typing import Dict, Iterable, List, Tuple

#: CPU seconds one sample takes on the reference host.  A host running at
#: this speed reports its timings unscaled.
REFERENCE_SAMPLE_S = 0.002
#: Seconds between two samples on one CPU.
INTERVAL_S = 0.1


class _Event:
    __slots__ = ("time", "value")

    def __init__(self, time: float, value: int):
        self.time = time
        self.value = value


def sample(iterations: int = 1500) -> float:
    """CPU seconds this thread takes for one run of the loop.

    The loop mixes what the simulator spends its time on: object
    creation, heap pushes and pops, dict updates and float arithmetic.
    """
    started = time.thread_time()
    heap: list = []
    table: Dict[int, float] = {}
    total = 0
    for i in range(iterations):
        event = _Event((i * 7919) % 10007 * 0.5, i)
        heapq.heappush(heap, (event.time, i, event))
        table[i & 511] = table.get(i & 511, 0.0) + event.time * 1.0001
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    return time.thread_time() - started


def slowdown(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """How many times slower than the reference the host ran from ``start`` to ``end``.

    ``samples`` are ``(perf_counter, seconds)`` pairs.  The mean of the
    samples taken inside the window is used, or of all of them when the
    window is too short to hold one.
    """
    inside = [seconds for at, seconds in samples if start <= at <= end]
    return mean(inside or [seconds for _, seconds in samples]) / REFERENCE_SAMPLE_S


class SpeedSampler:
    """Samples the host speed on each of ``cpus`` in background threads while open."""

    def __init__(self, cpus: Iterable[int]) -> None:
        cpus = list(cpus)
        #: ``(perf_counter, seconds)`` of every sample so far.
        self.samples: List[Tuple[float, float]] = []
        self._stopped = threading.Event()
        # The threads share one interpreter lock, so their samples are
        # spaced evenly instead of all falling due at once.
        self._threads = [
            threading.Thread(target=self._run, args=(cpu, k / len(cpus)), daemon=True)
            for k, cpu in enumerate(cpus)
        ]

    def _run(self, cpu: int, phase: float) -> None:
        os.sched_setaffinity(0, {cpu})
        due = time.perf_counter() + phase * INTERVAL_S
        while not self._stopped.wait(max(0.0, due - time.perf_counter())):
            self.samples.append((time.perf_counter(), sample()))
            due = max(due + INTERVAL_S, time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        for thread in self._threads:
            thread.join()
