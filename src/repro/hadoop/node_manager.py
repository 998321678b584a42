"""Node Manager: runs attempts inside granted containers.

The NM models what happens in a container once it is granted: the
attempt's JVM is launched (a random startup delay), the attempt processes
its share of the input split (the sampled processing time), and a
completion event fires.  Killing an attempt cancels its completion event
and releases the container immediately.  The cluster is a count of
identical slots, so the NM tracks attempts, not containers: a finished or
killed attempt gives its slot back with ``release_container()``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

import numpy as np

from repro.distributions import sample_stream
from repro.hadoop.config import HadoopConfig
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.engine import Event, SimulationEngine
from repro.simulator.entities import Attempt

# Callback invoked when an attempt finishes processing its data.
CompletionCallback = Callable[[Attempt], None]


class NodeManager:
    """Executes attempts in containers and reports their completion."""

    def __init__(
        self,
        engine: SimulationEngine,
        resource_manager: ResourceManager,
        config: HadoopConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        self._engine = engine
        self._rm = resource_manager
        self._rng = rng if rng is not None else engine.spawn_rng()
        # Running attempts by id -> their pending completion event.
        self._running: Dict[int, Event] = {}
        # The NM's RNG serves exactly one purpose (JVM launch delays), so
        # block draws reproduce the per-launch call stream bit-for-bit.
        # The config is frozen, so its bounds are read once; the draw
        # holds the RNG but not the NM, so a finished run leaves no cycle.
        mean, jitter = config.jvm_startup_mean, config.jvm_startup_jitter
        self._jvm_fixed = 0.0 if mean <= 0 else mean if jitter <= 0 else None
        self._jvm_samples = sample_stream(
            partial(self._rng.uniform, mean - jitter, mean + jitter),
            128,
        )

    @property
    def running_attempts(self) -> int:
        """Number of attempts currently executing on this NM."""
        return len(self._running)

    def launch(
        self, attempt: Attempt, processing_time: float, on_complete: CompletionCallback
    ) -> None:
        """Start an attempt in its granted container and schedule its completion.

        ``mark_running`` rejects a negative ``processing_time``.
        """
        engine = self._engine
        jvm_delay = self._jvm_fixed
        if jvm_delay is None:
            jvm_delay = next(self._jvm_samples)
        attempt.mark_running(engine.now, jvm_delay, processing_time)
        self._running[attempt.attempt_id] = engine.schedule_after(
            jvm_delay + processing_time, self._complete, attempt, on_complete
        )

    def kill(self, attempt: Attempt) -> None:
        """Kill a running attempt: cancel completion and free the container."""
        event = self._running.pop(attempt.attempt_id, None)
        attempt.mark_killed(self._engine.now)  # a no-op for a finished attempt
        if event is not None:
            event.cancelled = True
            self._rm.release_container()

    def clear(self) -> None:
        """Forget every running attempt (the teardown of a capped run)."""
        self._running.clear()

    def _complete(self, attempt: Attempt, on_complete: CompletionCallback) -> None:
        del self._running[attempt.attempt_id]
        attempt.mark_completed(self._engine.now)
        self._rm.release_container()
        on_complete(attempt)
