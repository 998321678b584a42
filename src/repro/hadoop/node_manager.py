"""Node Manager: runs attempts inside granted containers.

The NM models what happens on a worker node once a container is granted:
the attempt's JVM is launched (a random startup delay), the attempt
processes its share of the input split (the sampled processing time), and
a completion event fires.  Killing an attempt cancels its completion event
and releases the container immediately.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.distributions import SampleBuffer, vectorized_batch_size
from repro.hadoop.config import HadoopConfig
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import Container
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
        # Running attempts by id: the pending completion event and the
        # container the attempt occupies.
        self._running: Dict[int, Tuple[Event, Container]] = {}
        # The NM's RNG serves exactly one purpose (JVM launch delays), so
        # block draws reproduce the per-launch call stream bit-for-bit.
        # The config is frozen, so its bounds are read once; the draw
        # holds the RNG but not the NM, so a finished run leaves no cycle.
        mean, jitter = config.jvm_startup_mean, config.jvm_startup_jitter
        self._jvm_fixed = 0.0 if mean <= 0 else mean if jitter <= 0 else None
        self._jvm_samples = SampleBuffer(
            partial(self._rng.uniform, mean - jitter, mean + jitter),
            vectorized_batch_size(128),
        )

    @property
    def running_attempts(self) -> int:
        """Number of attempts currently executing on this NM."""
        return len(self._running)

    def sample_jvm_delay(self) -> float:
        """Draw a JVM launch delay from the configured distribution."""
        fixed = self._jvm_fixed
        if fixed is not None:
            return fixed
        return self._jvm_samples.next()

    def launch(
        self,
        attempt: Attempt,
        container: Container,
        processing_time: float,
        on_complete: CompletionCallback,
    ) -> None:
        """Start an attempt in a container and schedule its completion."""
        if processing_time < 0:
            raise ValueError("processing_time must be non-negative")
        jvm_delay = self.sample_jvm_delay()
        attempt.mark_running(self._engine.now, jvm_delay, processing_time, container.container_id)
        event = self._engine.schedule_after(
            jvm_delay + processing_time, self._complete, attempt, on_complete
        )
        self._running[attempt.attempt_id] = (event, container)

    def kill(self, attempt: Attempt) -> None:
        """Kill a running attempt: cancel completion and free the container."""
        running = self._running.pop(attempt.attempt_id, None)
        if running is not None:
            running[0].cancel()
        attempt.mark_killed(self._engine.now)  # a no-op for a finished attempt
        if running is not None:
            self._rm.release_container(running[1])

    def clear(self) -> None:
        """Forget every running attempt (the teardown of a capped run)."""
        self._running.clear()

    def _complete(self, attempt: Attempt, on_complete: CompletionCallback) -> None:
        _, container = self._running.pop(attempt.attempt_id)
        attempt.mark_completed(self._engine.now)
        self._rm.release_container(container)
        on_complete(attempt)
