"""Resource Manager: container allocation with a FIFO request queue.

Application Masters ask the RM for containers; when the cluster has free
slots the request is granted after a small heartbeat delay, otherwise the
request joins a FIFO queue and is granted as soon as a container is
released.

An attempt is its own request: ``request_container(attempt, on_grant)``
ends in ``on_grant(attempt)`` once a slot is granted.  An attempt killed
while it waits in the queue is skipped when it reaches the head, so no
request object needs cancelling.  An attempt killed during the grant
delay still receives the grant, and the receiver hands the slot back
with ``release_container()``.

The cluster is a count of identical slots (neither the paper's model nor
this simulator has data locality or heterogeneous nodes), and the RM is
what counts the busy ones.  A grant hands over no container object:
whoever holds a slot gives it back with ``release_container()``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import Attempt, AttemptStatus

# Called as ``on_grant(attempt)`` when a container is granted for it.
GrantCallback = Callable[[Attempt], None]

_WAITING = AttemptStatus.WAITING


class ResourceManager:
    """Grants containers from the cluster's slots, queueing attempts when full.

    An unbounded cluster (``num_nodes=0``) grants every request.
    """

    def __init__(self, engine: SimulationEngine, cluster: ClusterConfig, config: HadoopConfig):
        self._engine = engine
        self._cluster = cluster
        self._grant_delay = config.container_grant_delay
        # Read on every request; the config is frozen.
        self._capacity = math.inf if cluster.unbounded else cluster.total_slots
        self._in_use = 0
        self._pending: Deque[Tuple[Attempt, GrantCallback]] = deque()

    @property
    def containers_in_use(self) -> int:
        """Number of slots currently granted."""
        return self._in_use

    @property
    def free_slots(self) -> Optional[int]:
        """Free slots across the cluster, or ``None`` when unbounded."""
        if self._cluster.unbounded:
            return None
        return self._cluster.total_slots - self._in_use

    @property
    def pending_requests(self) -> int:
        """Number of queued attempts still waiting for a container."""
        return sum(1 for attempt, _ in self._pending if attempt.status is _WAITING)

    def has_idle_capacity(self) -> bool:
        """Free slots exist and nothing is waiting for them.

        Mantri's launch rule ("if there is an available container and no
        task waiting for a container") consults exactly this predicate.
        """
        return self._in_use < self._capacity and self.pending_requests == 0

    def request_container(self, attempt: Attempt, on_grant: GrantCallback) -> None:
        """Request one container for ``attempt``; ``on_grant(attempt)`` runs when granted."""
        if self._in_use >= self._capacity:
            self._pending.append((attempt, on_grant))
            return
        self._in_use += 1
        if self._grant_delay > 0:
            self._engine.schedule_after(self._grant_delay, on_grant, attempt)
        else:
            on_grant(attempt)

    def release_container(self) -> None:
        """Release a container and hand the slot to the next queued attempt."""
        if self._in_use <= 0:
            raise RuntimeError("release of a container slot while none is in use")
        self._in_use -= 1
        if self._pending:
            self._drain_queue()

    def clear(self) -> None:
        """Drop every queued request (the teardown of a capped run)."""
        self._pending.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain_queue(self) -> None:
        pending = self._pending
        while pending:
            attempt, on_grant = pending[0]
            if attempt.status is not _WAITING:
                pending.popleft()  # killed while it waited
                continue
            if self._in_use >= self._capacity:
                return
            pending.popleft()
            self._in_use += 1
            if self._grant_delay > 0:
                self._engine.schedule_after(self._grant_delay, on_grant, attempt)
            else:
                on_grant(attempt)
