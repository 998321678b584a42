"""Resource Manager: container allocation with a FIFO request queue.

Application Masters ask the RM for containers; when the cluster has free
slots the request is granted after a small heartbeat delay, otherwise the
request joins a FIFO queue and is granted as soon as a container is
released.  Requests can be cancelled (e.g. when the attempt they were for
is killed before a container was ever granted).

A request carries a callback and its leading arguments:
``request_container(callback, *args)`` ends in ``callback(*args,
container)``.  Callers pass a bound method and the attempt instead of
building a closure per request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Tuple

from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import Cluster, Container
from repro.simulator.engine import SimulationEngine

# Callback invoked as ``callback(*args, container)`` when a container is
# granted for a request.
GrantCallback = Callable[..., None]


@dataclass(slots=True)
class ContainerRequest:
    """A pending request for one container."""

    callback: GrantCallback = field(repr=False)
    args: Tuple[Any, ...] = field(default=(), repr=False)
    cancelled: bool = False

    def cancel(self) -> None:
        """Withdraw the request; a queued request will simply be skipped."""
        self.cancelled = True


class ResourceManager:
    """Grants containers from the cluster, queueing requests when full."""

    def __init__(self, engine: SimulationEngine, cluster: Cluster, config: HadoopConfig):
        self._engine = engine
        self._cluster = cluster
        self._config = config
        self._grant_delay = config.container_grant_delay
        self._pending: Deque[ContainerRequest] = deque()
        self._granted = 0

    @property
    def cluster(self) -> Cluster:
        """The underlying cluster."""
        return self._cluster

    @property
    def pending_requests(self) -> int:
        """Number of container requests waiting for capacity."""
        return sum(1 for request in self._pending if not request.cancelled)

    @property
    def granted_containers(self) -> int:
        """Total number of containers granted so far."""
        return self._granted

    def has_idle_capacity(self) -> bool:
        """Free slots exist and nothing is waiting for them.

        Mantri's launch rule ("if there is an available container and no
        task waiting for a container") consults exactly this predicate.
        """
        return self._cluster.has_capacity() and self.pending_requests == 0

    def request_container(self, callback: GrantCallback, *args: Any) -> ContainerRequest:
        """Request one container; ``callback(*args, container)`` runs when it is granted."""
        request = ContainerRequest(callback, args)
        container = self._cluster.allocate()
        if container is not None:
            self._schedule_grant(request, container)
        else:
            self._pending.append(request)
        return request

    def release_container(self, container: Container) -> None:
        """Release a container and hand the slot to the next queued request."""
        self._cluster.release(container)
        if self._pending:
            self._drain_queue()

    def clear(self) -> None:
        """Drop every queued request (the teardown of a capped run)."""
        self._pending.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain_queue(self) -> None:
        # ``allocate`` already performs the capacity check, so attempting
        # the allocation directly avoids a second scan over the nodes.
        pending = self._pending
        while pending:
            if pending[0].cancelled:
                pending.popleft()
                continue
            container = self._cluster.allocate()
            if container is None:
                return
            self._schedule_grant(pending.popleft(), container)

    def _schedule_grant(self, request: ContainerRequest, container: Container) -> None:
        if self._grant_delay > 0:
            self._engine.schedule_after(self._grant_delay, self._deliver, request, container)
        else:
            self._deliver(request, container)

    def _deliver(self, request: ContainerRequest, container: Container) -> None:
        if request.cancelled:
            # The requester no longer needs the container; return it.
            self.release_container(container)
            return
        self._granted += 1
        request.callback(*request.args, container)
