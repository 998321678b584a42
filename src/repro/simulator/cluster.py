"""Cluster model: nodes, container slots and allocation accounting.

A cluster is a set of nodes, each offering a fixed number of container
slots (the paper's testbed had 40 nodes x 8 vCPUs).  The Resource Manager
(:mod:`repro.hadoop.resource_manager`) allocates containers from the
cluster; this module only tracks capacity and placement.

The cluster can also be configured as *unbounded* (``num_nodes=0``) for
analytical-style simulations where container contention is not being
studied — every allocation then succeeds immediately on a virtual node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Parameters
    ----------
    num_nodes:
        Number of worker nodes.  ``0`` means an unbounded cluster where
        every container request succeeds immediately.
    slots_per_node:
        Container slots (simultaneous attempts) per node.
    """

    num_nodes: int = 40
    slots_per_node: int = 8

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if self.num_nodes > 0 and self.slots_per_node < 1:
            raise ValueError("slots_per_node must be positive for a bounded cluster")

    @property
    def unbounded(self) -> bool:
        """Whether the cluster has unlimited capacity."""
        return self.num_nodes == 0

    @property
    def total_slots(self) -> int:
        """Total container slots (``0`` denotes unlimited)."""
        return self.num_nodes * self.slots_per_node


@dataclass(slots=True)
class Container:
    """A granted container: one slot on one node running one attempt."""

    container_id: int
    node_id: int
    released: bool = False


@dataclass(slots=True)
class _Node:
    node_id: int
    capacity: int
    in_use: int = 0


class Cluster:
    """Tracks per-node slot usage and hands out containers."""

    def __init__(self, config: ClusterConfig):
        self._config = config
        # Read on every allocation and release; the config is frozen.
        self._unbounded = config.unbounded
        self._total_slots = config.total_slots
        self._nodes: List[_Node] = [
            _Node(node_id=i, capacity=config.slots_per_node) for i in range(config.num_nodes)
        ]
        # Sum of ``in_use`` over the nodes: a full cluster answers
        # ``allocate`` without scanning them.
        self._in_use = 0
        self._container_ids = itertools.count()
        self._active: Dict[int, Container] = {}
        self._peak_usage = 0

    @property
    def config(self) -> ClusterConfig:
        """The static cluster configuration."""
        return self._config

    @property
    def containers_in_use(self) -> int:
        """Number of containers currently allocated."""
        return len(self._active)

    @property
    def peak_containers_in_use(self) -> int:
        """High-water mark of simultaneously allocated containers."""
        return self._peak_usage

    @property
    def free_slots(self) -> Optional[int]:
        """Free slots across the cluster, or ``None`` when unbounded."""
        if self._unbounded:
            return None
        return self._total_slots - self._in_use

    def has_capacity(self) -> bool:
        """Whether at least one container can be allocated right now."""
        return self._unbounded or self._in_use < self._total_slots

    def allocate(self) -> Optional[Container]:
        """Allocate one container, preferring the least-loaded node.

        Returns ``None`` when the cluster is full (never for an unbounded
        cluster).
        """
        if self._unbounded:
            container = Container(next(self._container_ids), -1)
            self._register(container)
            return container
        if self._in_use >= self._total_slots:
            return None
        # Single pass, keeping the first node with the most free slots —
        # the same node ``max`` over the non-full candidates would pick.
        node = None
        node_free = 0
        for candidate in self._nodes:
            free = candidate.capacity - candidate.in_use
            if free > node_free:
                node, node_free = candidate, free
        node.in_use += 1
        self._in_use += 1
        container = Container(next(self._container_ids), node.node_id)
        self._register(container)
        return container

    def release(self, container: Container) -> None:
        """Return a container's slot to the pool.  Idempotent."""
        if container.released:
            return
        container.released = True
        self._active.pop(container.container_id, None)
        if not self._unbounded and container.node_id >= 0:
            node = self._nodes[container.node_id]
            if node.in_use <= 0:
                raise RuntimeError(
                    f"release of container {container.container_id} on node "
                    f"{container.node_id} which has no allocations"
                )
            node.in_use -= 1
            self._in_use -= 1

    def utilisation(self) -> float:
        """Fraction of slots currently in use (``0.0`` for unbounded)."""
        if self._unbounded or self._total_slots == 0:
            return 0.0
        return self.containers_in_use / self._total_slots

    def _register(self, container: Container) -> None:
        active = self._active
        active[container.container_id] = container
        if len(active) > self._peak_usage:
            self._peak_usage = len(active)
