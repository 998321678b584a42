"""Cluster model: a pool of identical container slots.

A cluster is configured as nodes, each offering a fixed number of
container slots (the paper's testbed had 40 nodes x 8 vCPUs).  Neither
the paper's model nor this simulator has data locality or heterogeneous
nodes, so the cluster is simulated as ``num_nodes * slots_per_node``
interchangeable slots: :class:`Cluster` only counts the busy ones.  The
Resource Manager (:mod:`repro.hadoop.resource_manager`) takes and returns
slots through it.

The cluster can also be configured as *unbounded* (``num_nodes=0``) for
analytical-style simulations where container contention is not being
studied — every allocation then succeeds immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


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


class Cluster:
    """Counts the busy container slots of the cluster.

    Every slot is identical, so the number of slots in use is the only
    cluster state that anything can observe: which node a container sits
    on changes nothing in the model.  ``allocate`` takes a slot and
    ``release`` hands one back.
    """

    def __init__(self, config: ClusterConfig):
        self._config = config
        # Read on every allocation; the config is frozen.
        self._capacity = math.inf if config.unbounded else config.total_slots
        self._in_use = 0

    @property
    def config(self) -> ClusterConfig:
        """The static cluster configuration."""
        return self._config

    @property
    def containers_in_use(self) -> int:
        """Number of containers currently allocated."""
        return self._in_use

    @property
    def free_slots(self) -> Optional[int]:
        """Free slots across the cluster, or ``None`` when unbounded."""
        if self._config.unbounded:
            return None
        return self._config.total_slots - self._in_use

    def has_capacity(self) -> bool:
        """Whether at least one container can be allocated right now."""
        return self._in_use < self._capacity

    def allocate(self) -> bool:
        """Take one slot; ``False`` when the cluster is full.

        An unbounded cluster always answers ``True``.
        """
        in_use = self._in_use + 1
        if in_use > self._capacity:
            return False
        self._in_use = in_use
        return True

    def release(self) -> None:
        """Return one slot to the pool."""
        if self._in_use <= 0:
            raise RuntimeError("release of a container slot while none is in use")
        self._in_use -= 1
