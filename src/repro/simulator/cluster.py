"""Cluster model: a pool of identical container slots.

A cluster is configured as nodes, each offering a fixed number of
container slots (the paper's testbed had 40 nodes x 8 vCPUs).  Neither
the paper's model nor this simulator has data locality or heterogeneous
nodes, so the cluster is simulated as ``num_nodes * slots_per_node``
interchangeable slots, and the only cluster state is how many are busy.
The Resource Manager (:mod:`repro.hadoop.resource_manager`) keeps that
count.

The cluster can also be configured as *unbounded* (``num_nodes=0``) for
analytical-style simulations where container contention is not being
studied — every allocation then succeeds immediately.
"""

from __future__ import annotations

from dataclasses import dataclass


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
