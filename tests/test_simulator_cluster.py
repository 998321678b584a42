"""Unit tests for the cluster model: a count of identical container slots.

The Resource Manager keeps that count, so the slot tests drive it.
"""

from __future__ import annotations

import pytest

from repro.hadoop.config import HadoopConfig
from repro.hadoop.resource_manager import ResourceManager
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.entities import Attempt, Job, JobSpec


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_nodes == 40
        assert config.slots_per_node == 8
        assert config.total_slots == 320
        assert not config.unbounded

    def test_unbounded(self):
        config = ClusterConfig(num_nodes=0)
        assert config.unbounded
        assert config.total_slots == 0

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=-1)

    def test_rejects_zero_slots_on_bounded(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=2, slots_per_node=0)


def slot_counter(num_nodes, slots_per_node=8):
    """A Resource Manager, which counts the cluster's busy slots."""
    config = HadoopConfig.instantaneous()
    return ResourceManager(SimulationEngine(), ClusterConfig(num_nodes, slots_per_node), config)


def take(rm, count):
    """Request ``count`` slots; return the attempts granted at once."""
    spec = JobSpec(job_id="j", num_tasks=count, deadline=100.0, tmin=10.0, beta=1.5)
    granted = []
    for task in Job(spec=spec).tasks:
        rm.request_container(Attempt(task, 0.0), granted.append)
    return granted


class TestBoundedCluster:
    def test_allocate_until_full(self):
        rm = slot_counter(num_nodes=2, slots_per_node=2)
        assert len(take(rm, 5)) == 4
        assert rm.pending_requests == 1
        assert rm.containers_in_use == 4
        assert rm.free_slots == 0
        assert not rm.has_idle_capacity()

    def test_release_restores_capacity(self):
        rm = slot_counter(num_nodes=1, slots_per_node=1)
        assert len(take(rm, 1)) == 1
        assert take(rm, 1) == []
        rm.release_container()  # hands the slot to the queued attempt
        assert rm.containers_in_use == 1 and rm.pending_requests == 0
        rm.release_container()
        assert rm.has_idle_capacity()
        assert len(take(rm, 1)) == 1

    def test_release_with_nothing_in_use_raises(self):
        rm = slot_counter(num_nodes=1, slots_per_node=2)
        with pytest.raises(RuntimeError):
            rm.release_container()
        take(rm, 1)
        rm.release_container()
        with pytest.raises(RuntimeError):
            rm.release_container()
        assert rm.containers_in_use == 0

    def test_containers_in_use_and_free_slots_track_allocations(self):
        rm = slot_counter(num_nodes=2, slots_per_node=2)
        assert rm.containers_in_use == 0 and rm.free_slots == 4
        take(rm, 1)
        assert rm.containers_in_use == 1 and rm.free_slots == 3
        take(rm, 3)
        for _ in range(4):
            rm.release_container()
        assert rm.containers_in_use == 0 and rm.free_slots == 4


class TestUnboundedCluster:
    def test_always_has_capacity(self):
        rm = slot_counter(num_nodes=0)
        assert len(take(rm, 100)) == 100
        assert rm.has_idle_capacity()
        assert rm.free_slots is None
        assert rm.containers_in_use == 100

    def test_release_works(self):
        rm = slot_counter(num_nodes=0)
        take(rm, 1)
        rm.release_container()
        assert rm.containers_in_use == 0
        with pytest.raises(RuntimeError):
            rm.release_container()
