"""Unit tests for the cluster model: a count of identical container slots."""

from __future__ import annotations

import pytest

from repro.simulator.cluster import Cluster, ClusterConfig


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


class TestBoundedCluster:
    def test_allocate_until_full(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, slots_per_node=2))
        assert [cluster.allocate() for _ in range(4)] == [True] * 4
        assert cluster.allocate() is False
        assert cluster.containers_in_use == 4
        assert cluster.free_slots == 0
        assert not cluster.has_capacity()

    def test_release_restores_capacity(self):
        cluster = Cluster(ClusterConfig(num_nodes=1, slots_per_node=1))
        assert cluster.allocate()
        assert cluster.allocate() is False
        cluster.release()
        assert cluster.has_capacity()
        assert cluster.allocate()

    def test_release_with_nothing_in_use_raises(self):
        cluster = Cluster(ClusterConfig(num_nodes=1, slots_per_node=2))
        with pytest.raises(RuntimeError):
            cluster.release()
        cluster.allocate()
        cluster.release()
        with pytest.raises(RuntimeError):
            cluster.release()
        assert cluster.containers_in_use == 0

    def test_containers_in_use_and_free_slots_track_allocations(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, slots_per_node=2))
        assert cluster.containers_in_use == 0 and cluster.free_slots == 4
        cluster.allocate()
        assert cluster.containers_in_use == 1 and cluster.free_slots == 3
        for _ in range(3):
            cluster.allocate()
        for _ in range(4):
            cluster.release()
        assert cluster.containers_in_use == 0 and cluster.free_slots == 4


class TestUnboundedCluster:
    def test_always_has_capacity(self):
        cluster = Cluster(ClusterConfig(num_nodes=0))
        assert all(cluster.allocate() for _ in range(100))
        assert cluster.has_capacity()
        assert cluster.free_slots is None
        assert cluster.containers_in_use == 100

    def test_release_works(self):
        cluster = Cluster(ClusterConfig(num_nodes=0))
        cluster.allocate()
        cluster.release()
        assert cluster.containers_in_use == 0
        with pytest.raises(RuntimeError):
            cluster.release()
