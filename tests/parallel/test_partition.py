"""Unit tests for the worker -> domain shard partition."""

import pytest

from repro.parallel.partition import ShardPartition


def test_even_partition():
    p = ShardPartition(num_workers=8, workers_per_process=2)
    assert p.num_domains == 4
    assert [p.domain_of(w) for w in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert list(p.workers_of(0)) == [0, 1]
    assert list(p.workers_of(3)) == [6, 7]
    assert list(p.domains()) == [0, 1, 2, 3]


def test_ragged_tail_is_its_own_domain():
    p = ShardPartition(num_workers=5, workers_per_process=2)
    assert p.num_domains == 3
    assert list(p.workers_of(2)) == [4]
    assert p.domain_of(4) == 2


def test_single_domain():
    p = ShardPartition(num_workers=4, workers_per_process=8)
    assert p.num_domains == 1
    assert list(p.workers_of(0)) == [0, 1, 2, 3]


def test_partition_covers_all_workers_exactly_once():
    p = ShardPartition(num_workers=13, workers_per_process=3)
    covered = [w for d in p.domains() for w in p.workers_of(d)]
    assert covered == list(range(13))
    for d in p.domains():
        for w in p.workers_of(d):
            assert p.domain_of(w) == d


def test_validation():
    with pytest.raises(ValueError):
        ShardPartition(num_workers=0, workers_per_process=2)
    with pytest.raises(ValueError):
        ShardPartition(num_workers=4, workers_per_process=0)
    p = ShardPartition(num_workers=4, workers_per_process=2)
    with pytest.raises(ValueError):
        p.domain_of(4)
    with pytest.raises(ValueError):
        p.domain_of(-1)
    with pytest.raises(ValueError):
        p.workers_of(2)


def test_matches_cluster_process_layout():
    """The cluster's simulated processes ARE the shard partition."""
    from repro.sim.engine import Simulator
    from repro.sim.network import Cluster

    cluster = Cluster(Simulator(), num_workers=5, workers_per_process=2)
    p = ShardPartition(num_workers=5, workers_per_process=2)
    assert p.num_domains == len(cluster.processes)
    for proc in cluster.processes:
        assert proc.worker_ids == list(p.workers_of(proc.index))
    for w in range(5):
        assert cluster.process_of(w).index == p.domain_of(w)
