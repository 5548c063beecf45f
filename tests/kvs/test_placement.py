"""Tests for consistent-hash placement and primary promotion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvs.placement import ConsistentHashRing, Placement


class TestConsistentHashRing:
    def test_successors_distinct(self):
        ring = ConsistentHashRing([0, 1, 2, 3])
        nodes = ring.successors("some-key", 3)
        assert len(nodes) == len(set(nodes)) == 3

    def test_deterministic(self):
        first = ConsistentHashRing([0, 1, 2]).successors("k", 2)
        second = ConsistentHashRing([0, 1, 2]).successors("k", 2)
        assert first == second

    def test_too_many_replicas_raises(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([0, 1]).successors("k", 3)

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])

    def test_stability_under_node_addition(self):
        """Consistent hashing: adding a node moves few partitions."""
        before = ConsistentHashRing([0, 1, 2, 3], virtual_nodes=128)
        after = ConsistentHashRing([0, 1, 2, 3, 4], virtual_nodes=128)
        moved = sum(
            1
            for index in range(500)
            if before.successors(f"p{index}", 1) != after.successors(f"p{index}", 1)
        )
        # Ideally ~1/5 of keys move; allow generous slack.
        assert moved < 500 * 0.45

    def test_balance(self):
        ring = ConsistentHashRing([0, 1, 2, 3], virtual_nodes=256)
        counts = {node: 0 for node in range(4)}
        for index in range(2000):
            counts[ring.successors(f"key-{index}", 1)[0]] += 1
        for count in counts.values():
            assert count > 2000 / 4 * 0.5


class TestPlacement:
    def test_replica_count(self):
        placement = Placement([0, 1, 2], replication_degree=2)
        replicas = placement.replicas(0, 5)
        assert len(replicas) == 2
        assert len(set(replicas)) == 2

    def test_primary_is_first_replica(self):
        placement = Placement([0, 1, 2], replication_degree=2)
        assert placement.primary(0, 5) == placement.replicas(0, 5)[0]

    def test_primary_promotion_on_failure(self):
        """§3.2.5: the new primary is computed deterministically."""
        placement = Placement([0, 1, 2], replication_degree=3)
        old_primary = placement.primary(0, 5)
        replicas = placement.replicas(0, 5)
        placement.mark_down(old_primary)
        new_primary = placement.primary(0, 5)
        assert new_primary == next(n for n in replicas if n != old_primary)

    def test_all_replicas_down_raises(self):
        placement = Placement([0, 1], replication_degree=2)
        placement.mark_down(0)
        placement.mark_down(1)
        with pytest.raises(RuntimeError):
            placement.primary(0, 5)

    def test_mark_up_restores(self):
        placement = Placement([0, 1], replication_degree=2)
        primary = placement.primary(0, 5)
        placement.mark_down(primary)
        placement.mark_up(primary)
        assert placement.primary(0, 5) == primary

    def test_backups_exclude_primary(self):
        placement = Placement([0, 1, 2, 3], replication_degree=3)
        primary = placement.primary(0, 7)
        assert primary not in placement.backups(0, 7)

    def test_live_replicas_shrink(self):
        placement = Placement([0, 1, 2], replication_degree=3)
        victim = placement.replicas(0, 9)[1]
        placement.mark_down(victim)
        assert victim not in placement.live_replicas(0, 9)

    def test_log_nodes_are_f_plus_one_and_fixed(self):
        """§3.1.4: every coordinator logs to the same f+1 servers."""
        placement = Placement([0, 1, 2, 3], replication_degree=2)
        log_nodes = placement.log_nodes(coord_id=17)
        assert len(log_nodes) == 2
        assert placement.log_nodes(17) == log_nodes  # stable

    def test_invalid_replication_degree(self):
        with pytest.raises(ValueError):
            Placement([0], replication_degree=2)
        with pytest.raises(ValueError):
            Placement([0], replication_degree=0)


@given(
    nodes=st.integers(min_value=2, max_value=8),
    degree=st.integers(min_value=1, max_value=3),
    table=st.integers(min_value=0, max_value=8),
    slot=st.integers(min_value=0, max_value=100000),
)
@settings(max_examples=100)
def test_placement_properties(nodes, degree, table, slot):
    """Replica lists are valid, deterministic, and degree-sized."""
    if degree > nodes:
        degree = nodes
    placement = Placement(list(range(nodes)), replication_degree=degree)
    replicas = placement.replicas(table, slot)
    assert len(replicas) == degree
    assert len(set(replicas)) == degree
    assert all(0 <= node < nodes for node in replicas)
    assert placement.replicas(table, slot) == replicas


@given(
    partitions=st.integers(min_value=1, max_value=70),
    table=st.integers(min_value=0, max_value=8),
    start=st.integers(min_value=0, max_value=300),
    length=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=100)
def test_partition_runs_tile_the_range_within_one_partition_each(partitions, table, start, length):
    placement = Placement([0, 1, 2], replication_degree=2, partitions=partitions)
    stop = start + length
    runs = placement.partition_runs(start, stop)
    covered = sorted(slot for run in runs for slot in range(stop)[run])
    assert covered == list(range(start, stop))
    for run in runs:
        owners = {placement.partition_of(table, slot) for slot in range(stop)[run]}
        assert owners == {placement.partition_of(table, run.start)}
