"""Tests for tree statistics, throughput and load metrics."""

from __future__ import annotations

import pytest

from repro.metrics.load import flooding_load, single_tree_load
from repro.metrics.throughput import (
    allocated_link_bandwidths,
    average_children_per_internal_node,
    sustainable_throughput,
)
from repro.metrics.tree_stats import summarize_tree
from repro.multicast.kernel import DuplicateDeliveryError, FlatTree
from tests.conftest import make_snapshot, recorded_tree


def lone_tree(ident: int) -> FlatTree:
    return FlatTree.rooted(make_snapshot(8, [ident]), ident)


def star_tree(center: int, leaves: list[int], snapshot=None) -> FlatTree:
    if snapshot is None:
        snapshot = make_snapshot(8, sorted({center, *leaves}))
    return recorded_tree(snapshot, center, [(center, leaf) for leaf in leaves])


def chain_tree(idents: list[int]) -> FlatTree:
    snapshot = make_snapshot(8, sorted(idents))
    return recorded_tree(snapshot, idents[0], list(zip(idents, idents[1:])))


class TestMulticastResult:
    """The recording and query vocabulary of one multicast's tree."""

    def test_source_recorded_at_depth_zero(self):
        result = lone_tree(5)
        assert result.depth[5] == 0
        assert result.parent[5] is None
        assert result.receiver_count == 1

    def test_duplicate_delivery_raises(self):
        result = star_tree(0, [1, 2])
        with pytest.raises(DuplicateDeliveryError):
            result.record_delivery(1, 2)

    def test_forward_before_receive_rejected(self):
        result = FlatTree.rooted(make_snapshot(8, [0, 5, 99]), 0)
        with pytest.raises(ValueError, match="before receiving"):
            result.record_delivery(5, 99)

    def test_path_to_source(self):
        result = chain_tree([1, 2, 3, 4])
        assert result.path_to_source(4) == [4, 3, 2, 1]
        assert result.path_to_source(1) == [1]
        with pytest.raises(KeyError):
            result.path_to_source(9)

    def test_histogram_and_averages(self):
        result = chain_tree([1, 2, 3])
        assert result.path_length_histogram() == {0: 1, 1: 1, 2: 1}
        assert result.average_path_length() == 1.5
        assert result.max_path_length() == 2

    def test_average_path_single_node(self):
        result = lone_tree(3)
        assert result.average_path_length() == 0.0

    def test_verify_exactly_once_missing(self):
        result = star_tree(0, [1])
        with pytest.raises(AssertionError, match="never received"):
            result.verify_exactly_once({0, 1, 2})

    def test_verify_exactly_once_extra(self):
        result = star_tree(0, [1, 9])
        with pytest.raises(AssertionError, match="non-members"):
            result.verify_exactly_once({0, 1})


class TestTreeStats:
    def test_star(self):
        stats = summarize_tree(star_tree(0, [1, 2, 3]))
        assert stats.receivers == 4
        assert stats.internal_count == 1
        assert stats.leaf_count == 3
        assert stats.average_children == 3
        assert stats.max_children == 3
        assert stats.max_path_length == 1
        assert stats.histogram == {0: 1, 1: 3}
        assert stats.coverage_complete(4)
        assert not stats.coverage_complete(5)

    def test_chain(self):
        stats = summarize_tree(chain_tree([0, 1, 2, 3]))
        assert stats.internal_count == 3
        assert stats.average_children == 1
        assert stats.average_path_length == 2.0

    def test_single_node(self):
        stats = summarize_tree(lone_tree(0))
        assert stats.internal_count == 0
        assert stats.average_children == 0.0
        assert stats.max_children == 0


class TestThroughput:
    def test_allocations(self):
        snap = make_snapshot(8, [0, 10, 20, 30], capacity=4,
                             bandwidth=[800.0, 600.0, 500.0, 400.0])
        tree = recorded_tree(snap, 0, [(0, 10), (0, 20), (10, 30)])
        allocations = allocated_link_bandwidths(tree, snap)
        assert allocations == {0: 400.0, 10: 600.0}
        assert sustainable_throughput(tree, snap) == 400.0

    def test_missing_bandwidth_rejected(self):
        snap = make_snapshot(8, [0, 10], capacity=4)
        tree = star_tree(0, [10], snap)
        with pytest.raises(ValueError, match="no bandwidth"):
            sustainable_throughput(tree, snap)

    def test_single_node_session(self):
        snap = make_snapshot(8, [0], capacity=4, bandwidth=750.0)
        tree = FlatTree.rooted(snap, 0)
        assert sustainable_throughput(tree, snap) == 750.0

    def test_bandwidths_come_from_the_tree_snapshot(self):
        """The ``snapshot`` argument is unused: a different snapshot,
        with other bandwidths for the same identifiers, changes nothing
        for a one-member tree or a multi-member one."""
        lone = FlatTree.rooted(make_snapshot(8, [0], bandwidth=750.0), 0)
        other = make_snapshot(8, [0], bandwidth=120.0)
        assert sustainable_throughput(lone, other) == 750.0
        snap = make_snapshot(8, [0, 10, 20], bandwidth=[800.0, 600.0, 500.0])
        tree = recorded_tree(snap, 0, [(0, 10), (0, 20)])
        other = make_snapshot(8, [0, 10, 20], bandwidth=[90.0, 90.0, 90.0])
        assert sustainable_throughput(tree, other) == 400.0
        assert sustainable_throughput(tree, snap) == 400.0

    def test_average_children(self):
        assert average_children_per_internal_node(star_tree(0, [1, 2])) == 2
        assert average_children_per_internal_node(chain_tree([0, 1, 2])) == 1
        assert (
            average_children_per_internal_node(lone_tree(0)) == 0.0
        )


class TestForwardingLoad:
    def test_flooding_aggregates_across_sources(self):
        trees = [star_tree(0, [1, 2]), star_tree(1, [0, 2])]
        load = flooding_load(trees, message_kbits=2.0)
        assert load.per_node[0] == 4.0  # 2 children in tree 1
        assert load.per_node[1] == 4.0
        assert load.per_node[2] == 0.0
        assert load.total == 8.0
        assert load.idle_fraction == pytest.approx(1 / 3)

    def test_single_tree_concentrates(self):
        tree = star_tree(0, [1, 2, 3])
        load = single_tree_load(tree, message_count=10, message_kbits=1.0)
        assert load.per_node[0] == 30.0
        assert load.per_node[1] == 0.0
        assert load.idle_fraction == 0.75
        assert load.max_over_mean == 4.0

    def test_single_tree_validation(self):
        with pytest.raises(ValueError):
            single_tree_load(star_tree(0, [1]), message_count=-1)

    def test_empty_load(self):
        load = flooding_load([], message_kbits=1.0)
        assert load.mean == 0.0
        assert load.max_over_mean == 0.0
        assert load.coefficient_of_variation == 0.0
        assert load.idle_fraction == 0.0

    def test_coefficient_of_variation_uniform_is_zero(self):
        trees = [chain_tree([0, 1, 2, 3])]
        load = flooding_load(trees)
        internal_only = {k: v for k, v in load.per_node.items() if v > 0}
        assert len(set(internal_only.values())) == 1
