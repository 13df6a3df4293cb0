"""Property tests for precomputed backup trees (:mod:`repro.multicast.backup`).

Three pinned properties, each over random memberships/capacities for
both a region-splitting and a flood system:

* **exact orphan coverage** — for every primary edge and node, the
  installed plan's orphan set is exactly the frozen subtree an
  independent recomputation (from the routes' own frozen parents)
  yields, and every non-source member has a route;
* **fanout bounds** — activating a failover never pushes any backup
  parent past the descriptor's ``live_fanout_bound`` counting its
  primary children, and recovered/uncovered partition the orphan set;
* **determinism** — two from-scratch builds over the same membership
  are equal, value for value (what lets the campaign install plans in
  worker processes and compare them across runs).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.backup import (
    BackupPlan,
    FailoverTiming,
    apply_failover,
    backup_plan_for_record,
    build_backup_plan,
    delivery_gaps,
    gap_values,
    sorted_gap_items,
)
from repro.multicast.kernel import flood_tree, region_split_tree
from repro.systems import get_system
from repro.trace.causal import MulticastRecord
from tests.conftest import make_snapshot

BITS = 10
ORIGIN = 100.0
HOP = 0.02

memberships = st.sets(st.integers(min_value=0, max_value=1023), min_size=4, max_size=48)
cap_pools = st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=6)
systems = st.sampled_from(["cam-chord", "cam-koorde"])


def build_tree(system: str, idents, caps):
    """One frozen tree (plus capacities) over a cycled-capacity ring."""
    descriptor = get_system(system)
    ordered = sorted(idents)
    capacities = [
        max(descriptor.min_capacity, caps[i % len(caps)])
        for i in range(len(ordered))
    ]
    snap = make_snapshot(BITS, ordered, capacity=capacities)
    overlay = descriptor.build_overlay(snap, uniform_fanout=3)
    builder = region_split_tree if descriptor.builds_single_tree else flood_tree
    tree = builder(overlay, snap.nodes[0])
    return descriptor, tree, {node.ident: node.capacity for node in snap.nodes}


def record_from_tree(tree, descriptor, capacities) -> MulticastRecord:
    """A fully-delivered causal record synthesized from one frozen tree."""
    deliveries = {
        ident: (parent, tree.depth[ident], ORIGIN + tree.depth[ident] * HOP)
        for ident, parent in tree.parent.items()
    }
    return MulticastRecord(
        mid=1,
        source=tree.source_ident,
        system=descriptor.name,
        bits=BITS,
        origin_time=ORIGIN,
        members=frozenset(tree.parent),
        capacities=dict(capacities),
        deliveries=deliveries,
    )


def orphan_record(tree, descriptor, capacities, plan: BackupPlan, victim: int):
    """The record after node ``victim`` died mid-dissemination: the
    victim departed, its whole subtree never delivered."""
    record = record_from_tree(tree, descriptor, capacities)
    for ident in plan.subtree(victim):
        record.deliveries.pop(ident, None)
    record.departed = frozenset({victim})
    return record


def descendants(plan: BackupPlan, root: int) -> set[int]:
    """Subtree membership recomputed from the routes' frozen parents
    alone — independent of the plan's stored ``children`` adjacency."""
    parents = {ident: route.parent for ident, route in plan.routes.items()}
    out = {root}
    changed = True
    while changed:
        changed = False
        for ident, parent in parents.items():
            if parent in out and ident not in out:
                out.add(ident)
                changed = True
    return out


@settings(max_examples=40, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_covers_exactly_the_orphan_set(idents, caps, system):
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree)
    assert set(plan.routes) == set(plan.epoch_members) - {plan.source}
    for child, route in plan.routes.items():
        assert set(plan.orphans_of_edge(route.parent, child)) == descendants(
            plan, child
        )
    for ident in plan.epoch_members:
        union: set[int] = set()
        for child in plan.children.get(ident, ()):
            union |= descendants(plan, child)
        assert set(plan.orphans_of_node(ident)) == union


@settings(max_examples=40, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_candidates_never_cycle(idents, caps, system):
    """No installed candidate is the member itself or inside its own
    orphaned subtree — a graft there would feed the message from a node
    that does not have it.  The primary parent appears exactly once,
    strictly last: admissible only for pure edge failures, where the
    parent survives and still holds the message."""
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree)
    for ident, route in plan.routes.items():
        blocked = descendants(plan, ident)
        assert ident in blocked  # own subtree includes the member
        assert not blocked.intersection(route.candidates)
        assert route.candidates[-1] == route.parent
        assert route.parent not in route.candidates[:-1]


@settings(max_examples=30, deadline=None)
@given(
    idents=memberships,
    caps=cap_pools,
    victim_index=st.integers(min_value=0),
    system=systems,
)
def test_failover_partitions_orphans_within_fanout_bounds(
    idents, caps, victim_index, system
):
    descriptor, tree, capacities = build_tree(system, idents, caps)
    plan = build_backup_plan(tree)
    non_source = sorted(set(plan.epoch_members) - {plan.source})
    victim = non_source[victim_index % len(non_source)]
    record = orphan_record(tree, descriptor, capacities, plan, victim)
    recovery = apply_failover(record, plan, descriptor, FailoverTiming())

    recovered = {item.ident for item in recovery.recovered}
    assert recovered | set(recovery.uncovered) == record.undelivered
    assert not recovered.intersection(recovery.uncovered)

    primary: dict[int, int] = {}
    for parent, _child in record.actual_edges():
        primary[parent] = primary.get(parent, 0) + 1
    for parent, grafts in recovery.graft_load().items():
        bound = descriptor.live_fanout_bound(record.capacities[parent])
        assert primary.get(parent, 0) + grafts <= bound
        # feeders hold the message: primary delivery, the source, or
        # their own (earlier) backup recovery
        assert (
            parent == record.source
            or parent in record.deliveries
            or parent in recovered
        )

    gaps = delivery_gaps(record, recovery)
    for member in recovered:
        assert gaps[member] > 0.0
    assert gap_values(sorted_gap_items(gaps)) == [
        gap for _ident, gap in sorted(gaps.items())
    ]


@settings(max_examples=25, deadline=None)
@given(idents=memberships, caps=cap_pools, system=systems)
def test_backup_plan_deterministic_across_two_builds(idents, caps, system):
    """Two fully independent builds — snapshot up — are value-equal."""
    _, tree_a, _ = build_tree(system, idents, caps)
    _, tree_b, _ = build_tree(system, idents, caps)
    plan_a = build_backup_plan(tree_a)
    plan_b = build_backup_plan(tree_b)
    assert plan_a == plan_b


def test_plan_for_record_and_error_paths():
    descriptor, tree, capacities = build_tree("cam-chord", {1, 64, 200, 512, 900}, [3])
    record = record_from_tree(tree, descriptor, capacities)

    plan = backup_plan_for_record(record, descriptor, uniform_fanout=3)
    assert plan is not None
    assert set(plan.epoch_members) == set(record.members)
    assert plan.source == record.source

    # a stale epoch that does not know the source roots nothing
    stale = [(ident, cap) for ident, cap in capacities.items() if ident != record.source]
    assert backup_plan_for_record(record, descriptor, 3, membership=stale) is None

    with pytest.raises(KeyError):
        plan.subtree(7777)  # not an epoch member
    with pytest.raises(KeyError):
        plan.orphans_of_edge(1, 1)  # not a primary edge

    # nothing undelivered -> nothing to recover
    recovery = apply_failover(record, plan, descriptor, FailoverTiming())
    assert not recovery.recovered and not recovery.uncovered

    # no plan at all -> everything stays uncovered
    victim = next(iter(set(plan.epoch_members) - {plan.source}))
    broken = orphan_record(tree, descriptor, capacities, plan, victim)
    bare = apply_failover(broken, None, descriptor, FailoverTiming())
    assert set(bare.uncovered) == broken.undelivered
