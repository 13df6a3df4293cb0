"""Kernel/reference equivalence: one-pass trees equal recorded trees.

The flat-array kernel (:mod:`repro.multicast.kernel`) must reproduce
the ``record_delivery``-built reference recorders *edge for edge* —
same parents, same depths, same children counts, and the same delivery
order (the reference recording order), because downstream consumers
iterate the views and their output depends on that order.
Property-tested here for all four registry systems over random
memberships, capacities, identifier-space sizes and sources.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.metrics.tree_stats import summarize_tree
from repro.multicast import backup, kernel
from repro.multicast.cam_chord import reference_multicast
from repro.multicast.cam_koorde import flood_multicast
from repro.multicast.kernel import FlatTree, flood_tree, region_split_tree
from repro.overlay.cam_chord import CamChordOverlay, candidate_slots
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.koorde import KoordeOverlay
from repro.systems import all_descriptors
from repro.trace.causal import MulticastRecord
from tests.conftest import make_snapshot, random_snapshot


@st.composite
def memberships(draw) -> tuple[int, list[int]]:
    """``(bits, sorted identifiers)`` over a 6- to 12-bit space: on the
    small spaces ladders are short and the top-level slots are hit."""
    bits = draw(st.integers(min_value=6, max_value=12))
    space = st.integers(min_value=0, max_value=(1 << bits) - 1)
    idents = draw(st.sets(space, min_size=1, max_size=80))
    return bits, sorted(idents)


#: mixed capacity pools, cycled over the ring's members
capacity_pools = st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=8)


def cycle_capacities(caps: list[int], count: int, floor: int) -> list[int]:
    return [max(floor, caps[i % len(caps)]) for i in range(count)]


def assert_same_tree(flat: FlatTree, reference) -> None:
    """Edge-for-edge, order-for-order equality of the two builders."""
    assert isinstance(flat, FlatTree)
    assert flat.source_ident == reference.source_ident
    assert flat.messages_sent == reference.messages_sent
    assert flat.receiver_count == reference.receiver_count
    # dict equality AND insertion (delivery) order
    assert flat.parent == reference.parent
    assert list(flat.parent) == list(reference.parent)
    assert flat.depth == reference.depth
    assert list(flat.depth) == list(reference.depth)
    flat_children = flat.children_counts()
    ref_children = reference.children_counts()
    assert flat_children == ref_children
    assert list(flat_children) == list(ref_children)
    assert flat.path_length_histogram() == reference.path_length_histogram()
    assert flat.average_path_length() == reference.average_path_length()
    assert flat.max_path_length() == reference.max_path_length()
    assert sorted(flat.internal_nodes()) == sorted(reference.internal_nodes())
    assert flat.forward_steps() == reference.forward_steps()
    assert summarize_tree(flat) == summarize_tree(reference)


@settings(max_examples=60, deadline=None)
@given(ring=memberships(), caps=capacity_pools, source_index=st.integers(min_value=0))
def test_cam_chord_kernel_matches_reference(ring, caps, source_index):
    bits, ordered = ring
    capacities = cycle_capacities(caps, len(ordered), floor=2)
    snap = make_snapshot(bits, ordered, capacity=capacities)
    overlay = CamChordOverlay(snap)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(
        region_split_tree(overlay, source), reference_multicast(overlay, source)
    )


@settings(max_examples=60, deadline=None)
@given(
    ring=memberships(),
    base=st.integers(min_value=2, max_value=40),
    source_index=st.integers(min_value=0),
)
def test_chord_kernel_matches_reference(ring, base, source_index):
    """The Figure 6 "Chord" baseline: uniform fanout, same splitter."""
    bits, ordered = ring
    snap = make_snapshot(bits, ordered, capacity=2)
    overlay = ChordOverlay(snap, base=base)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(
        region_split_tree(overlay, source), reference_multicast(overlay, source)
    )


@settings(max_examples=60, deadline=None)
@given(ring=memberships(), caps=capacity_pools, source_index=st.integers(min_value=0))
def test_cam_koorde_kernel_matches_reference(ring, caps, source_index):
    bits, ordered = ring
    capacities = cycle_capacities(caps, len(ordered), floor=4)
    snap = make_snapshot(bits, ordered, capacity=capacities)
    overlay = CamKoordeOverlay(snap)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(flood_tree(overlay, source), flood_multicast(overlay, source))


@settings(max_examples=60, deadline=None)
@given(
    ring=memberships(),
    degree=st.sampled_from([2, 3, 4, 8, 16]),
    source_index=st.integers(min_value=0),
)
def test_koorde_kernel_matches_reference(ring, degree, source_index):
    bits, ordered = ring
    snap = make_snapshot(bits, ordered, capacity=2)
    overlay = KoordeOverlay(snap, degree=degree)
    source = snap.nodes[source_index % len(snap.nodes)]
    assert_same_tree(flood_tree(overlay, source), flood_multicast(overlay, source))


def test_all_sources_match_on_all_registry_systems():
    """Every source over every registry system, one deterministic ring."""
    idents = [3, 17, 40, 99, 123, 256, 300, 512, 700, 801, 900, 1011]
    snap = make_snapshot(10, idents, capacity=[4, 5, 4, 5, 6, 7, 8, 4, 5, 5, 6, 4])
    for descriptor in all_descriptors():
        overlay = descriptor.build_overlay(snap, uniform_fanout=4)
        for source in snap.nodes:
            flat = descriptor.run_multicast(overlay, source)
            assert isinstance(flat, FlatTree), descriptor.name
            if isinstance(overlay, (CamKoordeOverlay, KoordeOverlay)):
                reference = flood_multicast(overlay, source)
            else:
                reference = reference_multicast(overlay, source)
            assert_same_tree(flat, reference)


def test_slot_tables_memoize_across_sources():
    """A second tree over the same overlay resolves (almost) nothing:
    the flood CSR is complete after the first build, and the splitter's
    slot tables answer every revisited (node, slot) from memory."""
    idents = list(range(0, 1024, 9))
    snap = make_snapshot(10, idents, capacity=4)

    overlay = CamKoordeOverlay(snap)
    flood_tree(overlay, snap.nodes[0])
    before = perf.snapshot()
    flood_tree(overlay, snap.nodes[1])
    delta = perf.since(before)
    assert delta.kernel_resolves == 0  # CSR built once, ever

    chord = CamChordOverlay(snap)
    region_split_tree(chord, snap.nodes[0])
    before = perf.snapshot()
    repeat = region_split_tree(chord, snap.nodes[0])
    delta = perf.since(before)
    assert delta.kernel_resolves == 0  # identical tree: pure table hits
    assert delta.kernel_resolves_saved > 0
    assert repeat.receiver_count == len(idents)


def test_kernel_path_to_source_and_delivery_queries():
    idents = [1, 50, 200, 400, 600, 800, 1000]
    snap = make_snapshot(10, idents, capacity=3)
    overlay = CamChordOverlay(snap)
    flat = region_split_tree(overlay, snap.nodes[0])
    reference = reference_multicast(overlay, snap.nodes[0])
    for ident in idents:
        assert flat.was_delivered(ident)
        assert flat.path_to_source(ident) == reference.path_to_source(ident)
    assert not flat.was_delivered(7)  # never a member
    flat.verify_exactly_once(set(idents))


def test_candidate_slots_follow_the_figure_3_worked_example():
    """Figure 3's root: x = 0 with capacity 3 over (0, 31] is at level 3,
    sequence 1.  It takes x_{3,1}, spreads its spare capacity to
    x_{2,2} (ceiling; floor would pick x_{2,1}), then the successor."""
    assert candidate_slots(3, 3, 1) == ((3, 1), (2, 2), (0, 1))
    assert candidate_slots(4, 0, 3) == ((0, 3), (0, 2), (0, 1), (0, 1))
    assert candidate_slots(5, 2, 4) == ((2, 4), (2, 3), (2, 2), (2, 1), (0, 1))


def test_slot_resolutions_are_pinned():
    """The slot tables fill and hit exactly as before the compiled
    plans: per-tree ``(kernel_resolves, kernel_resolves_saved)`` over a
    fixed ring and source list, the last source repeating the first."""
    snap = random_snapshot(12, 300, seed=5, capacity_range=(2, 40))
    expected = {
        CamChordOverlay: [(3115, 168), (993, 2078), (544, 2409), (380, 2710), (0, 3283)],
        ChordOverlay: [(1762, 110), (756, 1183), (315, 1558), (144, 1733), (0, 1872)],
    }
    for overlay in (CamChordOverlay(snap), ChordOverlay(snap, base=8)):
        counts = []
        for index in (0, 77, 150, 299, 0):
            before = perf.snapshot()
            region_split_tree(overlay, snap.nodes[index])
            delta = perf.since(before)
            counts.append((delta.kernel_resolves, delta.kernel_resolves_saved))
        assert counts == expected[type(overlay)]


def test_tree_builders_call_the_kernel_by_module_attribute(monkeypatch):
    """Every registry system's ``run_multicast``, and the backup
    planner's frozen-epoch rebuild (``backup_plan_for_record``), look
    the kernel entry points up by name at call time.  A wrapper put on
    ``repro.multicast.kernel.region_split_tree``/``flood_tree`` — or on
    the names ``repro.multicast.backup`` imported — therefore sees
    every tree; the layered benchmark's per-layer spans rely on it.  A
    module-level ``from repro.multicast.kernel import ...`` in
    cam_chord.py, cam_koorde.py or koorde_flood.py would bypass the
    wrapper and fail here."""
    calls: Counter[tuple[str, str]] = Counter()

    def count_calls(module, name: str) -> None:
        original = getattr(module, name)

        def counted(*args):
            calls[module.__name__, name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (kernel, backup):
        for name in ("region_split_tree", "flood_tree"):
            count_calls(module, name)

    idents = [3, 17, 40, 99, 123, 256, 300, 512, 700, 801, 900, 1011]
    capacities = [4, 5, 4, 5, 6, 7, 8, 4, 5, 5, 6, 4]
    snap = make_snapshot(10, idents, capacity=capacities)
    record = MulticastRecord(
        mid=1,
        source=idents[0],
        system="",
        bits=10,
        origin_time=0.0,
        members=frozenset(idents),
        capacities=dict(zip(idents, capacities)),
    )
    for descriptor in all_descriptors():
        entry = "region_split_tree" if descriptor.builds_single_tree else "flood_tree"
        calls.clear()
        overlay = descriptor.build_overlay(snap, uniform_fanout=4)
        descriptor.run_multicast(overlay, snap.nodes[0])
        assert calls == {("repro.multicast.kernel", entry): 1}, descriptor.name
        calls.clear()
        assert backup.backup_plan_for_record(record, descriptor, 4) is not None
        assert calls == {("repro.multicast.backup", entry): 1}, descriptor.name
