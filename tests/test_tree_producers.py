"""Every tree producer returns the one tree type, well formed.

The one-pass kernel builders and the per-delivery recorders must agree
on what a tree is: a :class:`FlatTree` whose ``order`` lists every
parent before its children, whose ``child_count`` is the adjacency
:meth:`FlatTree.forward_steps` names, and whose ``record_delivery``
refuses a second delivery, a forward from a node that has not
received, and an identifier outside the snapshot.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.multicast.cam_chord import reference_multicast
from repro.multicast.cam_koorde import flood_multicast
from repro.multicast.chord_broadcast import chord_broadcast
from repro.multicast.kernel import (
    DuplicateDeliveryError,
    FlatTree,
    flood_tree,
    region_split_tree,
)
from repro.multicast.proximity import pns_cam_chord_multicast
from repro.multicast.tree_building import build_shared_tree
from repro.overlay.cam_chord import CamChordOverlay
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.koorde import KoordeOverlay
from tests.conftest import random_snapshot

SNAPSHOT = random_snapshot(12, 120, seed=13)
SOURCE = SNAPSHOT.nodes[17]


def _delay(a: int, b: int) -> float:
    return Random(a * 4096 + b).random()


PRODUCERS = {
    "flood_tree": lambda: flood_tree(CamKoordeOverlay(SNAPSHOT), SOURCE),
    "region_split_tree": lambda: region_split_tree(CamChordOverlay(SNAPSHOT), SOURCE),
    "reference_multicast": lambda: reference_multicast(
        CamChordOverlay(SNAPSHOT), SOURCE
    ),
    "flood_multicast": lambda: flood_multicast(CamKoordeOverlay(SNAPSHOT), SOURCE),
    "flood_multicast_capped": lambda: flood_multicast(
        KoordeOverlay(SNAPSHOT, degree=4), SOURCE, fanout_limit=lambda node: 2
    ),
    "chord_broadcast": lambda: chord_broadcast(ChordOverlay(SNAPSHOT, base=2), SOURCE),
    "pns_cam_chord_multicast": lambda: pns_cam_chord_multicast(
        CamChordOverlay(SNAPSHOT), SOURCE, _delay
    ),
    "build_shared_tree": lambda: build_shared_tree(CamChordOverlay(SNAPSHOT), 2024),
}


def _arrays(tree: FlatTree) -> tuple[list[int], ...]:
    return (
        list(tree.parent_index),
        list(tree.depth_array),
        list(tree.child_count),
        list(tree.order),
    )


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_producer_returns_a_well_formed_flat_tree(name):
    tree = PRODUCERS[name]()
    assert isinstance(tree, FlatTree)
    idents = tree.snapshot.identifiers
    assert idents[tree.order[0]] == tree.source_ident
    assert tree.messages_sent == len(tree.order) - 1 > 0

    position = {index: at for at, index in enumerate(tree.order)}
    for index in tree.order[1:]:
        assert position[tree.parent_index[index]] < position[index]

    stepped = [0] * len(idents)
    for parent, kids in tree.forward_steps():
        stepped[tree.member_index(parent)] = len(kids)
    assert list(tree.child_count) == stepped


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_record_delivery_rejects_bad_edges_and_replays_the_tree(name):
    tree = PRODUCERS[name]()
    idents = tree.snapshot.identifiers
    before = _arrays(tree)
    received = idents[tree.order[-1]]
    with pytest.raises(DuplicateDeliveryError):
        tree.record_delivery(received, tree.source_ident)
    outsider = next(ident for ident in range(1 << 12) if tree.member_index(ident) is None)
    with pytest.raises(ValueError, match="not a member"):
        tree.record_delivery(outsider, tree.source_ident)
    with pytest.raises(ValueError, match="not a member"):
        tree.record_delivery(received, outsider)
    assert _arrays(tree) == before

    # replaying the producer's edges in delivery order rebuilds it
    # exactly; before the last receiver has the message, it cannot
    # forward
    replay = FlatTree.rooted(tree.snapshot, tree.source_ident)
    with pytest.raises(ValueError, match="before receiving"):
        replay.record_delivery(idents[tree.order[1]], received)
    for index in tree.order[1:]:
        replay.record_delivery(idents[index], idents[tree.parent_index[index]])
    assert _arrays(replay) == before
    assert replay.messages_sent == tree.messages_sent
    assert replay.parent == tree.parent
