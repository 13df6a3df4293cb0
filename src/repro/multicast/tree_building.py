"""The tree-building architecture of Section 5.1, for comparison.

"In the approach of tree building, nodes from different multicast
groups participate in a single overlay network, and each group forms a
multicast tree on top of the overlay network by using reverse path
forwarding."  (This is the Scribe/Bayeux family the paper contrasts
its flooding approach with.)

Construction: the group key hashes to a *rendezvous* node (the tree
root).  Every member routes a JOIN toward the key; the reverse of its
lookup path becomes its branch, stopping at the first node that is
already on the tree.  Any source unicasts its message to the root,
which disseminates down the shared tree.

Two properties the paper's Section 5.1 analysis predicts — and this
module lets experiments measure — distinguish it from the CAM
approach:

* forwarding load concentrates on interior nodes while leaf members
  (the majority for fanout > 2) forward nothing;
* node degrees follow routing convergence, **not** capacities: a node
  near the root aggregates the branches of everyone behind it, so its
  out-degree routinely exceeds its capacity ("the multicast tree is
  constrained by the node capacities but the global overlay is not" —
  the open problem the paper's Section 5.1 closes with).
"""

from __future__ import annotations

from repro.multicast.kernel import FlatTree
from repro.overlay.base import Node, Overlay, RingSnapshot


def build_shared_tree(overlay: Overlay, group_key: int) -> FlatTree:
    """Reverse-path-forwarding construction over every member.

    Each member's JOIN follows the overlay's LOOKUP route toward the
    group key; the traversed nodes are grafted onto the tree in root-to-
    member order (so parents always exist before their children), and a
    branch stops growing where it meets the existing tree.  The tree's
    source is the rendezvous root; its forwarding load under ``m``
    messages is :func:`repro.metrics.load.single_tree_load`.
    """
    snapshot = overlay.snapshot
    root = snapshot.resolve(group_key)
    tree = FlatTree.rooted(snapshot, root.ident)
    for member in snapshot:
        if tree.was_delivered(member.ident):
            continue
        route = _join_route(overlay, member, group_key, root)
        # route runs member -> ... -> root; graft from the root end down
        for position in range(len(route) - 2, -1, -1):
            node = route[position]
            if not tree.was_delivered(node.ident):
                tree.record_delivery(node.ident, route[position + 1].ident)
    return tree


def capacity_violations(tree: FlatTree, snapshot: RingSnapshot) -> dict[int, int]:
    """Nodes whose tree out-degree exceeds their capacity, with the
    excess — the §5.1 "disparity" made concrete."""
    violations: dict[int, int] = {}
    for ident, count in tree.children_counts().items():
        capacity = snapshot.node_at(ident).capacity
        if count > capacity:
            violations[ident] = count - capacity
    return violations


def delivery_path_length(tree: FlatTree, source_ident: int, member_ident: int) -> int:
    """Overlay hops from ``source`` to ``member`` through the shared
    tree's root: up the source's branch, down the member's."""
    depth = tree.depth
    if source_ident not in depth or member_ident not in depth:
        raise KeyError("both endpoints must be tree members")
    return depth[source_ident] + depth[member_ident]


def _join_route(
    overlay: Overlay, member: Node, group_key: int, root: Node
) -> list[Node]:
    """The member's lookup path toward the rendezvous, ending at the
    root (appended if the route stopped one short of it)."""
    result = overlay.lookup(member, group_key)
    route = list(result.path)
    if route[-1].ident != root.ident:
        route.append(root)
    if route[0].ident != member.ident:  # pragma: no cover - lookup contract
        route.insert(0, member)
    return route
