"""Extension B: forwarding-load balance — flooding vs tree building.

Quantifies the Section 5.1 analysis.  A workload of m messages from m
distinct random sources is pushed through

* (a) the **flooding** architecture — each source's own implicit
  CAM-Chord tree (the paper's approach), and
* (b) the **tree-building** architecture — one shared tree built by
  reverse path forwarding toward a rendezvous key (the Scribe/Bayeux
  family the paper contrasts with), every message descending it.

Expected shape: under the shared tree, internal nodes forward
O(k * M) while the majority (leaves) forward nothing — high
max-to-mean ratio and idle fraction — and routing convergence near the
root gives some nodes more children than their capacity (the §5.1
"disparity").  Under flooding every node is internal in some trees and
leaf in others: per-node load concentrates around O(M), and no node
ever exceeds its capacity.
"""

from __future__ import annotations

from random import Random

from repro.experiments.common import ExperimentScale, FigureResult, Series, bandwidth_group
from repro.metrics.load import flooding_load, single_tree_load
from repro.multicast.session import SystemKind
from repro.multicast.tree_building import build_shared_tree, capacity_violations
from repro.overlay.cam_chord import CamChordOverlay

#: number of multicast sources (= messages) in the workload
SOURCE_COUNT = 32


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Regenerate the load-balance comparison."""
    result = FigureResult(
        figure="extB",
        title="Forwarding-load balance: flooding vs reverse-path shared tree",
    )
    group = bandwidth_group(SystemKind.CAM_CHORD, scale, per_link_kbps=100, seed=seed)
    overlay = group.overlay
    assert isinstance(overlay, CamChordOverlay)
    rng = Random(seed)
    sources = [group.random_member(rng) for _ in range(SOURCE_COUNT)]
    trees = [group.multicast_from(source) for source in sources]

    flood = flooding_load(trees, message_kbits=1.0)
    shared_tree = build_shared_tree(
        overlay, group_key=rng.randrange(group.overlay.space.size)
    )
    shared = single_tree_load(shared_tree, message_count=SOURCE_COUNT)

    for label, load in (("flooding", flood), ("single-tree", shared)):
        series = Series(label=label)
        series.add(0, load.mean)
        series.add(1, load.max_over_mean)
        series.add(2, load.coefficient_of_variation)
        series.add(3, load.idle_fraction)
        result.series.append(series)

    violations = capacity_violations(shared_tree, group.snapshot)
    disparity = Series(label="shared-tree capacity disparity")
    disparity.add(0, float(len(violations)))  # overloaded nodes
    disparity.add(1, float(max(violations.values(), default=0)))  # worst excess
    disparity.add(
        2,
        float(max(shared_tree.children_counts().values(), default=0)),
    )  # max degree
    result.series.append(disparity)
    result.notes.append(
        "x-codes: 0=mean kbits forwarded per node, 1=max/mean, "
        "2=coefficient of variation, 3=idle fraction.  Flooding should "
        "show a much smaller max/mean and idle fraction.  The disparity "
        "series (0=#overloaded nodes, 1=worst excess children, 2=max "
        "degree) quantifies §5.1's closing observation: the shared tree "
        "ignores capacities, the CAM trees cannot."
    )
    return result
