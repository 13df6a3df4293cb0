"""Multicast dissemination routines over the overlays.

Four routines, matching the four systems of the paper's evaluation:

* :func:`cam_chord_multicast` — Section 3.4: recursive region
  splitting along the capacity-aware neighbor table (implicit balanced
  degree-varying tree, at most ``c_x`` children per node);
* :func:`cam_koorde_multicast` — Section 4.3: flooding with duplicate
  suppression over CAM-Koorde's evenly-spread neighbors;
* :func:`chord_broadcast` — the El-Ansary et al. broadcast on plain
  Chord (capacity-oblivious baseline);
* :func:`koorde_flood` — flooding over plain Koorde's clustered de
  Bruijn links (capacity-oblivious baseline).

Every routine returns a :class:`FlatTree` — the one tree type: flat
parent/depth/child-count arrays over the snapshot's member indices,
with lazily materialized ``parent`` / ``depth`` dict views.  The
snapshot-driven routines (:func:`cam_chord_multicast`,
:func:`cam_koorde_multicast`, :func:`koorde_flood`) build it in one
pass in the flat-array kernel (:mod:`repro.multicast.kernel`); the
reference recorders, :func:`chord_broadcast`, capped floods,
proximity neighbor selection and :func:`build_shared_tree` record it
one delivery at a time (:meth:`FlatTree.record_delivery`).
"""

from repro.multicast.kernel import FlatTree, flood_tree, region_split_tree
from repro.multicast.cam_chord import cam_chord_multicast, reference_multicast
from repro.multicast.cam_koorde import cam_koorde_multicast, flood_multicast
from repro.multicast.chord_broadcast import chord_broadcast
from repro.multicast.koorde_flood import koorde_flood
from repro.multicast.session import MulticastGroup, SystemKind
from repro.multicast.service import MulticastService
from repro.multicast.plane import (
    PlaneReport,
    SendReceipt,
    SequenceAudit,
    SequenceLedger,
    ServicePlane,
)
from repro.multicast.tree_building import build_shared_tree

__all__ = [
    "MulticastService",
    "ServicePlane",
    "PlaneReport",
    "SendReceipt",
    "SequenceAudit",
    "SequenceLedger",
    "build_shared_tree",
    "FlatTree",
    "flood_tree",
    "region_split_tree",
    "cam_chord_multicast",
    "reference_multicast",
    "cam_koorde_multicast",
    "flood_multicast",
    "chord_broadcast",
    "koorde_flood",
    "MulticastGroup",
    "SystemKind",
]
