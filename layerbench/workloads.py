"""The benchmark's two workloads, their correctness checks and digests.

Every workload is built in two steps.  The constructor generates all
inputs from the seed (that is the benchmark's set-up); :meth:`run_round`
then redoes the same seed-determined work from fresh objects and returns
a :class:`RoundResult`.  A round's timed work is split into consecutive
operations — one tree per system or one edit and tree (trees), one
simulated second of plane time or one plan comparison (plane-faults) —
so operation latencies add up to the round's host time.
Checks and digests run between operations, outside the timed spans.

A round given a :class:`~spans.SpanRecorder` is a traced round: it
patches the public functions of every layer it measures (see
:func:`instrument`) and records a span around each call.  The traced
and untraced rounds must produce the same digest.

The digest covers only seed-determined simulated outcomes (tree
parents, depths and throughputs; receipt delivery times; fault gaps),
never service epoch serials, message ids, wall times or perf counters,
which advance across rounds in one process.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import weakref
from bisect import insort
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterator

from repro import perf
from repro.experiments.common import clear_caches
from repro.idspace.ring import IdentifierSpace
from repro.metrics import summarize_tree, sustainable_throughput
from repro.overlay.base import Node, RingSnapshot
from repro.systems import SystemDescriptor, all_descriptors, system_names
from spans import SpanRecorder

#: The paper's per-link rate p (kbps): CAM capacities are floor(B / p).
PER_LINK_KBPS = 100.0
#: Upload bandwidths are uniform in this range (kbps).
BANDWIDTH_KBPS = (400.0, 1000.0)
#: Fanout of the capacity-oblivious Chord/Koorde baselines.
UNIFORM_FANOUT = 8

SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "ring": 10_000,
        "ring_bits": 19,
        "trees_per_system": 16,
        "edits_per_system": 8,
        "hosts": 600,
        "groups": 60,
        "group_size": 32,
        "horizon_s": 120,
        "plans_per_system": 4,
        "min_rounds": 2,
    },
    # a few-second version of every workload, for the self-tests
    "tiny": {
        "ring": 400,
        "ring_bits": 12,
        "trees_per_system": 3,
        "edits_per_system": 2,
        "hosts": 40,
        "groups": 4,
        "group_size": 6,
        "horizon_s": 10,
        "plans_per_system": 1,
        "min_rounds": 1,
    },
}


@dataclass
class RoundResult:
    """What one round measured and produced."""

    op_s: list[float] = field(default_factory=list)
    deliveries: int = 0
    failed_ops: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    #: seed-exact simulated outcomes (model outputs, not timings)
    sim: dict[str, float] = field(default_factory=dict)
    #: perf-counter deltas over the timed operations only
    counters: perf.PerfCounters = field(default_factory=perf.PerfCounters)
    #: per-layer counts taken at layer boundaries (traced rounds)
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return sum(self.op_s)


class OpClock:
    """Times consecutive operations of one round.

    ``with clock.op(): ...`` is one operation; in a traced round it is
    also an ``op`` span, the root every layer span hangs under.
    """

    def __init__(self, result: RoundResult, recorder: SpanRecorder | None) -> None:
        self.result = result
        self.recorder = recorder

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    @contextmanager
    def op(self) -> Iterator[None]:
        with perf.scoped() as counted, self.span("op"):
            started = time.perf_counter()
            yield
            self.result.op_s.append(time.perf_counter() - started)
        self.result.counters += counted.delta


# -- traced-round instrumentation ---------------------------------------------


def instrument(
    recorder: SpanRecorder, stack: ExitStack, counts: dict[str, float], clusters: list
) -> None:
    """Wrap the public functions of every measured layer for one round.

    Each wrapper is undone when ``stack`` closes.  Counts that belong
    to a boundary (backup plans and grafts) are added to ``counts`` as
    the calls happen; every cluster a plan bootstraps is appended to
    ``clusters`` so its engine and network totals can be read after
    the round.  A kernel tree over an overlay the round has not walked
    before is a ``kernel.first_tree`` span (it fills the neighbor
    tables), any later one a ``kernel.tree`` span.
    """
    from repro.faults import campaign
    from repro.multicast import backup, kernel
    from repro.protocol.cluster import Cluster

    seen_overlays: weakref.WeakSet = weakref.WeakSet()

    def kernel_span(args: tuple) -> str:
        overlay = args[0]
        if overlay in seen_overlays:
            return "kernel.tree"
        seen_overlays.add(overlay)
        return "kernel.first_tree"

    def count(key: str, amount: float = 1) -> None:
        counts[key] = counts.get(key, 0) + amount

    def on_backup_plan(_args: tuple, plan: Any) -> None:
        if plan is not None:
            count("backup.plans")

    def on_failover(_args: tuple, recovery: Any) -> None:
        count("backup.grafts", len(recovery.grafts))

    wraps: list[tuple[Any, str, Any, dict[str, Any]]] = [
        (RingSnapshot, "__init__", "snapshot", {}),
        (RingSnapshot, "without", "snapshot", {}),
        (RingSnapshot, "with_nodes", "snapshot", {}),
        (SystemDescriptor, "build_overlay", "overlay", {}),
        (kernel, "region_split_tree", kernel_span, {}),
        (kernel, "flood_tree", kernel_span, {}),
        # backup builds its frozen-epoch tree through names it imported
        (backup, "region_split_tree", kernel_span, {}),
        (backup, "flood_tree", kernel_span, {}),
        (campaign, "run_plan", "campaign.plan", {}),
        (campaign, "check_multicast", "oracles", {}),
        (campaign, "check_failover_multicast", "oracles", {}),
        (campaign, "check_flood_accounting", "oracles", {}),
        (campaign, "check_ring", "oracles", {}),
        (campaign, "backup_plan_for_record", "backup", {"on_call": on_backup_plan}),
        (campaign, "apply_failover", "backup", {"on_call": on_failover}),
        (campaign, "delivery_gaps", "backup", {}),
        (campaign, "reconstruct", "causal", {}),
        (
            Cluster,
            "bootstrap",
            "cluster.bootstrap",
            {"on_call": lambda args, _result: clusters.append(args[0])},
        ),
        (Cluster, "run", "cluster.run", {"skip_inside": ("cluster.bootstrap",)}),
    ]
    for owner, attr, name, options in wraps:
        stack.callback(recorder.wrap(owner, attr, name, **options))


# -- the tree workloads --------------------------------------------------------


def _capacity(bandwidth: float) -> int:
    return int(bandwidth // PER_LINK_KBPS)


def _fanout_bound(system: SystemDescriptor, capacity: int) -> int:
    """Most children a member of ``capacity`` may have in ``system``'s
    tree (the capacity a live peer runs with, plus the system's slack)."""
    return system.live_fanout_bound(system.live_capacity(capacity, UNIFORM_FANOUT))


def _score(clock: OpClock, tree: Any, snapshot: RingSnapshot) -> tuple[float, Any]:
    with clock.span("metrics"):
        return sustainable_throughput(tree, snapshot), summarize_tree(tree)


@dataclass(frozen=True)
class _Edit:
    """One membership change before a tree: ``node`` joins, or the
    member ``ident`` leaves (``node`` is None); then ``source`` sends."""

    ident: int
    node: Node | None
    source: int


class Trees:
    """The kernel's reads and writes over one 10k-member ring.

    A round has two parts.  The static part sends from many sources over
    the frozen ring: neighbor tables fill once per overlay and every
    later tree walks them (the Figs. 6-11 pattern); an operation
    extracts and scores one tree in each system.  The churn part makes
    one join or leave before every tree, so each tree runs on a fresh
    overlay whose tables must be filled first; an operation is one edit,
    the overlay rebuild and one scored tree.
    """

    def __init__(self, seed: int, scale: dict[str, Any]) -> None:
        rng = Random(f"layerbench:{seed}:ring")
        self.space = IdentifierSpace(scale["ring_bits"])
        idents = rng.sample(range(self.space.size), scale["ring"])
        low, high = BANDWIDTH_KBPS
        self.bandwidth = {ident: rng.uniform(low, high) for ident in idents}
        # floor(B / p) >= 4 for every B >= 400 kbps, which already meets
        # every system's capacity floor (CAM-Chord 2, CAM-Koorde 4), so
        # one ring of nodes serves all four systems
        floor = max(system.min_capacity for system in all_descriptors())
        if _capacity(low) < floor:
            raise ValueError("bandwidth range would put capacities below a floor")
        self.nodes = [
            Node(ident, _capacity(bandwidth), bandwidth)
            for ident, bandwidth in self.bandwidth.items()
        ]
        self.systems = all_descriptors()
        idents = sorted(idents)
        self.members = set(idents)
        self.bandwidth_sum = sum(self.bandwidth.values())
        # one independent stream per system, so the k-th source is the
        # same whatever the tree count
        self.sources = {
            name: [rng.choice(idents) for _ in range(scale["trees_per_system"])]
            for name, rng in (
                (system.name, Random(f"layerbench:{seed}:sources:{system.name}"))
                for system in self.systems
            )
        }
        self.trees_per_system = scale["trees_per_system"]
        # the churn part's joiners are added to self.bandwidth below
        self.first_source: dict[str, int] = {}
        self.edits: dict[str, list[_Edit]] = {}
        for system in self.systems:
            rng = Random(f"layerbench:{seed}:churn:{system.name}")
            members = list(idents)
            self.first_source[system.name] = rng.choice(members)
            edits = []
            for _ in range(scale["edits_per_system"]):
                if rng.random() < 0.5:
                    ident = members.pop(rng.randrange(len(members)))
                    node = None
                else:
                    ident = rng.randrange(self.space.size)
                    while ident in self.bandwidth:
                        ident = rng.randrange(self.space.size)
                    bandwidth = rng.uniform(low, high)
                    self.bandwidth[ident] = bandwidth
                    node = Node(ident, _capacity(bandwidth), bandwidth)
                    insort(members, ident)
                edits.append(_Edit(ident, node, rng.choice(members)))
            self.edits[system.name] = edits

    def check_tree(
        self,
        result: RoundResult,
        system: SystemDescriptor,
        tree: Any,
        stats: Any,
        throughput: float,
        members: set[int],
        bandwidth_sum: float,
    ) -> None:
        """Judge one tree and fold it into the round's digest."""
        problems = []
        try:
            tree.verify_exactly_once(members)
        except AssertionError as exc:
            problems.append(f"exactly-once: {exc}")
        count = len(members)
        if stats.receivers != count:
            problems.append(f"{stats.receivers} receivers of {count} members")
        # Kim & Srikant: no tree streams faster than its source's uplink
        # or than the members' total upload shared by the n - 1 receivers
        limit = min(self.bandwidth[tree.source_ident], bandwidth_sum / (count - 1))
        if throughput > limit * (1 + 1e-9):
            problems.append(f"throughput {throughput} above capacity bound {limit}")
        if system.builds_single_tree:
            for ident, children in tree.children_counts().items():
                bound = _fanout_bound(system, _capacity(self.bandwidth[ident]))
                if children > bound:
                    problems.append(f"{ident} has {children} children, bound {bound}")
                    break
        if problems:
            result.failed_ops += 1
            result.problems.append(f"{system.name} from {tree.source_ident}: {problems[0]}")
        result.deliveries += count - 1
        self.digest.update(
            f"{system.name}|{tree.source_ident}|{throughput!r}|{stats.receivers}|"
            f"{stats.average_path_length!r}|{stats.max_path_length}|"
            f"{stats.max_children}|".encode()
        )
        self.digest.update(tree.parent_index.tobytes())
        self.digest.update(tree.depth_array.tobytes())
        self.throughputs.append(throughput)
        self.hops.append(stats.average_path_length)

    def start(self) -> None:
        self.digest = hashlib.sha256()
        self.throughputs: list[float] = []
        self.hops: list[float] = []

    def finish(self, result: RoundResult) -> RoundResult:
        result.digest = self.digest.hexdigest()
        result.sim["sim.throughput_kbps"] = statistics.fmean(self.throughputs)
        result.sim["sim.path_hops"] = statistics.fmean(self.hops)
        return result


    def run_round(self, recorder: SpanRecorder | None = None) -> RoundResult:
        result = RoundResult()
        clock = OpClock(result, recorder)
        self.start()
        self.static_part(clock, result)
        self.churn_part(clock, result)
        return self.finish(result)

    def static_part(self, clock: OpClock, result: RoundResult) -> None:
        snapshot = None
        overlays: dict[str, Any] = {}
        for step in range(self.trees_per_system):
            # one operation is one tree from every system: the flood
            # trees walk in a fifth of a splitter tree's time, so a
            # single tree's latency would be bimodal
            trees = []
            with clock.op():
                if snapshot is None:
                    snapshot = RingSnapshot(self.space, self.nodes)
                for system in self.systems:
                    overlay = overlays.get(system.name)
                    if overlay is None:
                        overlay = overlays[system.name] = system.build_overlay(
                            snapshot, UNIFORM_FANOUT
                        )
                    source = self.sources[system.name][step]
                    tree = system.run_multicast(overlay, snapshot.node_at(source))
                    trees.append((system, tree, *_score(clock, tree, snapshot)))
            for system, tree, throughput, stats in trees:
                self.check_tree(
                    result, system, tree, stats, throughput, self.members,
                    self.bandwidth_sum,
                )

    def churn_part(self, clock: OpClock, result: RoundResult) -> None:
        base = None
        for system in self.systems:
            members = set(self.members)
            bandwidth_sum = self.bandwidth_sum
            with clock.op():
                if base is None:
                    base = RingSnapshot(self.space, self.nodes)
                snapshot = base
                overlay = system.build_overlay(snapshot, UNIFORM_FANOUT)
                source = self.first_source[system.name]
                tree = system.run_multicast(overlay, snapshot.node_at(source))
                throughput, stats = _score(clock, tree, snapshot)
            self.check_tree(
                result, system, tree, stats, throughput, members, bandwidth_sum
            )
            for edit in self.edits[system.name]:
                with clock.op():
                    if edit.node is None:
                        snapshot = snapshot.without((edit.ident,))
                    else:
                        snapshot = snapshot.with_nodes((edit.node,))
                    overlay = system.build_overlay(snapshot, UNIFORM_FANOUT)
                    tree = system.run_multicast(overlay, snapshot.node_at(edit.source))
                    throughput, stats = _score(clock, tree, snapshot)
                if edit.node is None:
                    members.discard(edit.ident)
                    bandwidth_sum -= self.bandwidth[edit.ident]
                else:
                    members.add(edit.ident)
                    bandwidth_sum += self.bandwidth[edit.ident]
                self.check_tree(
                    result, system, tree, stats, throughput, members, bandwidth_sum
                )


# -- the service plane ----------------------------------------------------------


class ServicePlaneWorkload:
    """Many concurrent CAM-Chord groups with churn on one simulated clock."""

    def __init__(self, seed: int, scale: dict[str, Any]) -> None:
        from repro.capacity.distributions import UniformBandwidth
        from repro.workloads import ServiceWorkloadSpec, generate_service_workload

        self.horizon = int(scale["horizon_s"])
        spec = ServiceWorkloadSpec(
            groups=scale["groups"],
            hosts=scale["hosts"],
            group_size=scale["group_size"],
            horizon_s=float(self.horizon),
            send_interval_s=1.0,
            churn_rate=0.05,
            mean_hold_s=3.0 * self.horizon,
            message_kbits=8.0,
            kind="cam-chord",
            per_link_kbps=PER_LINK_KBPS,
            # the generator's default is a flat 500 kbps, which would
            # give every host the same capacity
            bandwidths=UniformBandwidth(*BANDWIDTH_KBPS),
        )
        self.workload = generate_service_workload(spec, seed=seed)

    def run_round(self, recorder: SpanRecorder | None = None) -> RoundResult:
        result = RoundResult()
        plane = self.play(OpClock(result, recorder), result)
        self.judge(plane, result)
        return result

    def play(self, clock: OpClock, result: RoundResult) -> Any:
        """Replay the workload on a fresh plane, one simulated second per
        operation; the first also builds the plane, the last drains it
        and runs the plane's quiesce oracles."""
        from repro.multicast.plane import ServicePlane

        plane = None
        for second in range(1, self.horizon + 1):
            with clock.op():
                if plane is None:
                    plane = ServicePlane(space_bits=19)
                    if clock.recorder is not None:
                        _instrument_plane(clock.recorder, plane)
                    for name, kbps in self.workload.hosts:
                        plane.register_host(name, kbps)
                    plane.replay(self.workload.events)
                with clock.span("plane.drain"):
                    plane.run(float(second))
                if second == self.horizon:
                    with clock.span("plane.drain"):
                        plane.drain()
                    with clock.span("plane.verify"):
                        try:
                            plane.verify_quiesced()
                        except AssertionError as exc:
                            result.problems.append(f"verify_quiesced: {exc}")
        return plane

    def judge(self, plane: Any, result: RoundResult) -> None:
        """Check every receipt against its frozen membership and digest
        the delivery times."""
        report = plane.report()
        receipts = plane.receipts()
        expected = 0
        latencies_ms = []
        digest = hashlib.sha256()
        for receipt in receipts:
            members = set(receipt.members)
            expected += len(members) - 1
            if set(receipt.delivered) != members:
                result.problems.append(
                    f"{receipt.group}#{receipt.seq} delivered to "
                    f"{len(receipt.delivered)} of {len(members)} members"
                )
            origin = receipt.origin_time
            times = sorted(receipt.delivered.items())
            digest.update(
                f"{receipt.group}|{receipt.seq}|{receipt.source}|{origin!r}|".encode()
            )
            digest.update(repr(times).encode())
            for host, when in times:
                if host != receipt.source:
                    latencies_ms.append((when - origin) * 1000.0)
        if report.total_deliveries != expected:
            result.problems.append(
                f"{report.total_deliveries} deliveries, frozen memberships "
                f"call for {expected}"
            )
        if not receipts:
            result.problems.append("the workload originated no sends")
        if result.problems:
            # the plane is judged as a whole: every simulated second of
            # a round that fails counts as a failed operation
            result.failed_ops = len(result.op_s)
        digest.update(repr(report.rows).encode())
        result.digest = digest.hexdigest()
        result.deliveries = report.total_deliveries
        if latencies_ms:
            cuts = statistics.quantiles(latencies_ms, n=100)
            result.sim["sim.latency_p50_ms"] = statistics.median(latencies_ms)
            result.sim["sim.latency_p99_ms"] = cuts[98]
        result.layer.update(
            {
                "plane.sends": float(len(receipts)),
                "plane.deliveries": float(report.total_deliveries),
                "transfer.deferrals": float(report.total_deferrals),
                "plane.max_queue_depth": float(
                    max((row["max_queue_depth"] for row in report.rows), default=0)
                ),
                "engine.events": float(plane.simulator.events_processed),
            }
        )


def _instrument_plane(recorder: SpanRecorder, plane: Any) -> None:
    """Span the plane's sends and the service's membership changes.

    Both are called from inside the plane's own event handlers, so the
    wrappers shadow the methods on these fresh instances only."""
    recorder.wrap(plane, "send", "plane.send")
    for method in ("create_group", "join_group", "leave_group", "drop_group"):
        recorder.wrap(plane.service, method, "service.membership")


# -- fault failover ------------------------------------------------------------


#: Members of every fault plan's cluster.
PLAN_SIZE = 12
#: Seconds of fault schedule per plan (the generator's window).
FAULT_WINDOW_S = 30.0


def fault_plan(seed: int, system: str, index: int) -> Any:
    """One fixed-shape fault plan: a crash, a partition window, a
    graceful leave, a join, a loss burst and a last crash just before
    the failover quiesce point, so the ring is still broken when the
    multicasts go out.  The seed draws the victims, times and rates.

    Every plan has the same size and the same primitives, so a round's
    host cost does not hinge on which plan shapes a seed happens to
    draw (the campaign generator's 8-20 members and 1-4 random
    primitives move a 16-plan round's host time by a third from seed
    to seed)."""
    from repro.faults.plan import (
        FaultPlan,
        crash_at,
        join_at,
        leave_at,
        loss_burst,
        partition_window,
    )

    rng = Random(f"layerbench:{seed}:plan:{system}:{index}")
    window = FAULT_WINDOW_S
    events = [
        *crash_at(rng.uniform(2.0, 8.0), rng.randrange(64)),
        *partition_window(
            rng.uniform(4.0, 12.0), rng.uniform(2.0, 6.0),
            rng.randrange(64), rng.randrange(64), window,
        ),
        *leave_at(rng.uniform(10.0, 16.0), rng.randrange(64)),
        *join_at(rng.uniform(12.0, 18.0), rng.randint(4, 8)),
        *loss_burst(
            rng.uniform(14.0, 20.0), rng.uniform(2.0, 5.0), rng.uniform(0.05, 0.2), window
        ),
        *crash_at(rng.uniform(22.0, 26.0), rng.randrange(64)),
    ]
    events.sort(key=lambda event: (event.time, event.action))
    return FaultPlan(
        system=system,
        size=PLAN_SIZE,
        seed=rng.randrange(1 << 31),
        events=tuple(events),
        fault_window=window,
        label=f"layerbench:{seed}:{system}:{index}",
    )


class FaultFailover:
    """Fault plans run down both the repair and the failover path on
    live protocol peers, then judged by the oracles."""

    def __init__(self, seed: int, scale: dict[str, Any]) -> None:
        self.plans = [
            fault_plan(seed, system, index)
            for system in system_names()
            for index in range(scale["plans_per_system"])
        ]

    def run_round(self, recorder: SpanRecorder | None = None) -> RoundResult:
        from repro.faults.campaign import run_comparison_campaign

        result = RoundResult()
        clock = OpClock(result, recorder)
        stamps: list[float] = []
        with clock.op():
            started = time.perf_counter()
            outcome = run_comparison_campaign(
                self.plans,
                jobs=1,
                progress=lambda _item: stamps.append(time.perf_counter()),
            )
        # the campaign is one timed stretch; its operations are the plan
        # comparisons between consecutive progress stamps
        result.op_s = [end - start for start, end in zip([started, *stamps], stamps)]
        self._judge(outcome, result)
        return result

    def _judge(self, outcome: Any, result: RoundResult) -> None:
        digest = hashlib.sha256()
        failover_gaps = []
        for comparison in outcome.comparisons:
            if not comparison.passed:
                result.failed_ops += 1
                violations = comparison.repair.violations + comparison.failover.violations
                result.problems.append(
                    f"{comparison.plan.label}: {violations[0].oracle}: "
                    f"{violations[0].detail[:160]}"
                )
            for path in (comparison.repair, comparison.failover):
                digest.update(
                    repr(
                        (
                            comparison.plan.label,
                            path.mode,
                            [(v.oracle, v.detail) for v in path.violations],
                            path.delivery_ratios,
                            path.member_gaps,
                            path.recovered,
                            path.repair_wait,
                        )
                    ).encode()
                )
                result.deliveries += sum(len(row) for row in path.member_gaps)
            failover_gaps.extend(comparison.failover.gap_values())
        medians = outcome.gap_medians()
        if medians is None or not medians[1] < medians[0]:
            result.problems.append(f"failover median gap not below repair: {medians}")
            result.failed_ops = len(result.op_s)
        result.digest = digest.hexdigest()
        if failover_gaps:
            result.sim["sim.failover_gap_mean_s"] = statistics.fmean(failover_gaps)


class PlaneFaults:
    """The layers the discrete-event simulator drives, in two parts: the
    service plane's churning groups, then the fault plans on live peers.
    A round's operations are the plane's simulated seconds followed by
    the plan comparisons; each part is judged on its own."""

    def __init__(self, seed: int, scale: dict[str, Any]) -> None:
        self.parts = (ServicePlaneWorkload(seed, scale), FaultFailover(seed, scale))

    def run_round(self, recorder: SpanRecorder | None = None) -> RoundResult:
        merged = RoundResult()
        digest = hashlib.sha256()
        for part in self.parts:
            result = part.run_round(recorder)
            merged.op_s += result.op_s
            merged.deliveries += result.deliveries
            merged.failed_ops += result.failed_ops
            merged.problems += result.problems
            merged.sim.update(result.sim)
            merged.counters += result.counters
            merged.layer.update(result.layer)
            digest.update(result.digest.encode())
        merged.digest = digest.hexdigest()
        return merged


WORKLOADS = {
    "trees": Trees,
    "plane-faults": PlaneFaults,
}


def fresh_round(workload: Any, recorder: SpanRecorder | None) -> RoundResult:
    """Run one round from cleared caches, traced when ``recorder`` is set."""
    clear_caches()
    if recorder is None:
        return workload.run_round()
    counts: dict[str, float] = {}
    clusters: list[Any] = []
    with ExitStack() as stack:
        instrument(recorder, stack, counts, clusters)
        result = workload.run_round(recorder)
    result.layer.update(counts)
    if clusters:
        stats = [cluster.network.stats for cluster in clusters]
        # the plane's own simulator events are already in engine.events
        result.layer.update(
            {
                "engine.events": result.layer.get("engine.events", 0.0)
                + sum(cluster.simulator.events_processed for cluster in clusters),
                "network.sent": float(sum(s.sent for s in stats)),
                "network.dropped": float(
                    sum(
                        s.dropped_dead + s.dropped_loss + s.dropped_partition
                        for s in stats
                    )
                ),
                "network.timeouts": float(sum(s.timeouts for s in stats)),
            }
        )
    return result
