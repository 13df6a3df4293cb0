"""Layered benchmark of the capacity-aware multicast reproduction.

Run from the root of a checkout::

    python3 layerbench/run.py --workload trees --seed 1 --seconds 20 --trace 0

One run generates one workload's inputs from ``--seed`` (the set-up),
then repeats rounds of the same seed-determined work from fresh objects
for about ``--seconds``: the first half in its own process, the rest in
a second process that sets up again from the same seed.  Each process
stops at the round boundary nearest to its share and runs at least
``min_rounds`` rounds.  Every round runs the same operations, so each
operation is timed once per round; the latency and rate metrics use
each operation's fastest time over all the run's rounds, its cost with
the least interference from whatever else the host is running.  Every
operation is checked with the repository's own oracles, and every
round of both processes must reach the same outcome digest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead; the
spans of the last traced round are written to
``.layerbench/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``layerbench/layers.json`` names, for every per-layer metric, the
end-to-end metric it should move and the workloads where its layer is
heavy or light.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import perf  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import SCALES, WORKLOADS, RoundResult, fresh_round  # noqa: E402

#: Every metric's unit, as BENCHMARK.json declares it.
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
}
#: Input generations per run; set-up reports their median.
SETUP_REPEATS = 5
#: A run must end within this many seconds of process start.
RUN_LIMIT_S = 170.0
#: Share of ``--seconds`` timed in the run's own process; a second
#: process with the same seed times the rest.
FIRST_SHARE = 0.5


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="input sizes (tiny: the self-tests' few-second version)",
    )
    parser.add_argument(
        "--second",
        type=float,
        metavar="LIMIT_S",
        help="run as a run's second process, which must end within LIMIT_S: "
        "time untraced rounds for --seconds and print them as JSON",
    )
    return parser.parse_args(argv)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(result, recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer numbers of one traced round (ratios with their bases)."""
    totals = recorder.totals()

    def spent(name: str, key: str = "s") -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    counters = result.counters
    layer = result.layer
    resolves = counters.kernel_resolves
    saved = counters.kernel_resolves_saved
    hits = counters.schedule_cache_hits
    misses = counters.schedule_cache_misses
    commits = counters.wavefront_commits
    plane_deliveries = layer.get("plane.deliveries", 0.0)
    engine_s = spent("plane.drain") + spent("cluster.bootstrap") + spent("cluster.run")
    events = layer.get("engine.events", 0.0)
    sim = result.sim
    return {
        "snapshot.s": spent("snapshot"),
        "snapshot.calls": spent("snapshot", "calls"),
        "overlay.s": spent("overlay"),
        "overlay.calls": spent("overlay", "calls"),
        "kernel.first_tree.s": spent("kernel.first_tree"),
        "kernel.first_trees": spent("kernel.first_tree", "calls"),
        "kernel.tree.s": spent("kernel.tree"),
        "kernel.trees": float(counters.kernel_trees),
        "kernel.resolves": float(resolves),
        "kernel.resolves_saved": float(saved),
        "kernel.reuse": ratio(saved, saved + resolves),
        "metrics.s": spent("metrics"),
        "metrics.calls": spent("metrics", "calls"),
        "metrics.array_passes": float(counters.array_passes),
        "service.membership.s": spent("service.membership"),
        "service.membership.calls": spent("service.membership", "calls"),
        "plane.send.s": spent("plane.send"),
        "plane.sends": layer.get("plane.sends", 0.0),
        "plane.deliveries": plane_deliveries,
        "plane.cache_hits": float(hits),
        "plane.cache_misses": float(misses),
        "plane.cache_hit_rate": ratio(hits, hits + misses),
        "plane.cache_invalidations": float(counters.schedule_cache_invalidations),
        "plane.wavefront_commits": float(commits),
        "plane.deliveries_per_commit": ratio(plane_deliveries, commits),
        "plane.drain.self_s": spent("plane.drain", "self_s"),
        "plane.verify.s": spent("plane.verify"),
        "transfer.deferrals": layer.get("transfer.deferrals", 0.0),
        "plane.max_queue_depth": layer.get("plane.max_queue_depth", 0.0),
        "engine.s": engine_s,
        "engine.events": events,
        "engine.us_per_event": ratio(engine_s * 1e6, events),
        "cluster.bootstrap.s": spent("cluster.bootstrap"),
        "cluster.run.s": spent("cluster.run"),
        "network.sent": layer.get("network.sent", 0.0),
        "network.dropped": layer.get("network.dropped", 0.0),
        "network.timeouts": layer.get("network.timeouts", 0.0),
        "campaign.plan.s": spent("campaign.plan"),
        "campaign.plan.self_s": spent("campaign.plan", "self_s"),
        "campaign.plan.calls": spent("campaign.plan", "calls"),
        "oracles.s": spent("oracles"),
        "oracles.calls": spent("oracles", "calls"),
        "backup.s": spent("backup"),
        "backup.plans": layer.get("backup.plans", 0.0),
        "backup.grafts": layer.get("backup.grafts", 0.0),
        "causal.s": spent("causal"),
        "causal.calls": spent("causal", "calls"),
        "sim.throughput_kbps": sim.get("sim.throughput_kbps", 0.0),
        "sim.path_hops": sim.get("sim.path_hops", 0.0),
        "sim.latency_p50_ms": sim.get("sim.latency_p50_ms", 0.0),
        "sim.latency_p99_ms": sim.get("sim.latency_p99_ms", 0.0),
        "sim.failover_gap_mean_s": sim.get("sim.failover_gap_mean_s", 0.0),
        "bench.timed_s": result.timed_s,
        "bench.unattributed.s": result.timed_s - recorder.covered_by_children(("op",)),
    }


def second_process(args: argparse.Namespace, seconds: float, limit_s: float) -> dict:
    """Set up in a fresh process and time untraced rounds there for about
    ``seconds``; returns its ``setup_s`` and ``rounds``, or
    ``{"error": ...}`` when it failed or did not end within ``limit_s``."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--scale", args.scale,
        "--second", repr(limit_s),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=limit_s, check=False
        )
    except subprocess.TimeoutExpired:
        return {"error": "second process timed out"}
    if done.returncode != 0:
        return {"error": f"second process failed: {done.stderr.strip()[-300:]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(args: argparse.Namespace):
    """Generate the inputs :data:`SETUP_REPEATS` times; returns the
    workload and the set-up time (imports plus the median generation)."""
    imported = time.perf_counter()
    generation = []
    for _ in range(SETUP_REPEATS):
        begun = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale])
        generation.append(time.perf_counter() - begun)
    return workload, (imported - STARTED) + statistics.median(generation)


def run_rounds(workload, seconds: float, trace: bool, min_rounds: int, deadline: float):
    """Run fresh rounds for about ``seconds``, stopping at the round
    boundary nearest to it, after at least ``min_rounds`` untraced rounds
    (and one traced round when ``trace``), or early when the next rounds
    might not end before ``deadline``.  With ``trace`` the rounds
    alternate untraced and traced.  Returns the untraced results, the
    traced results with their per-layer rows, and the last traced
    round's recorder."""
    start = time.perf_counter()
    untraced, traced = [], []
    layer_rows: list[dict[str, float]] = []
    last_recorder = None
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= min_rounds and (len(traced) >= 1 or not trace)
        done = elapsed + longest / 2 >= seconds and enough
        # leave room for one more round here and one in the second process
        out_of_time = time.perf_counter() + 3 * longest > deadline
        if untraced and (done or out_of_time):
            return untraced, traced, layer_rows, last_recorder
        trace_this = trace and len(traced) < len(untraced)
        recorder = SpanRecorder() if trace_this else None
        begun = time.perf_counter()
        result = fresh_round(workload, recorder)
        longest = max(longest, time.perf_counter() - begun)
        if recorder is None:
            untraced.append(result)
        else:
            traced.append(result)
            layer_rows.append(layer_metrics(result, recorder))
            last_recorder = recorder
        print(
            f"# round {len(untraced) + len(traced)} "
            f"{'traced' if recorder else 'untraced'}: "
            f"{len(result.op_s)} ops in {result.timed_s:.3f} s, "
            f"{result.failed_ops} failed, digest {result.digest[:12]}",
            file=sys.stderr,
        )


#: The fields of a round the second process hands back.
ROUND_FIELDS = ("op_s", "deliveries", "failed_ops", "problems", "digest")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scale = SCALES[args.scale]
    workload, setup_s = set_up(args)
    if args.second is not None:
        rounds, _, _, _ = run_rounds(
            workload, args.seconds, False, scale["min_rounds"], STARTED + args.second
        )
        shipped = [{key: getattr(r, key) for key in ROUND_FIELDS} for r in rounds]
        print(json.dumps({"setup_s": setup_s, "rounds": shipped}))
        return 0

    measure_start = time.perf_counter()
    untraced, traced, layer_rows, last_recorder = run_rounds(
        workload,
        args.seconds * FIRST_SHARE,
        bool(args.trace),
        scale["min_rounds"],
        STARTED + RUN_LIMIT_S,
    )
    # a second process times the rest of the run with the same seed; its
    # rounds must reach the same digest, and set-up reports the median
    # of both processes' set-up times
    measured = time.perf_counter() - measure_start
    other = second_process(
        args,
        max(args.seconds - measured, 0.0),
        max(RUN_LIMIT_S - (time.perf_counter() - STARTED), 10.0),
    )
    problems, second = [], []
    if "error" in other:
        problems.append(other["error"])
    else:
        setup_s = statistics.median([setup_s, other["setup_s"]])
        second = [RoundResult(**fields) for fields in other["rounds"]]
    rounds = untraced + traced + second
    reference = rounds[0].digest
    problems += [problem for result in rounds for problem in result.problems]
    failed = sum(
        len(result.op_s) if result.digest != reference else result.failed_ops
        for result in rounds
    )
    if any(result.digest != reference for result in rounds):
        problems.append("rounds disagree on the outcome digest")
    if len({len(result.op_s) for result in rounds}) != 1:
        problems.append("rounds ran different numbers of operations")
    correct = failed == 0 and not problems
    for problem in problems[:10]:
        print(f"# problem: {problem}", file=sys.stderr)
    for key, value in sorted(rounds[0].sim.items()):
        print(f"# {key} = {value!r}")
    print(f"# digest {reference}")

    if args.trace:
        values = {key: median([row[key] for row in layer_rows]) for key in layer_rows[0]}
        values["trace.traced_s"] = median([result.timed_s for result in traced])
        values["trace.untraced_s"] = median([result.timed_s for result in untraced])
        values["trace.overhead"] = ratio(
            values["trace.traced_s"], values["trace.untraced_s"]
        )
        spans_dir = Path(".layerbench")
        spans_dir.mkdir(exist_ok=True)
        last_recorder.dump(str(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        # each operation's fastest time over both processes' untraced
        # rounds: a shared host only ever slows a run down, so the
        # minimum of repeats is the steadiest estimate of the work's cost
        best_s = [min(times) for times in zip(*(r.op_s for r in untraced + second))]
        best_round_s = sum(best_s)
        latencies_ms = [op * 1000.0 for op in best_s]
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(best_s) / best_round_s,
            "deliveries_per_s": untraced[0].deliveries / best_round_s,
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": (
                statistics.quantiles(latencies_ms, n=10)[8]
                if len(latencies_ms) > 1
                else latencies_ms[0]
            ),
            "peak_rss_mb": perf.peak_rss() / (1024 * 1024),
        }
    metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in values.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(len(result.op_s) for result in rounds),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
