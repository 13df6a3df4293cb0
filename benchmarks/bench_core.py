"""Core-figure timing harness: append a BENCH_core.json trajectory entry.

Runs the structural figures (the harness hot paths: snapshot builds,
tree extraction, lookups) several times each at the bench scale and
records the **median cold** wall time per figure — caches cleared
before every repetition — plus one **warm** re-run that shows what the
keyed snapshot/group cache saves.  Entries append to a trajectory, so
successive PRs can prove (or disprove) their speedups against the
committed baseline::

    PYTHONPATH=src python -m benchmarks.bench_core            # append entry
    PYTHONPATH=src python -m benchmarks.bench_core --dry-run  # print only
    PYTHONPATH=src python -m benchmarks.bench_core --quick    # CI perf smoke

``--quick`` is the CI regression gate: it times only the two most
kernel-sensitive figures (fig6, fig8), compares their cold medians
against the latest committed ``BENCH_core.json`` entry, writes a small
result JSON (uploaded as a CI artifact) and fails the process when a
figure is more than ``--tolerance`` (default 1.3×) slower than the
committed baseline *and* the slowdown exceeds an absolute noise floor
(:data:`NOISE_FLOOR_S` — fast figures jitter past any ratio from
scheduler noise alone).  A figure's baseline is the lower of its latest
cold median and the median over the last :data:`BASELINE_ENTRIES`
entries that hold it (:func:`baseline_cold_median`), so one slow
outlier entry cannot raise the bar it is gated against.  Quick mode
never appends to the trajectory.

The figure *values* are asserted elsewhere (pytest benchmarks and
tier-1 tests); this file measures time only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from repro import perf
from repro.experiments import registry
from repro.experiments.common import clear_caches, resolve_scale
from repro.trace.tracer import TRACER

#: the structural figures that exercise the core hot paths
CORE_FIGURES = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "extC", "extL", "extN",
)

#: the most kernel-sensitive figures, gated by the CI perf smoke
#: (extN gates the event-driven service plane's sustained throughput)
QUICK_FIGURES = ("fig6", "fig8", "extL", "extN")

#: a figure only counts as regressed when it is BOTH over the ratio
#: tolerance AND this much slower in absolute terms — sub-100ms
#: figures (extL at bench scale) jitter past 1.3x from scheduler noise
#: alone, and a regression that small is not actionable anyway
NOISE_FLOOR_S = 0.25

#: committed entries whose median can pull a cold-median baseline down
BASELINE_ENTRIES = 3

#: decades the trajectory's scale-sweep section records (subprocess-
#: isolated, so each decade's peak RSS is exact)
SCALE_SWEEP_DECADES = (1_000, 10_000)

#: fault plans per system in the repair-vs-failover comparison section
#: (seed-deterministic, so successive entries compare the same plans)
FAILOVER_PLANS_PER_SYSTEM = 4

#: representative figure for the tracing-overhead measurement
TRACING_FIGURE = "fig9"

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def time_figure(name: str, scale, seed: int = 0) -> float:
    """One cold wall-clock run of a figure (caches dropped first)."""
    run = registry.load(name).run
    clear_caches()
    started = time.perf_counter()
    run(scale, seed)
    return time.perf_counter() - started


def warm_figure(name: str, scale, seed: int = 0) -> float:
    """One warm re-run: caches still hold the figure's groups."""
    run = registry.load(name).run
    started = time.perf_counter()
    run(scale, seed)
    return time.perf_counter() - started


def measure_tracing(scale, repeats: int, seed: int = 0) -> dict:
    """Disabled vs enabled tracing cost on one representative figure.

    Every hot path carries a permanent ``if TRACER.enabled`` guard;
    ``disabled_median_s`` measures what that guard costs when tracing
    is off (the number that must stay within noise of the pre-tracing
    baseline), ``enabled_median_s`` what buffering events costs when
    it is on.
    """
    disabled = [time_figure(TRACING_FIGURE, scale, seed) for _ in range(repeats)]
    enabled: list[float] = []
    try:
        for _ in range(repeats):
            TRACER.enable()  # reset: don't let buffers accumulate
            enabled.append(time_figure(TRACING_FIGURE, scale, seed))
        events = len(TRACER)
    finally:
        TRACER.disable()
        TRACER.clear()
    disabled_median = statistics.median(disabled)
    enabled_median = statistics.median(enabled)
    print(
        f"tracing[{TRACING_FIGURE}] disabled median {disabled_median:7.3f}s  "
        f"enabled {enabled_median:7.3f}s  ({events} events/run)"
    )
    return {
        "figure": TRACING_FIGURE,
        "disabled_median_s": round(disabled_median, 4),
        "enabled_median_s": round(enabled_median, 4),
        "events_per_run": events,
    }


def measure_systems(scale, seed: int = 0) -> dict:
    """Registry-driven per-system timings: overlay build + one multicast.

    Iterates the :mod:`repro.systems` registry, so a fifth registered
    system shows up in the trajectory without touching this file.  Each
    system is built at its paper-typical knob (per-link rate 100 kbps
    for the capacity-aware systems, fanout 16 for the uniform
    baselines), translated through its fanout policy.
    """
    from random import Random

    from repro.multicast.session import MulticastGroup
    from repro.systems import all_descriptors

    rng = Random(seed)
    bandwidths = [rng.uniform(400.0, 1000.0) for _ in range(scale.group_size)]
    systems: dict[str, dict[str, float]] = {}
    for system in all_descriptors():
        knob = 100.0 if system.capacity_aware else 16.0
        per_link, uniform_fanout = system.fanout.group_build_args(knob, 100.0)
        started = time.perf_counter()
        group = MulticastGroup.build(
            system,
            bandwidths,
            per_link_kbps=per_link,
            space_bits=scale.space_bits,
            uniform_fanout=uniform_fanout,
            seed=seed,
        )
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        result = group.multicast_from(group.snapshot.nodes[0])
        multicast_s = time.perf_counter() - started
        systems[system.name] = {
            "build_s": round(build_s, 4),
            "multicast_s": round(multicast_s, 4),
            "receivers": result.receiver_count,
        }
        print(
            f"system {system.name:10s} build {build_s:7.3f}s  "
            f"multicast {multicast_s:7.3f}s  ({result.receiver_count} receivers)"
        )
    return systems


def measure_scenarios(seed: int = 0) -> dict:
    """Per-scenario cell timings on the flagship system.

    Each library scenario compiles and runs one cam-chord cell (the
    full live quiesce-then-check phase plus the static measurement), so
    the trajectory tracks what a scenario-matrix cell costs and which
    scenario dominates the extM / CI smoke wall time.
    """
    from repro.scenarios import LIBRARY, compile_cell, run_cell, scenario_names

    scenarios: dict[str, dict] = {}
    for name in scenario_names():
        started = time.perf_counter()
        cell = compile_cell(LIBRARY[name], "cam-chord", seed)
        compile_s = time.perf_counter() - started
        started = time.perf_counter()
        outcome = run_cell(cell)
        run_s = time.perf_counter() - started
        scenarios[name] = {
            "compile_s": round(compile_s, 4),
            "run_s": round(run_s, 4),
            "events": len(cell.plan.events),
            "passed": outcome.passed,
        }
        print(
            f"scenario {name:22s} compile {compile_s:7.3f}s  "
            f"run {run_s:7.3f}s  [{'ok' if outcome.passed else 'FAIL'}]"
        )
    return scenarios


def measure_service(scale, seed: int = 0, profile: Path | None = None) -> dict:
    """Sustained service-plane throughput at the heaviest extN cell.

    Runs the largest (group count, churn) point of the extN sweep once
    and records **both** delivery rates: ``deliveries_per_sec`` (and
    its explicit alias ``deliveries_per_sec_sim``) is deliveries per
    *simulated* second — the number a deployment provisions against —
    while ``deliveries_per_sec_wall`` is deliveries per *wall-clock*
    second of plane execution, the rate the epoch-cached schedule path
    accelerates.  ``sched_cache`` carries the cell's cache attribution.
    The quiesce oracles run inside ``execute_point``, so a recorded
    number is always an audited one.

    With ``profile`` set, the same cell runs once more under cProfile
    (separately, so profiler overhead never poisons the recorded
    timings) and the top-20 cumulative functions land at that path.
    """
    from repro.experiments.ext_service import (
        CHURN_RATES,
        GROUP_COUNTS,
        execute_point,
    )

    groups = max(GROUP_COUNTS[scale.name])
    churn = max(CHURN_RATES[scale.name])
    started = time.perf_counter()
    row, timings = execute_point(scale, seed, (groups, churn))
    wall = time.perf_counter() - started
    entry = {
        "groups": groups,
        "churn": churn,
        "peak_concurrent": row["peak_concurrent"],
        "deliveries": row["deliveries"],
        "deliveries_per_sec": round(row["deliveries_per_sec"], 4),
        "deliveries_per_sec_sim": round(row["deliveries_per_sec"], 4),
        "deliveries_per_sec_wall": round(
            timings["deliveries_per_sec_wall"], 1
        ),
        "plane_wall_s": round(timings["plane_wall_s"], 4),
        "sched_cache": row["sched_cache"],
        "deferrals": row["deferrals"],
        "max_queue_depth": row["max_queue_depth"],
        "wall_s": round(wall, 4),
    }
    cache = row["sched_cache"]
    print(
        f"service groups={groups} churn={churn:g}: "
        f"{row['deliveries_per_sec']:.1f} deliveries/s sim, "
        f"{timings['deliveries_per_sec_wall']:.0f}/s wall, "
        f"{row['deferrals']} deferrals, wall {wall:7.3f}s, "
        f"cache {cache['hits']}h/{cache['misses']}m"
    )
    if profile is not None:
        _profile_service(scale, seed, (groups, churn), profile)
    return entry


def _profile_service(scale, seed: int, point, out_path: Path) -> None:
    """cProfile one extN cell and write the top-20 cumulative report."""
    import cProfile
    import io
    import pstats

    from repro.experiments.ext_service import execute_point

    profiler = cProfile.Profile()
    profiler.enable()
    execute_point(scale, seed, point)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(
        20
    )
    out_path.write_text(stream.getvalue())
    print(f"service profile (top-20 cumulative) -> {out_path}")


def measure_failover(seed: int = 0) -> dict:
    """Repair vs precomputed-backup failover gap medians (PR 10).

    Runs a small seed-deterministic comparison campaign — every plan
    down both resilience paths, quiesced at the same instant — and
    records the paired affected-member gap percentiles.  The gaps are
    *simulated* seconds (deterministic given seed and plans), so the
    trajectory tracks the resilience semantics, while ``wall_s`` tracks
    what the comparison costs to run.  The headline invariant the quick
    gate holds: zero oracle failures on either path, and the failover
    median strictly below the repair median.
    """
    from repro.churn.resilience import percentile
    from repro.faults import generate_campaign, run_comparison_campaign
    from repro.systems import system_names

    plans = generate_campaign(system_names(), FAILOVER_PLANS_PER_SYSTEM, seed)
    started = time.perf_counter()
    result = run_comparison_campaign(plans, jobs=1)
    wall = time.perf_counter() - started
    pairs = result.paired_gaps()
    repair_gaps = [repair for repair, _failover in pairs]
    failover_gaps = [failover for _repair, failover in pairs]
    entry = {
        "plans_per_system": FAILOVER_PLANS_PER_SYSTEM,
        "plans": result.plans_run,
        "failures": len(result.failures),
        "affected_members": len(pairs),
        # None (not NaN) when no plan orphaned anyone: NaN is not JSON
        "repair_gap_p50": round(percentile(repair_gaps, 0.50), 4) if pairs else None,
        "repair_gap_p99": round(percentile(repair_gaps, 0.99), 4) if pairs else None,
        "failover_gap_p50": (
            round(percentile(failover_gaps, 0.50), 4) if pairs else None
        ),
        "failover_gap_p99": (
            round(percentile(failover_gaps, 0.99), 4) if pairs else None
        ),
        "wall_s": round(wall, 4),
    }
    print(
        f"failover {result.plans_run} plans, {len(result.failures)} failing, "
        f"{len(pairs)} affected members, gap p50 "
        f"repair={entry['repair_gap_p50']}s "
        f"failover={entry['failover_gap_p50']}s, wall {wall:7.3f}s"
    )
    return entry


def measure_scale_sweep(seed: int = 0) -> list[dict]:
    """Per-decade build/multicast/metrics time + exact peak RSS.

    Delegates to the extL harness's subprocess isolation; each entry
    carries per-system stage timings and that decade's ``peak_rss_mb``.
    """
    from repro.experiments.ext_scale import measure_decades_isolated

    results = measure_decades_isolated(SCALE_SWEEP_DECADES, seed)
    for entry in results:
        rss = entry["peak_rss_mb"]
        print(
            f"scale_sweep n={entry['n']}: peak RSS "
            f"{rss if rss is not None else 'n/a'}MB"
        )
    return results


def measure(scale, repeats: int, seed: int = 0, profile: Path | None = None) -> dict:
    """Median cold + warm seconds per core figure, with perf totals.

    Each figure's entry carries its *own* counter delta (the perf
    counters are process-global and monotone; without per-figure
    scoping the totals would attribute every figure's work to the
    batch as a whole).
    """
    figures: dict[str, dict[str, float]] = {}
    before = perf.snapshot()
    for name in CORE_FIGURES:
        with perf.scoped() as scope:
            colds = [time_figure(name, scale, seed) for _ in range(repeats)]
            warm = warm_figure(name, scale, seed)
        delta = scope.delta
        figures[name] = {
            "cold_median_s": round(statistics.median(colds), 4),
            "warm_s": round(warm, 4),
            "perf": {
                "resolves": delta.resolves,
                "kernel_resolves": delta.kernel_resolves,
                "kernel_resolves_saved": delta.kernel_resolves_saved,
                "deliveries": delta.deliveries,
            },
        }
        print(
            f"{name:6s} cold median {statistics.median(colds):7.3f}s  "
            f"warm {warm:7.3f}s  ({repeats} repeats)"
        )
    counters = perf.since(before)
    tracing = measure_tracing(scale, repeats, seed)
    systems = measure_systems(scale, seed)
    scenarios = measure_scenarios(seed)
    service = measure_service(scale, seed, profile=profile)
    failover = measure_failover(seed)
    scale_sweep = measure_scale_sweep(seed)
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": scale.name,
        "group_size": scale.group_size,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "figures": figures,
        "tracing": tracing,
        "systems": systems,
        "scenarios": scenarios,
        "service": service,
        "failover": failover,
        "scale_sweep": scale_sweep,
        "perf": asdict(counters),
        "peak_rss_mb": perf.peak_rss_mb(),
    }


def baseline_cold_median(entries: list[dict], name: str) -> float:
    """The cold median ``--quick`` gates figure ``name`` against:
    ``min(latest entry, median of the last BASELINE_ENTRIES entries of
    the latest entry's scale that hold the figure)``.  Never above the
    latest entry, so the gate only gets stricter, and an outlier latest
    entry is replaced by the typical recent run."""
    latest = entries[-1]
    held = [
        entry["figures"][name]["cold_median_s"]
        for entry in entries
        if entry["scale"] == latest["scale"] and name in entry["figures"]
    ]
    recent = statistics.median(held[-BASELINE_ENTRIES:])
    return min(latest["figures"][name]["cold_median_s"], recent)


def quick_check(
    scale,
    repeats: int,
    seed: int,
    trajectory_path: Path,
    result_path: Path,
    tolerance: float,
    dps_floor: float = 0.77,
    profile: Path | None = None,
) -> int:
    """The CI perf smoke: gate the quick figures' cold medians on the
    committed baseline (:func:`baseline_cold_median`).  Returns a
    process exit code (1 = regression)."""
    trajectory = json.loads(trajectory_path.read_text())
    baseline = trajectory["entries"][-1]
    if baseline["scale"] != scale.name:
        raise SystemExit(
            f"--quick compares against the committed entry (scale "
            f"{baseline['scale']!r}); run with --scale {baseline['scale']}"
        )
    figures: dict[str, dict[str, float]] = {}
    passed = True
    for name in QUICK_FIGURES:
        if name not in baseline["figures"]:
            # the committed entry predates this figure (e.g. extL was
            # added later) — nothing to regress against until the next
            # trajectory append
            print(f"{name:6s} not in committed baseline; skipped")
            continue
        with perf.scoped() as scope:
            colds = [time_figure(name, scale, seed) for _ in range(repeats)]
        median = statistics.median(colds)
        committed = baseline_cold_median(trajectory["entries"], name)
        ratio = median / committed
        ok = ratio <= tolerance or (median - committed) <= NOISE_FLOOR_S
        passed = passed and ok
        figures[name] = {
            "cold_median_s": round(median, 4),
            "baseline_cold_median_s": committed,
            "ratio": round(ratio, 3),
            "resolves": scope.delta.resolves,
            "kernel_resolves": scope.delta.kernel_resolves,
            "ok": ok,
        }
        print(
            f"{name:6s} cold median {median:7.3f}s  baseline {committed:7.3f}s  "
            f"ratio {ratio:5.2f}x  [{'ok' if ok else 'REGRESSION'}]"
        )
    service: dict | None = None
    if "service" in baseline:
        # sustained-throughput gate: the heaviest extN cell's wall
        # clock must stay within tolerance of the committed entry
        measured = measure_service(scale, seed, profile=profile)
        committed_wall = baseline["service"]["wall_s"]
        ratio = measured["wall_s"] / committed_wall
        ok = ratio <= tolerance or (
            measured["wall_s"] - committed_wall
        ) <= NOISE_FLOOR_S
        passed = passed and ok
        service = {
            "wall_s": measured["wall_s"],
            "baseline_wall_s": committed_wall,
            "ratio": round(ratio, 3),
            "deliveries_per_sec": measured["deliveries_per_sec"],
            "ok": ok,
        }
        print(
            f"service wall {measured['wall_s']:7.3f}s  baseline "
            f"{committed_wall:7.3f}s  ratio {ratio:5.2f}x  "
            f"[{'ok' if ok else 'REGRESSION'}]"
        )
        baseline_dps = baseline["service"].get("deliveries_per_sec_wall")
        if baseline_dps:
            # delivery-rate floor: wall-clock deliveries/sec must stay
            # at >= dps_floor of the committed rate (the inverse of
            # the <= tolerance wall gates), with the same absolute
            # noise escape — a sub-noise-floor slowdown on a cell this
            # small is scheduler jitter, not a regression
            dps = measured["deliveries_per_sec_wall"]
            dps_ratio = dps / baseline_dps
            slowdown = measured["plane_wall_s"] - baseline["service"].get(
                "plane_wall_s", 0.0
            )
            dps_ok = dps_ratio >= dps_floor or slowdown <= NOISE_FLOOR_S
            passed = passed and dps_ok
            service.update(
                {
                    "deliveries_per_sec_wall": dps,
                    "baseline_deliveries_per_sec_wall": baseline_dps,
                    "dps_ratio": round(dps_ratio, 3),
                    "dps_floor": dps_floor,
                    "dps_ok": dps_ok,
                }
            )
            print(
                f"service wall rate {dps:10.0f}/s  baseline "
                f"{baseline_dps:10.0f}/s  ratio {dps_ratio:5.2f}x  "
                f"(floor {dps_floor:.2f}x)  "
                f"[{'ok' if dps_ok else 'REGRESSION'}]"
            )
        else:
            print(
                "service wall-rate floor skipped: committed baseline "
                "predates deliveries_per_sec_wall"
            )
    failover: dict | None = None
    if "failover" in baseline:
        # resilience gate: the comparison campaign must stay clean on
        # both paths, and the precomputed-backup median gap must sit
        # strictly below the repair median *and* not regress past the
        # committed entry.  The gaps are simulated seconds — fully
        # deterministic given the seed — so any drift here is a
        # semantic change in plans, backups, or timing, never machine
        # noise.
        measured = measure_failover(seed)
        repair_p50 = measured["repair_gap_p50"]
        failover_p50 = measured["failover_gap_p50"]
        committed_p50 = baseline["failover"].get("failover_gap_p50")
        ok = (
            measured["failures"] == 0
            and repair_p50 is not None
            and failover_p50 is not None
            and failover_p50 < repair_p50
        )
        if ok and committed_p50 is not None:
            ok = failover_p50 <= committed_p50 * tolerance
        passed = passed and ok
        failover = {
            **measured,
            "baseline_failover_gap_p50": committed_p50,
            "ok": ok,
        }
        print(
            f"failover gap p50 {failover_p50}s  repair {repair_p50}s  "
            f"baseline {committed_p50}s  "
            f"[{'ok' if ok else 'REGRESSION'}]"
        )
    else:
        print("failover not in committed baseline; skipped")
    result = {
        "scale": scale.name,
        "repeats": repeats,
        "tolerance": tolerance,
        "baseline_recorded_at": baseline["recorded_at"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "figures": figures,
        "service": service,
        "failover": failover,
        "passed": passed,
    }
    result_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"quick result -> {result_path}  ({'pass' if passed else 'FAIL'})")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-core",
        description="Time the core figures and append to BENCH_core.json.",
    )
    parser.add_argument("--scale", default="bench", help="bench | quick | default | paper")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--dry-run", action="store_true", help="measure and print, do not write"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf smoke: time fig6/fig8 only, compare against the latest"
        " committed entry, write --quick-out, exit 1 on regression"
        " (never appends to the trajectory)",
    )
    parser.add_argument(
        "--quick-out",
        type=Path,
        default=Path("bench_quick.json"),
        metavar="PATH",
        help="where --quick writes its result JSON (CI artifact)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.3,
        help="--quick failure threshold: measured/committed cold-median ratio",
    )
    parser.add_argument(
        "--dps-floor",
        type=float,
        default=0.77,
        metavar="RATIO",
        help="--quick service gate: measured/committed wall-clock"
        " deliveries-per-sec must stay at or above this ratio"
        " (mirrors the <= 1.3x wall gates)",
    )
    parser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="PATH",
        help="also cProfile the service cell and write the top-20"
        " cumulative functions here (CI artifact)",
    )
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    if args.quick:
        return quick_check(
            scale,
            args.repeats,
            args.seed,
            args.out,
            args.quick_out,
            args.tolerance,
            dps_floor=args.dps_floor,
            profile=args.profile,
        )
    entry = measure(
        scale, repeats=args.repeats, seed=args.seed, profile=args.profile
    )

    if args.dry_run:
        print(json.dumps(entry, indent=2))
        return 0

    if args.out.exists():
        trajectory = json.loads(args.out.read_text())
    else:
        trajectory = {"schema": 1, "entries": []}
    trajectory["entries"].append(entry)
    args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended entry {len(trajectory['entries'])} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
