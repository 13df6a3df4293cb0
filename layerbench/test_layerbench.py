"""Self-tests of the benchmark: run with ``python3 -m pytest layerbench``.

They use the ``tiny`` scale, so every workload finishes in seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.overlay.base import RingSnapshot  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    SCALES,
    UNIFORM_FANOUT,
    WORKLOADS,
    OpClock,
    RoundResult,
    ServicePlaneWorkload,
    Trees,
    _score,
    fresh_round,
)

TINY = SCALES["tiny"]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = run_benchmark(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run_benchmark("plane-faults", trace=1)
    assert result["correct"] is True
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    assert result["metrics"]["plane.sends"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_matches_untraced_digest_and_restores_every_function(name):
    workload = WORKLOADS[name](5, TINY)
    plain = fresh_round(workload, None)
    constructor = RingSnapshot.__init__
    recorder = SpanRecorder()
    traced = fresh_round(workload, recorder)
    assert traced.digest == plain.digest
    assert traced.failed_ops == plain.failed_ops == 0
    assert recorder.spans, "a traced round records spans"
    assert RingSnapshot.__init__ is constructor
    assert fresh_round(workload, None).digest == plain.digest


def test_tree_missing_a_member_is_reported():
    workload = Trees(7, TINY)
    system = workload.systems[0]
    snapshot = RingSnapshot(workload.space, workload.nodes)
    overlay = system.build_overlay(snapshot, UNIFORM_FANOUT)
    tree = system.run_multicast(overlay, snapshot.node_at(workload.sources[system.name][0]))
    result = RoundResult()
    clock = OpClock(result, None)
    workload.start()
    throughput, stats = _score(clock, tree, snapshot)
    workload.check_tree(
        result, system, tree, stats, throughput, workload.members, workload.bandwidth_sum
    )
    assert result.failed_ops == 0
    # erase the last receiver's delivery: its parent never forwarded
    victim = tree.order[-1]
    tree.order = array("l", tree.order[:-1])
    tree.parent_index[victim] = -1
    tree.depth_array[victim] = -1
    throughput, stats = _score(clock, tree, snapshot)
    workload.check_tree(
        result, system, tree, stats, throughput, workload.members, workload.bandwidth_sum
    )
    assert result.failed_ops == 1
    assert "never received" in result.problems[0]


def test_receipt_missing_a_member_is_reported():
    workload = ServicePlaneWorkload(7, TINY)
    result = RoundResult()
    plane = workload.play(OpClock(result, None), result)
    workload.judge(plane, result)
    assert not result.problems
    receipt = next(r for r in plane.receipts() if len(r.members) > 1)
    missing = next(host for host in receipt.members if host != receipt.source)
    del receipt.delivered[missing]
    tampered = RoundResult(op_s=list(result.op_s))
    workload.judge(plane, tampered)
    assert tampered.problems
    assert tampered.failed_ops == len(tampered.op_s)


def test_layer_map_covers_exactly_the_per_layer_metrics():
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [entry["name"] for entry in layers["layers"]]
    assert mapped == [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert set(layers["workloads"]) == set(WORKLOADS)
    workloads = {entry["name"] for entry in BENCHMARK["workloads"]}
    assert workloads == set(WORKLOADS)
    for entry in layers["layers"]:
        assert set(entry["heavy"]) | set(entry["light"]) <= workloads
        assert set(entry["moves"]) <= {m["name"] for m in BENCHMARK["end_to_end"]}
