"""The CI perf-smoke gate (`bench_core --quick`), tested hermetically.

Figure timings are monkeypatched so the gate logic — baseline lookup,
ratio computation, result JSON, exit code — is exercised without
multi-second benchmark runs in the tier-1 suite.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import bench_core


@pytest.fixture
def trajectory(tmp_path):
    path = tmp_path / "BENCH_core.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "entries": [
                    {
                        "recorded_at": "2026-08-06T00:00:00+00:00",
                        "scale": "bench",
                        "figures": {
                            "fig6": {"cold_median_s": 1.0},
                            "fig8": {"cold_median_s": 2.0},
                            "extL": {"cold_median_s": 0.5},
                            "extN": {"cold_median_s": 0.5},
                        },
                        "service": {
                            "wall_s": 1.0,
                            "deliveries_per_sec": 25.0,
                        },
                    }
                ],
            }
        )
    )
    return path


def run_quick(
    monkeypatch,
    tmp_path,
    trajectory,
    timings,
    service_wall=1.0,
    service_dps=30000.0,
    service_plane_wall=0.05,
):
    monkeypatch.setattr(
        bench_core, "time_figure", lambda name, scale, seed=0: timings[name]
    )
    monkeypatch.setattr(
        bench_core,
        "measure_service",
        lambda scale, seed=0, profile=None: {
            "wall_s": service_wall,
            "deliveries_per_sec": 25.0,
            "deliveries_per_sec_wall": service_dps,
            "plane_wall_s": service_plane_wall,
        },
    )
    result_path = tmp_path / "bench_quick.json"
    code = bench_core.main(
        [
            "--quick",
            "--out",
            str(trajectory),
            "--quick-out",
            str(result_path),
        ]
    )
    return code, json.loads(result_path.read_text())


def test_quick_passes_within_tolerance(monkeypatch, tmp_path, trajectory):
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
    )
    assert code == 0
    assert result["passed"] is True
    assert result["figures"]["fig6"]["ratio"] == 1.2
    assert result["figures"]["fig6"]["baseline_cold_median_s"] == 1.0
    assert set(result["figures"]) == set(bench_core.QUICK_FIGURES)


def test_quick_fails_on_regression_but_still_writes_result(
    monkeypatch, tmp_path, trajectory
):
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.0 * 1.31, "extL": 0.5, "extN": 0.5},
    )
    assert code == 1
    assert result["passed"] is False
    assert result["figures"]["fig6"]["ok"] is True
    assert result["figures"]["fig8"]["ok"] is False


def test_quick_noise_floor_forgives_small_absolute_slowdowns(
    monkeypatch, tmp_path, trajectory
):
    """A fast figure over the ratio tolerance but within the absolute
    noise floor must not fail the gate — sub-100ms figures jitter past
    1.3x from scheduler noise alone."""
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {
            "fig6": 1.2,
            "fig8": 2.1,
            "extL": 0.5 + bench_core.NOISE_FLOOR_S,
            "extN": 0.5,
        },
    )
    assert code == 0
    assert result["passed"] is True
    assert result["figures"]["extL"]["ok"] is True
    assert result["figures"]["extL"]["ratio"] > 1.3


def test_quick_skips_figures_missing_from_baseline(
    monkeypatch, tmp_path, trajectory
):
    """A baseline entry that predates a gated figure must not fail the
    gate — the figure is skipped until the next trajectory append."""
    stale = json.loads(trajectory.read_text())
    del stale["entries"][-1]["figures"]["extL"]
    trajectory.write_text(json.dumps(stale))
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
    )
    assert code == 0
    assert result["passed"] is True
    assert "extL" not in result["figures"]


def test_quick_gates_service_throughput(monkeypatch, tmp_path, trajectory):
    """The sustained-throughput entry is held to the same tolerance as
    the figures: a service wall-clock past 1.3x the committed entry
    (and past the noise floor) fails the gate."""
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
        service_wall=1.0 * 1.31 + bench_core.NOISE_FLOOR_S,
    )
    assert code == 1
    assert result["passed"] is False
    assert result["service"]["ok"] is False
    assert result["service"]["baseline_wall_s"] == 1.0


def _with_wall_rate_baseline(trajectory, dps=30000.0, plane_wall=0.05):
    entry = json.loads(trajectory.read_text())
    entry["entries"][-1]["service"]["deliveries_per_sec_wall"] = dps
    entry["entries"][-1]["service"]["plane_wall_s"] = plane_wall
    trajectory.write_text(json.dumps(entry))


def test_quick_gates_service_wall_rate_floor(monkeypatch, tmp_path, trajectory):
    """With a wall-rate baseline committed, a cell delivering below
    0.77x of it — and slower by more than the noise floor — fails."""
    _with_wall_rate_baseline(trajectory)
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
        service_dps=30000.0 * 0.5,
        service_plane_wall=0.05 + bench_core.NOISE_FLOOR_S + 0.1,
    )
    assert code == 1
    assert result["passed"] is False
    assert result["service"]["dps_ok"] is False
    assert result["service"]["dps_floor"] == 0.77


def test_quick_wall_rate_floor_forgives_sub_noise_slowdowns(
    monkeypatch, tmp_path, trajectory
):
    """A low ratio on a cell whose absolute slowdown is within the
    noise floor passes — tiny cells jitter past any ratio."""
    _with_wall_rate_baseline(trajectory)
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
        service_dps=30000.0 * 0.5,
        service_plane_wall=0.06,  # 10ms over baseline: noise
    )
    assert code == 0
    assert result["service"]["dps_ok"] is True


def test_quick_skips_wall_rate_floor_on_stale_baseline(
    monkeypatch, tmp_path, trajectory
):
    """The fixture baseline predates deliveries_per_sec_wall, so only
    the wall-time gate runs — no dps fields in the result."""
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
    )
    assert code == 0
    assert "dps_ok" not in result["service"]


def test_quick_skips_service_missing_from_baseline(
    monkeypatch, tmp_path, trajectory
):
    stale = json.loads(trajectory.read_text())
    del stale["entries"][-1]["service"]
    trajectory.write_text(json.dumps(stale))
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 1.2, "fig8": 2.1, "extL": 0.5, "extN": 0.5},
    )
    assert code == 0
    assert result["service"] is None


def test_quick_rejects_scale_mismatch(monkeypatch, tmp_path, trajectory):
    monkeypatch.setattr(bench_core, "time_figure", lambda name, scale, seed=0: 0.1)
    with pytest.raises(SystemExit, match="scale"):
        bench_core.main(
            [
                "--quick",
                "--scale",
                "quick",
                "--out",
                str(trajectory),
                "--quick-out",
                str(tmp_path / "q.json"),
            ]
        )


def test_quick_never_appends_to_trajectory(monkeypatch, tmp_path, trajectory):
    before = trajectory.read_text()
    run_quick(
        monkeypatch,
        tmp_path,
        trajectory,
        {"fig6": 0.5, "fig8": 0.5, "extL": 0.5, "extN": 0.5},
    )
    assert trajectory.read_text() == before


def test_quick_baseline_ignores_an_outlier_latest_entry(monkeypatch, tmp_path):
    """Each figure's baseline is min(latest entry, median of the last
    three entries of the same scale holding it): a slow outlier latest
    entry cannot raise the bar, a fast one still sets it, and entries
    of another scale or without the figure do not count."""

    def entry(scale, **figures):
        return {
            "recorded_at": "2026-08-06T00:00:00+00:00",
            "scale": scale,
            "figures": {name: {"cold_median_s": s} for name, s in figures.items()},
        }

    path = tmp_path / "BENCH_core.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "entries": [
                    entry("bench", fig6=5.0, fig8=5.0),  # older than the last three
                    entry("bench", fig6=1.0, fig8=2.2, extN=0.5),
                    entry("quick", fig6=0.1, fig8=0.1),  # another scale
                    entry("bench", fig6=1.1, fig8=2.4, extL=0.5),
                    entry("bench", fig6=2.0, fig8=2.0, extL=0.4, extN=0.5),
                ],
            }
        )
    )
    code, result = run_quick(
        monkeypatch,
        tmp_path,
        path,
        {"fig6": 1.6, "fig8": 2.5, "extL": 0.4, "extN": 0.5},
    )
    figures = result["figures"]
    # fig6: median(1.0, 1.1, 2.0) = 1.1 replaces the 2.0 outlier, and
    # 1.6 s is 1.45x of it (0.5 s over the noise floor): a regression
    # the latest-entry rule (0.8x) would have passed
    assert figures["fig6"]["baseline_cold_median_s"] == 1.1
    assert figures["fig6"]["ok"] is False
    # fig8: the latest entry (2.0) is below median(2.2, 2.4, 2.0) = 2.2
    assert figures["fig8"]["baseline_cold_median_s"] == 2.0
    assert figures["fig8"]["ok"] is True
    # extL/extN held by fewer than three entries: median of what there is
    assert figures["extL"]["baseline_cold_median_s"] == 0.4
    assert figures["extN"]["baseline_cold_median_s"] == 0.5
    assert code == 1 and result["passed"] is False
