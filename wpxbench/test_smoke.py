"""Smoke test of the benchmark at toy size: every workload runs and prints
its metrics with units, the traced run reports every per-layer metric, and
the output check rejects an infeasible waypoint set."""

import numpy as np
import pytest

from waypoint_extraction import cli
from waypoint_extraction.solver import SolveStats, WaypointSet
from waypoint_extraction.state_space import MetricConfig
from waypoint_extraction.synthetic import make_segmented_ee_trajectory

from wpxbench import checks, tracing
from wpxbench.harness import END_TO_END_UNITS, TRACE_METRICS, run_workload
from wpxbench.tracing import LAYER_METRICS
from wpxbench.workloads import TOY

PRINTED_ONLY = {
    "relabel_corpus": {"relabel_rows_per_s": "rows/s"},
    "long_extract": {"extract_ee_T1000_s": "s", "extract_ee_T4000_s": "s", "extract_joint_T2000_s": "s"},
    "compare_corpus": {"compare_frames_per_s": "frames/s"},
}


def _run(name, tmp_path, trace=False):
    lines = []
    result = run_workload(name, seed=3, seconds=0.0, trace=trace, root=tmp_path, size=TOY, emit=lines.append)
    return result, lines


@pytest.mark.parametrize("name", sorted(PRINTED_ONLY))
def test_every_end_to_end_metric_printed_with_unit(name, tmp_path):
    result, lines = _run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == END_TO_END_UNITS
    printed = {**END_TO_END_UNITS, **PRINTED_ONLY[name], "op_failure_ratio": "ratio"}
    for metric, unit in printed.items():
        line = next(line for line in lines if line.startswith(f"metric {metric} "))
        assert line.split()[3] == unit
        assert float(line.split()[2]) >= 0.0


def test_traced_run_reports_every_layer_metric(tmp_path):
    result, lines = _run("compare_corpus", tmp_path, trace=True)
    assert result["correct"]
    expected = {m for m, _, _ in LAYER_METRICS} | {m for m, _ in TRACE_METRICS}
    assert set(result["metrics"]) == expected
    assert result["metrics"]["replay.ticks"]["value"] > 0
    assert "layer counts identical across traced passes: True" in lines
    assert (tmp_path / ".wpxbench" / "trace-compare_corpus-seed3.json").is_file()


def test_check_rejects_infeasible_waypoints():
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), n_segments=2, frames_per_segment=20)
    assert checks.check_waypoints(traj, range(len(traj)), 0.005, MetricConfig()) == []
    assert checks.check_waypoints(traj, [0, len(traj) - 1], 0.005, MetricConfig())
    assert checks.check_waypoints(traj, [0, 5, 5, len(traj) - 1], 0.005, MetricConfig())
    assert checks.check_waypoints(traj, [0, 5], 0.005, MetricConfig())


def test_rejected_output_counts_as_failed_op(tmp_path, monkeypatch):
    def endpoints_only(traj, budget):
        return WaypointSet((0, len(traj) - 1), budget.eta, 0.0, 0.0), SolveStats()

    monkeypatch.setattr(cli, "extract_waypoints_dp", endpoints_only)
    result, lines = _run("long_extract", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("REJECTED" in line and "exceeds eta" in line for line in lines)



def test_missing_hook_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_HOOKS", tracing.SPAN_HOOKS + [("cli.no_such_function", "x", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["cli.no_such_function"]
    assert not hasattr(cli, "no_such_function")
