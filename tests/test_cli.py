import io
import json
import re
import shutil
import sys
import warnings

import numpy as np
import pytest

from test_trajfile import MUTANTS, _paths, _set
from waypoint_extraction import cli
from waypoint_extraction.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    main,
)
from waypoint_extraction.relabel import relabel_trajectory
from waypoint_extraction.solver import ErrorBudget, extract_waypoints_dp
from waypoint_extraction.defaults import ENV_TASK_DEFAULTS, TASK_ETA_DEFAULTS
from waypoint_extraction.replay import default_follower_config, replay_waypoints
from waypoint_extraction.state_space import DEFAULT_METRIC, MetricConfig, StateKind
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory
from waypoint_extraction.trajfile import load_trajectory, load_waypoints, save_relabeled, save_trajectory


@pytest.fixture
def demo_file(tmp_path, rng):
    path = tmp_path / "demo.json"
    save_trajectory(path, make_segmented_ee_trajectory(rng, n_segments=4, name="demo"))
    return path


@pytest.fixture
def tiny_file(tmp_path, rng):
    path = tmp_path / "tiny.json"
    save_trajectory(path, make_random_walk_trajectory(rng, 10, name="tiny"))
    return path


def test_extract_writes_waypoints(tmp_path, demo_file, capsys):
    out = tmp_path / "wp.json"
    code = main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "awe-wp-v1"
    assert doc["eta"] == 0.01
    assert doc["indices"][0] == 0
    assert "waypoints=" in capsys.readouterr().out


def test_extract_task_resolves_defaults(tmp_path, demo_file):
    for task, eta in TASK_ETA_DEFAULTS.items():
        out = tmp_path / f"wp-{task}.json"
        code = main(["extract", "--input", str(demo_file), "--task", task, "--output", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["eta"] == eta


def test_extract_conflicting_eta_and_task(tmp_path, demo_file):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--input", str(demo_file), "--eta", "0.1", "--task", "lift", "--output", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_extract_requires_eta_or_task(tmp_path, demo_file):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--input", str(demo_file), "--output", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(demo_file):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--input", str(demo_file), "--frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["extract", "--input", str(tmp_path / "nope.json"), "--eta", "0.1", "--output", str(tmp_path / "o.json")])
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_schema_and_validation_exit_codes(tmp_path):
    bad_schema = tmp_path / "s.json"
    bad_schema.write_text(json.dumps({"schema_version": "other"}))
    assert main(["extract", "--input", str(bad_schema), "--eta", "0.1", "--output", str(tmp_path / "o.json")]) == EXIT_SCHEMA
    bad_valid = tmp_path / "v.json"
    bad_valid.write_text(
        json.dumps(
            {
                "schema_version": "awe-traj-v1",
                "name": "x",
                "state_space": "ee",
                "frequency_hz": 50.0,
                "frames": [
                    {"t": 0, "pos": [0, 0, 0], "axis_angle": [0, 0, 0], "gripper": 0},
                    {"t": 0, "pos": [1, 0, 0], "axis_angle": [0, 0, 0], "gripper": 0},
                ],
            }
        )
    )
    assert main(["extract", "--input", str(bad_valid), "--eta", "0.1", "--output", str(tmp_path / "o.json")]) == EXIT_VALIDATION


def _batch_argv(command, input_path, out_dir):
    """argv for one of the batch commands over input_path at eta 0.5."""
    argv = [command, "--input", str(input_path), "--eta", "0.5"]
    return argv + ["--output", str(out_dir), "--no-timestamp"] if command == "relabel" else argv


@pytest.mark.parametrize("command", ["extract", "relabel", "stats", "compare"])
def test_overflowing_rotation_vector_exits_validation_quietly(tmp_path, capsys, command):
    # finite components whose norm overflows: located, and no NumPy warning
    frames = [{"t": t, "pos": [0.1 * t, 0, 0], "axis_angle": [0, 0, 0], "gripper": 0} for t in range(5)]
    frames[3]["axis_angle"] = [1e308, 1e308, 0]
    doc = {"schema_version": "awe-traj-v1", "name": "ovf", "state_space": "ee", "frequency_hz": 50.0, "frames": frames}
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "ovf.json").write_text(json.dumps(doc))
    if command == "extract":
        argv = ["extract", "--input", str(tmp_path / "in" / "ovf.json"), "--output", str(tmp_path / "wp.json"), "--eta", "0.1"]
    else:
        argv = _batch_argv(command, tmp_path / "in", tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert "ovf.json: axis_angle must be finite and at most 2**250 in magnitude, got 1e+308 at axis_angle[3, 0]" in err
    assert "Warning" not in err
    # a file fails with its class's code, alone or in a batch
    assert code == EXIT_VALIDATION
    if command != "extract":  # batches report each failed file and go on
        assert err.startswith("FAILED ovf.json: ")


@pytest.mark.parametrize("command", ["relabel", "stats", "compare"])
def test_batch_reports_a_bad_file_and_goes_on(tmp_path, rng, capsys, command):
    good, mixed = tmp_path / "good", tmp_path / "mixed"
    good.mkdir()
    mixed.mkdir()
    for name in ("a", "c"):
        traj = make_random_walk_trajectory(rng, 14, name=name)
        save_trajectory(good / f"{name}.json", traj)
        save_trajectory(mixed / f"{name}.json", traj)
    (mixed / "b.json").write_text(json.dumps({"schema_version": "other"}))  # sorts between the good files

    def run(input_dir):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        code = main(_batch_argv(command, input_dir, tmp_path / "out"))
        captured = capsys.readouterr()
        written = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} if command == "relabel" else {}
        return code, re.sub(r"wall_time=\S+", "", captured.out).splitlines(), captured.err, written

    code, out, err, written = run(good)
    assert code == EXIT_OK and "FAILED" not in err
    code, mixed_out, err, mixed_written = run(mixed)
    assert code == EXIT_SCHEMA
    assert err.count("FAILED") == 1 and "FAILED b.json: " in err
    assert mixed_written == written
    if command == "relabel":  # every line but the batch summary
        assert mixed_out[-1] == out[-1].replace("2/2", "2/3")
        out, mixed_out = out[:-1], mixed_out[:-1]
    assert mixed_out == out


def test_batch_reports_a_file_whose_work_fails_after_the_batch(tmp_path, rng, monkeypatch):
    (tmp_path / "in").mkdir()
    for name in ("a", "b", "c"):
        save_trajectory(tmp_path / "in" / f"{name}.json", make_random_walk_trajectory(rng, 12, name=name))
    relabel = cli.relabel_trajectory

    def relabel_all_but_b(traj, wp):
        if traj.name == "b":
            raise ValueError("b cannot be relabeled")
        return relabel(traj, wp)

    monkeypatch.setattr(cli, "relabel_trajectory", relabel_all_but_b)
    both = io.StringIO()  # stdout and stderr as one stream, to see their order
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert main(_batch_argv("relabel", tmp_path / "in", tmp_path / "out")) == EXIT_DOMAIN
    lines = both.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["a.json", "c.json"]
    assert lines[2] == "FAILED b.json: b cannot be relabeled"
    assert lines[3].startswith("relabeled 2/3 trajectories") and len(lines) == 4
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == ["a.relabeled.jsonl", "c.relabeled.jsonl"]


@pytest.mark.parametrize("command", ["relabel", "stats", "compare"])
def test_empty_input_directory_exits_io(tmp_path, capsys, command):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "notes.txt").write_text("not a trajectory")
    assert main(_batch_argv(command, tmp_path / "in", tmp_path / "out")) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert "no .json trajectory files" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["relabel", "stats", "compare"])
def test_missing_input_exits_io_before_any_output(tmp_path, capsys, command):
    assert main(_batch_argv(command, tmp_path / "nowhere", tmp_path / "out")) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: file not found")
    assert not (tmp_path / "out").exists()


def test_relabel_file_equals_direct_relabel(tmp_path, rng):
    traj = make_random_walk_trajectory(rng, 12, name="one")
    save_trajectory(tmp_path / "one.json", traj)
    assert main(_batch_argv("relabel", tmp_path / "one.json", tmp_path / "out")) == EXIT_OK
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.5))
    save_relabeled(tmp_path / "direct.jsonl", relabel_trajectory(traj, wp))
    assert (tmp_path / "out" / "one.relabeled.jsonl").read_bytes() == (tmp_path / "direct.jsonl").read_bytes()


def test_extract_deterministic_without_timestamp(tmp_path, demo_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(out1), "--no-timestamp"]) == EXIT_OK
    assert main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(out2), "--no-timestamp"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_metric_config(tmp_path, demo_file):
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"position_weight": 1.0, "orientation_weight": 0.0}))
    out = tmp_path / "wp.json"
    code = main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(out), "--metric-config", str(mpath), "--no-timestamp"])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["provenance"]["metric"]["orientation_weight"] == 0.0


@pytest.mark.parametrize(
    "doc, code",
    [
        ({"joint_mask": 3}, EXIT_SCHEMA),
        ({"joint_mask": ["a"]}, EXIT_SCHEMA),
        ({"joint_mask": [1.0, True]}, EXIT_SCHEMA),
        ({"position_weight": "1.0"}, EXIT_SCHEMA),
        ({"orientation_weight": True}, EXIT_SCHEMA),
        ({"gripper_weight": None}, EXIT_SCHEMA),
        ({"include_gripper": 1}, EXIT_SCHEMA),
        ({"position_weight": -1.0}, EXIT_VALIDATION),
        ({"joint_mask": [0.0, 0.0]}, EXIT_VALIDATION),
    ],
)
def test_malformed_metric_config_exit_codes(tmp_path, demo_file, capsys, doc, code):
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps(doc))
    argv = ["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(tmp_path / "wp.json")]
    assert main(argv + ["--metric-config", str(mpath)]) == code
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "stats"])
def test_metric_without_end_effector_weight_exits_domain(tmp_path, demo_file, capsys, command):
    # a joint_mask lets MetricConfig through, but it weighs nothing on an end-effector demo
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"position_weight": 0, "orientation_weight": 0, "joint_mask": [1]}))
    argv = [command, "--input", str(demo_file), "--eta", "0.01", "--metric-config", str(mpath)]
    if command == "extract":
        argv += ["--output", str(tmp_path / "wp.json")]
    assert main(argv) == EXIT_DOMAIN
    assert "no nonzero end-effector weight" in capsys.readouterr().err
    assert not (tmp_path / "wp.json").exists()


@pytest.mark.parametrize("command", ["relabel", "stats", "compare"])
def test_batch_reports_an_unusable_metric_once(tmp_path, rng, capsys, command):
    # the mask fits the 1-D joint demo a; it weighs nothing on the end-effector demos c and d
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"position_weight": 0, "orientation_weight": 0, "joint_mask": [1]}))
    demos = tmp_path / "in"
    demos.mkdir()
    save_trajectory(demos / "a.json", make_random_walk_trajectory(rng, 14, StateKind.JOINT, name="a", joint_dim=1))
    (demos / "b.json").write_text(json.dumps({"schema_version": "other"}))
    for name in ("c", "d"):
        save_trajectory(demos / f"{name}.json", make_random_walk_trajectory(rng, 14, name=name))
    code = main(_batch_argv(command, demos, tmp_path / "out") + ["--metric-config", str(mpath)])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith("FAILED b.json: ")
    assert err[1] == ("error: metric has no nonzero end-effector weight: position, orientation and "
                      "included gripper weights are all 0")
    names = [line.split()[0] for line in captured.out.splitlines()[command == "compare":]]
    assert names and {name[0] for name in names} == {"a"}
    if command == "relabel":  # the demo done before the fault keeps its output
        assert [f.name for f in (tmp_path / "out").iterdir()] == ["a.relabeled.jsonl"]


@pytest.mark.parametrize("command", ["relabel", "stats", "compare"])
def test_batch_reports_a_joint_mask_of_the_wrong_width_once(tmp_path, rng, capsys, command):
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"joint_mask": [1, 0]}))
    (tmp_path / "in").mkdir()
    for name in ("a", "b", "c"):
        traj = make_random_walk_trajectory(rng, 14, StateKind.JOINT, name=name, joint_dim=3)
        save_trajectory(tmp_path / "in" / f"{name}.json", traj)
    assert main(_batch_argv(command, tmp_path / "in", tmp_path / "out") + ["--metric-config", str(mpath)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: joint_mask has 2 weights but states have 3 dims\n"
    assert not (tmp_path / "out").exists()


def test_gripper_only_end_effector_metric_is_accepted(tmp_path, demo_file):
    mpath = tmp_path / "metric.json"
    mpath.write_text(json.dumps({"position_weight": 0, "orientation_weight": 0, "include_gripper": True}))
    argv = ["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(tmp_path / "wp.json")]
    assert main(argv + ["--metric-config", str(mpath)]) == EXIT_OK


def test_relabel_directory(tmp_path, rng, capsys):
    in_dir = tmp_path / "demos"
    in_dir.mkdir()
    lengths = {}
    for i in range(3):
        traj = make_random_walk_trajectory(rng, int(rng.integers(6, 14)), name=f"d{i}")
        save_trajectory(in_dir / f"d{i}.json", traj)
        lengths[f"d{i}"] = len(traj)
    out_dir = tmp_path / "out"
    code = main(["relabel", "--input", str(in_dir), "--eta", "0.5", "--output", str(out_dir), "--no-timestamp"])
    assert code == EXIT_OK
    for i in range(3):
        lines = (out_dir / f"d{i}.relabeled.jsonl").read_text().splitlines()
        assert len(lines) == lengths[f"d{i}"] - 1
    assert "3/3" in capsys.readouterr().out


def test_stats_prints_and_warns(tmp_path, demo_file, capsys):
    code = main(["stats", "--input", str(demo_file), "--eta", "100.0"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "wall_time=" in captured.out
    assert "per-segment losses" in captured.out
    assert "WARNING" in captured.err  # huge budget puts the ratio below 1:15
    code = main(["stats", "--input", str(demo_file), "--eta", "100.0", "--strict-ratio"])
    assert code == EXIT_CHECK_FAILED


def test_stats_prints_each_file_in_order_then_the_failed_files(tmp_path, rng, capsys):
    # a: out of the band (a 2-frame demo keeps both frames), b: not a trajectory, c: inside the band
    (tmp_path / "in").mkdir()
    save_trajectory(tmp_path / "in" / "a.json", make_random_walk_trajectory(rng, 2, name="a"))
    (tmp_path / "in" / "b.json").write_text(json.dumps({"schema_version": "other"}))
    save_trajectory(tmp_path / "in" / "c.json", make_segmented_ee_trajectory(rng, n_segments=4, name="c"))
    argv = ["stats", "--input", str(tmp_path / "in"), "--eta", "0.01", "--ratio-low", "0.01", "--ratio-high", "0.5"]
    code = main(argv + ["--strict-ratio"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA  # a failed file's code wins over the strict-ratio verdict
    out = captured.out.splitlines()
    assert [line.split(": ")[0] for line in out] == ["a", "a", "c", "c"]
    assert "per-segment losses" in out[1] and "per-segment losses" in out[3]
    err = captured.err.splitlines()
    assert err[0] == "WARNING a: ratio 1:1.0 outside [1:100, 1:2]; consider adjusting eta"
    assert len(err) == 2 and err[1].startswith("FAILED b.json: ")


def test_compare_table(demo_file, capsys):
    code = main(["compare", "--input", str(demo_file), "--eta", "0.01", "--methods", "awe,zero-vel,fixed"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "awe" in out and "zero-vel" in out and "fixed" in out
    assert "awe <= zero-vel" in out


@pytest.mark.parametrize("command", ["extract", "relabel", "stats", "compare", "oracle"])
def test_a_bad_budget_fails_before_a_missing_input(tmp_path, capsys, command):
    # extract and oracle once read the input first and exited 3
    argv = [command, "--input", str(tmp_path / "nowhere"), "--eta", "-1"]
    argv += ["--output", str(tmp_path / "out")] if command in ("extract", "relabel") else []
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", "error: eta must be a positive finite scalar\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["relabel", "oracle"])
def test_relabel_and_oracle_take_no_task(tmp_path, demo_file, capsys, command):
    argv = [command, "--input", str(demo_file), "--task", "lift"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--output", str(tmp_path / "out")] if command == "relabel" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_compare_rejects_unknown_method(demo_file):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(demo_file), "--eta", "0.01", "--methods", "awe,magic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("methods", [",", ""])
def test_compare_rejects_an_empty_method_list(demo_file, capsys, methods):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(demo_file), "--eta", "0.01", "--methods", methods])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_compare_rejects_a_repeated_method(demo_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(demo_file), "--eta", "0.01", "--methods", "zero-vel,zero-vel,awe"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "each once" in captured.err


def test_compare_accepts_a_multiplier_beyond_the_float_range(demo_file, capsys):
    code = main(["compare", "--input", str(demo_file), "--eta", "0.005", "--control-multiplier", "1" + "0" * 400])
    assert code == EXIT_OK
    assert "awe <= fixed" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compare", "replay-check"])
@pytest.mark.parametrize("multiplier", ["0", "-3", "two"])
def test_control_multiplier_must_be_a_positive_integer(tmp_path, demo_file, capsys, command, multiplier):
    argv = [command, "--input", str(demo_file), "--control-multiplier", multiplier]
    argv += ["--eta", "0.01"] if command == "compare" else ["--waypoints", str(tmp_path / "wp.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--control-multiplier" in captured.err


def test_replay_check(tmp_path, demo_file, capsys):
    wp = tmp_path / "wp.json"
    assert main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp), "--no-timestamp"]) == EXIT_OK
    code = main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp), "--control-multiplier", "10"])
    assert code == EXIT_OK
    assert "reached_final=True" in capsys.readouterr().out


def test_replay_check_failure_is_nonzero(tmp_path, demo_file, capsys):
    wp = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp), "--no-timestamp"])
    code = main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp), "--max-step", "1e-7"])
    assert code == EXIT_CHECK_FAILED


@pytest.mark.parametrize("indices, message", [
    ([], ": indices must be a nonempty list"), ("0, 1", ": indices must be a nonempty list"),
    ([0, 1.0], ".indices[1]: expected an integer"), ([True, 5], ".indices[0]: expected an integer"),
])
def test_replay_check_refuses_malformed_indices(tmp_path, demo_file, capsys, indices, message):
    wp_file = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp_file), "--no-timestamp"])
    doc = json.loads(wp_file.read_text())
    doc["indices"] = indices
    wp_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)]) == EXIT_SCHEMA
    assert capsys.readouterr() == ("", f"error: {wp_file}{message}\n")


def test_replay_check_with_a_tolerance_that_covers_every_waypoint_takes_no_tick(tmp_path, demo_file, capsys):
    wp_file = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp_file), "--no-timestamp"])
    count = len(json.loads(wp_file.read_text())["indices"])
    capsys.readouterr()
    code = main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file), "--reach-tolerance", "1e9"])
    assert code == EXIT_OK
    assert f"waypoints_reached={count}/{count} reached_final=True ticks=0 " in capsys.readouterr().out


def test_sweep_with_plot(tmp_path, demo_file, capsys):
    plot = tmp_path / "plot.csv"
    code = main(["sweep", "--input", str(demo_file), "--etas", "0.05,0.01,0.005", "--plot-out", str(plot)])
    assert code == EXIT_OK
    assert plot.read_text().splitlines()[0] == "eta,kind,t,x,y,z"
    assert capsys.readouterr().out.count("eta=") == 3


@pytest.mark.parametrize("etas", [",", "", "0.1,abc"])
def test_sweep_rejects_a_bad_eta_list(tmp_path, demo_file, capsys, etas):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--input", str(demo_file), "--etas", etas, "--plot-out", str(tmp_path / "plot.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "plot.csv").exists()


def test_oracle_match(tiny_file, capsys):
    code = main(["oracle", "--input", str(tiny_file), "--eta", "0.3"])
    assert code == EXIT_OK
    assert "MATCH" in capsys.readouterr().out


def test_oracle_refuses_long_input(tmp_path, rng, capsys):
    path = tmp_path / "long.json"
    save_trajectory(path, make_random_walk_trajectory(rng, 30, name="long"))
    code = main(["oracle", "--input", str(path), "--eta", "0.3"])
    assert code == EXIT_DOMAIN
    assert "T <= 20" in capsys.readouterr().err


def _replay_line(traj, wp, metric):
    report = replay_waypoints(traj, wp, default_follower_config(traj, wp.eta_used, metric=metric))
    return f"ticks={report.ticks_used} max_tracking_deviation={report.max_tracking_deviation:.6g}"


def _extract_with_metric(tmp_path, demo_file, metric_doc):
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(metric_doc))
    wp = tmp_path / "wp.json"
    args = ["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp), "--no-timestamp"]
    assert main([*args, "--metric-config", str(metric)]) == EXIT_OK
    return wp


def test_replay_check_uses_recorded_metric(tmp_path, demo_file, capsys):
    custom = MetricConfig(position_weight=3.0, orientation_weight=0.05)
    wp_file = _extract_with_metric(tmp_path, demo_file, {"position_weight": 3.0, "orientation_weight": 0.05})
    traj, (wp, _) = load_trajectory(demo_file), load_waypoints(wp_file)
    expected = _replay_line(traj, wp, custom)
    assert expected != _replay_line(traj, wp, DEFAULT_METRIC)
    capsys.readouterr()
    assert main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)]) == EXIT_OK
    assert expected in capsys.readouterr().out


def test_replay_check_without_recorded_metric_uses_default(tmp_path, demo_file, capsys):
    wp_file = _extract_with_metric(tmp_path, demo_file, {"position_weight": 3.0, "orientation_weight": 0.05})
    doc = json.loads(wp_file.read_text())
    del doc["provenance"]["metric"]
    wp_file.write_text(json.dumps(doc))
    wp, _ = load_waypoints(wp_file)
    expected = _replay_line(load_trajectory(demo_file), wp, DEFAULT_METRIC)
    capsys.readouterr()
    assert main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)]) == EXIT_OK
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("metric", [{"position_weigth": 1.0}, [1.0, 1.0], {"orientation_weight": "heavy"}])
def test_replay_check_rejects_malformed_recorded_metric(tmp_path, demo_file, capsys, metric):
    wp_file = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp_file), "--no-timestamp"])
    doc = json.loads(wp_file.read_text())
    doc["provenance"]["metric"] = metric
    wp_file.write_text(json.dumps(doc))
    code = main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)])
    assert code == EXIT_SCHEMA
    assert f"{wp_file}.provenance.metric" in capsys.readouterr().err


def test_replay_check_reads_a_bad_recorded_metric_before_the_indices(tmp_path, demo_file, capsys):
    # the metric is read with the file, so it fails before the indices are matched to the trajectory
    wp_file = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp_file), "--no-timestamp"])
    doc = json.loads(wp_file.read_text())
    doc["provenance"]["metric"], doc["indices"] = "x", [0, 10**6]
    wp_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)]) == EXIT_SCHEMA
    assert f"{wp_file}.provenance.metric: expected a JSON object" in capsys.readouterr().err


def test_replay_check_rejects_recorded_metric_without_weight(tmp_path, demo_file, capsys):
    # extract refuses this metric, so it can only come from an edited file
    wp_file = tmp_path / "wp.json"
    main(["extract", "--input", str(demo_file), "--eta", "0.01", "--output", str(wp_file), "--no-timestamp"])
    doc = json.loads(wp_file.read_text())
    doc["provenance"]["metric"] = {"position_weight": 0, "orientation_weight": 0, "joint_mask": [1]}
    wp_file.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["replay-check", "--input", str(demo_file), "--waypoints", str(wp_file)])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "no nonzero end-effector weight" in captured.err
    assert "ticks=" not in captured.out


@pytest.mark.parametrize("band", [("0", "0.5"), ("-0.1", "0.5"), ("0.5", "0.1"), ("0.01", "inf"), ("nan", "0.5")])
def test_stats_rejects_bad_ratio_band(demo_file, capsys, band):
    low, high = band
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--input", str(demo_file), "--eta", "100.0", "--ratio-low", low, "--ratio-high", high])
    assert exc.value.code == 2
    assert "--ratio-low" in capsys.readouterr().err


def test_stats_accepts_a_one_point_ratio_band(demo_file, capsys):
    # low == high is a band of one ratio; the warning divides by both bounds
    code = main(["stats", "--input", str(demo_file), "--eta", "100.0", "--ratio-low", "0.5", "--ratio-high", "0.5"])
    assert code == EXIT_OK
    assert "outside [1:2, 1:2]" in capsys.readouterr().err


# AWE_TASK_DEFAULTS text -> exit code: the file's faults exit as a metric
# config file's do, and every message names the file
_TASK_DEFAULTS_FAULTS = {
    "not JSON": ('{"lift": 0.1,\n', EXIT_PARSE),
    "not an object": ("[0.1]", EXIT_SCHEMA),
    "bool eta": ('{"lift": true}', EXIT_SCHEMA),
    "string eta": ('{"lift": "0.1"}', EXIT_SCHEMA),
    "400-digit eta": ('{"lift": 1' + "0" * 400 + "}", EXIT_VALIDATION),
    "negative eta": ('{"lift": -0.1}', EXIT_DOMAIN),
}


@pytest.mark.parametrize("case", list(_TASK_DEFAULTS_FAULTS))
def test_bad_task_defaults_file_exit_codes(tmp_path, demo_file, capsys, monkeypatch, case):
    text, code = _TASK_DEFAULTS_FAULTS[case]
    table = tmp_path / "tasks.json"
    table.write_text(text)
    monkeypatch.setenv(ENV_TASK_DEFAULTS, str(table))
    assert main(["extract", "--input", str(demo_file), "--task", "lift", "--output", str(tmp_path / "o.json")]) == code
    assert capsys.readouterr().err.startswith(f"error: {table}")


def test_non_utf8_input_exits_parse(tmp_path, rng, capsys):
    (tmp_path / "in").mkdir()
    save_trajectory(tmp_path / "in" / "a.json", make_random_walk_trajectory(rng, 14, name="a"))
    (tmp_path / "in" / "b.json").write_bytes(b"\xff\xfe{\x00}\x00")
    argv = ["extract", "--input", str(tmp_path / "in" / "b.json"), "--eta", "0.5", "--output", str(tmp_path / "o.json")]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'in' / 'b.json'}: not UTF-8 text")
    assert main(_batch_argv("relabel", tmp_path / "in", tmp_path / "out")) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith("FAILED b.json: ") and "relabeled 1/2 trajectories" in captured.out


# ---------------------------------------------------------------------------
# the numeric range: coordinates and metric weights within 2**250
# ---------------------------------------------------------------------------


def _segmented_17(path):
    """A 17-frame segmented end-effector demo saved at path."""
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), n_segments=2, frames_per_segment=8, name="d")
    assert len(traj) == 17
    save_trajectory(path, traj)
    return path


def _quiet_main(argv):
    """main(argv) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.mark.parametrize("field", ["position_weight", "orientation_weight"])
def test_a_weight_past_the_range_exits_validation_naming_the_field(tmp_path, capsys, field):
    # once: 1e308 as position_weight kept all 17 frames with global loss above
    # segment loss, and as orientation_weight failed on achieved_global_loss (exit 7)
    demo = _segmented_17(tmp_path / "d.json")
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({field: 1e308}))
    code = _quiet_main(["stats", "--input", str(demo), "--eta", "0.05", "--metric-config", str(metric)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err == f"error: {metric}: {field} must be finite, >= 0 and at most 2**250, got 1e+308\n"


def test_a_coordinate_past_the_range_exits_validation_naming_the_row(tmp_path, capsys):
    # once: overflow warnings, then exit 7 on achieved_global_loss
    demo = _segmented_17(tmp_path / "d.json")
    doc = json.loads(demo.read_text())
    doc["frames"][3]["pos"][0] = 1e200
    demo.write_text(json.dumps(doc))
    code = _quiet_main(["extract", "--input", str(demo), "--eta", "0.05", "--output", str(tmp_path / "wp.json")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: {demo}: pos must be finite and at most 2**250 in magnitude, "
                                       "got 1e+200 at pos[3, 0]\n")
    assert not (tmp_path / "wp.json").exists()


def _stats_losses(out: str) -> tuple[float, float]:
    """(segment_loss, global_loss) of the one file a stats run printed."""
    match = re.search(r"segment_loss=(\S+) global_loss=(\S+)", out)
    return float(match[1]), float(match[2])


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_metric_config_mutations_exit_by_the_table(tmp_path, capsys, kind):
    # a fixed enumeration: every field of the metric config, each set to every value of MUTANTS
    rng = np.random.default_rng(1)
    if kind == "ee":
        traj = make_segmented_ee_trajectory(rng, n_segments=2, frames_per_segment=8, name="d")
        base = {"position_weight": 1.0, "orientation_weight": 1.0, "include_gripper": True, "gripper_weight": 1.0,
                "joint_mask": None}
    else:
        traj = make_random_walk_trajectory(rng, 14, StateKind.JOINT, name="d", joint_dim=3)
        base = {"position_weight": 1.0, "orientation_weight": 1.0, "include_gripper": False, "gripper_weight": 1.0,
                "joint_mask": [1.0, 0.5, 0.0]}
    demo, metric, eta = tmp_path / "d.json", tmp_path / "metric.json", 0.05
    save_trajectory(demo, traj)
    table = {EXIT_OK, EXIT_PARSE, EXIT_SCHEMA, EXIT_VALIDATION, EXIT_DOMAIN}
    faults, exits = [], set()
    for where in _paths(base):
        for value in MUTANTS:
            doc = json.loads(json.dumps(base))
            _set(doc, where, value)
            metric.write_text(json.dumps(doc))
            try:
                code = _quiet_main(["stats", "--input", str(demo), "--eta", str(eta), "--metric-config", str(metric)])
            except Exception as exc:  # anything escaping main is a fault this test looks for
                faults.append((where, value, f"{type(exc).__name__}: {exc}"))
                continue
            out, err = capsys.readouterr()
            exits.add(code)
            if code not in table:
                faults.append((where, value, f"exit {code}"))
            elif code in (EXIT_PARSE, EXIT_SCHEMA, EXIT_VALIDATION) and str(metric) not in err:
                faults.append((where, value, f"unlocated: {err}"))
            elif code == EXIT_OK and not _stats_losses(out)[1] <= _stats_losses(out)[0] <= eta:
                faults.append((where, value, f"losses out of order: {out}"))
    assert not faults, faults[:5]
    assert {EXIT_OK, EXIT_SCHEMA, EXIT_VALIDATION} <= exits
