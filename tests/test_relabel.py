import math

import numpy as np
import pytest

from conftest import ee_trajectory
from oracles import oracle_next_waypoint
from waypoint_extraction.cli import EXIT_OK, main
from waypoint_extraction.relabel import (
    next_waypoint_index,
    relabel_trajectory,
)
from waypoint_extraction.solver import ErrorBudget, WaypointSet, extract_waypoints_dp
from waypoint_extraction.synthetic import make_random_walk_trajectory
from waypoint_extraction.trajfile import load_relabeled, save_trajectory


def test_next_waypoint_examples():
    wp = WaypointSet((0, 3, 7))
    assert next_waypoint_index(1, wp) == 3
    assert next_waypoint_index(3, wp) == 7  # strictly after, never itself
    assert next_waypoint_index(6, wp) == 7


def test_next_waypoint_errors():
    wp = WaypointSet((0, 3, 7))
    with pytest.raises(ValueError, match="no waypoint after"):
        next_waypoint_index(7, wp)
    with pytest.raises(ValueError, match="no waypoint after"):
        next_waypoint_index(9, wp)
    with pytest.raises(ValueError):
        next_waypoint_index(-1, wp)


def test_relabel_two_frames():
    traj = ee_trajectory([(0, 0, 0), (1, 0, 0)])
    ds = relabel_trajectory(traj, WaypointSet((0, 1)))
    assert len(ds) == 1
    row = ds.frames[0]
    assert row.t == 0
    assert row.target_index == 1
    assert np.allclose(row.target_waypoint.position, (1, 0, 0))


def test_relabel_all_frames_targets_next(rng):
    traj = make_random_walk_trajectory(rng, 9)
    ds = relabel_trajectory(traj, WaypointSet(tuple(range(9))))
    for row in ds.frames:
        assert row.target_index == row.t + 1


def test_relabel_matches_scan_oracle(rng):
    for _ in range(20):
        T = int(rng.integers(4, 30))
        traj = make_random_walk_trajectory(rng, T)
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(float(rng.uniform(0.05, 1.5))))
        ds = relabel_trajectory(traj, wp)
        assert len(ds) == T - 1
        for row in ds.frames:
            assert row.target_index == oracle_next_waypoint(row.t, wp.indices)
            # no waypoint lies strictly between the frame and its target
            assert not any(row.t < idx < row.target_index for idx in wp.indices)
            assert row.waypoints_remaining == sum(1 for idx in wp.indices if idx > row.t)


def test_relabel_carries_obs_refs_and_eta(rng):
    from waypoint_extraction.state_space import Frame, StateKind, Trajectory

    base = make_random_walk_trajectory(rng, 6)
    frames = tuple(
        Frame(f.t, f.state, obs_ref=f"cam0/{f.t:04d}.png") for f in base.frames
    )
    traj = Trajectory("with-obs", StateKind.EE, 30.0, frames)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.7))
    ds = relabel_trajectory(traj, wp)
    assert ds.source_name == "with-obs"
    assert ds.eta == 0.7
    assert [row.obs_ref for row in ds.frames] == [f"cam0/{t:04d}.png" for t in range(5)]


def test_relabel_heuristic_set_has_nan_eta(rng):
    traj = make_random_walk_trajectory(rng, 8)
    ds = relabel_trajectory(traj, WaypointSet((0, 4, 7)))
    assert math.isnan(ds.eta)


def test_relabel_gappy_time_axis_uses_frame_times(rng):
    from waypoint_extraction.state_space import Frame, StateKind, Trajectory

    base = make_random_walk_trajectory(rng, 5)
    times = [0, 2, 5, 6, 9]
    traj = Trajectory(
        "gappy", StateKind.EE, 50.0,
        tuple(Frame(times[k], base.frames[k].state) for k in range(5)),
    )
    ds = relabel_trajectory(traj, WaypointSet((0, 2, 4)))
    assert [row.t for row in ds.frames] == [0, 2, 5, 6]
    # targets are the waypoints' own time indices, strictly after each row
    assert [row.target_index for row in ds.frames] == [5, 5, 9, 9]


def test_relabel_requires_matching_endpoint(rng):
    traj = make_random_walk_trajectory(rng, 8)
    with pytest.raises(ValueError, match="ends at"):
        relabel_trajectory(traj, WaypointSet((0, 5)))


def test_corpus_sizes_and_failures(tmp_path, rng, capsys):
    # the batch path: wpx relabel over a directory writes one row per frame but the last
    trajs = [make_random_walk_trajectory(rng, int(rng.integers(4, 15)), name=f"w{i}") for i in range(6)]
    (tmp_path / "in").mkdir()
    for traj in trajs:
        save_trajectory(tmp_path / "in" / f"{traj.name}.json", traj)
    argv = ["relabel", "--input", str(tmp_path / "in"), "--eta", "0.5", "--output", str(tmp_path / "out"), "--no-timestamp"]
    assert main(argv) == EXIT_OK
    assert "FAILED" not in capsys.readouterr().err
    datasets = [load_relabeled(tmp_path / "out" / f"{traj.name}.relabeled.jsonl")[0] for traj in trajs]
    assert sum(len(ds) for ds in datasets) == sum(len(t) - 1 for t in trajs)
