import math

import numpy as np
import pytest

from conftest import ee_trajectory, joint_trajectory
from oracles import oracle_next_waypoint
from waypoint_extraction.cli import EXIT_OK, main
from waypoint_extraction.relabel import RelabeledDataset, relabel_trajectory
from waypoint_extraction.solver import ErrorBudget, WaypointSet, extract_waypoints_dp
from waypoint_extraction.synthetic import make_random_walk_trajectory
from waypoint_extraction.trajfile import load_relabeled, save_relabeled, save_trajectory


def test_next_waypoint_examples():
    traj = ee_trajectory([(t, 0, 0) for t in range(8)])
    target = relabel_trajectory(traj, WaypointSet((0, 3, 7))).target_index
    assert target[1] == 3
    assert target[3] == 7  # strictly after, never itself
    assert target[6] == 7


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


def test_relabel_heuristic_set_has_no_eta(rng):
    traj = make_random_walk_trajectory(rng, 8)
    ds = relabel_trajectory(traj, WaypointSet((0, 4, 7)))
    assert ds.eta is None


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


def _fields(ds) -> dict:
    return dict(source_name=ds.source_name, eta=ds.eta, t=ds.t, obs_ref=ds.obs_ref, states=ds.states,
                targets=ds.targets, target_index=ds.target_index, waypoints_remaining=ds.waypoints_remaining,
                gripper_dims=ds.gripper_dims)


def _head(columns, n):
    return {name: column[:n] for name, column in columns.items()}


_EE = relabel_trajectory(ee_trajectory([(t, 0, 0) for t in range(4)]), WaypointSet((0, 2, 3)))
_JOINT = relabel_trajectory(joint_trajectory(np.arange(8.0).reshape(4, 2)), WaypointSet((0, 3)))
_WIDE = relabel_trajectory(joint_trajectory(np.arange(12.0).reshape(4, 3)), WaypointSet((0, 3)))

# (dataset, changed fields, message). Unchecked, the writer would drop a
# line (2 state rows for 3) or fail with IndexError (no rows) or KeyError
# (end-effector states with joint targets; no axis_angle).
_MISFIT_DATASETS = {
    "2 state rows for 3": (_EE, lambda ds: dict(states=_head(ds.states, 2)), r"^states: pos must have shape \(3, 3\)"),
    "2 target rows for 3": (_JOINT, lambda ds: dict(targets=_head(ds.targets, 2)),
                            r"^targets: joints must have shape \(3, None\)"),
    "no rows": (_EE, lambda ds: dict(t=[], obs_ref=(), states=_head(ds.states, 0), targets=_head(ds.targets, 0),
                                     target_index=[], waypoints_remaining=[]), "^states: no states"),
    "end-effector states, joint targets": (_EE, lambda ds: dict(targets=_JOINT.targets),
                                           "^states and targets must hold the same columns"),
    "joint widths differ": (_JOINT, lambda ds: dict(targets=_WIDE.targets), "^states and targets must hold the same columns"),
    "no axis_angle": (_EE, lambda ds: dict(states={k: v for k, v in ds.states.items() if k != "axis_angle"},
                                           targets={k: v for k, v in ds.targets.items() if k != "axis_angle"}),
                      "^states and targets must hold the same columns"),
    "nan state": (_JOINT, lambda ds: dict(states={"joints": np.where(ds.states["joints"] == 2.0, np.nan, 1.0)}),
                  "^states: joints must be finite"),
    "gripper dim outside the joints": (_JOINT, lambda ds: dict(gripper_dims=(2,)),
                                       r"^states: gripper_dims \(2,\) must index the 2 joint dims"),
    "1 obs_ref for 3 rows": (_EE, lambda ds: dict(obs_ref=("a",)), "^obs_ref has 1 entries for 3 rows"),
    "1 target_index for 3 rows": (_EE, lambda ds: dict(target_index=ds.target_index[:1]),
                                  r"^target_index must have shape \(3,\), got \(1,\)"),
    "2 waypoints_remaining for 3 rows": (_EE, lambda ds: dict(waypoints_remaining=ds.waypoints_remaining[:2]),
                                         r"^waypoints_remaining must have shape \(3,\), got \(2,\)"),
    "scalar t": (_EE, lambda ds: dict(t=5), r"^t must have shape \(None,\), got \(\)$"),  # once a TypeError
    # once truncated to 3 and 1
    "target_index 3.7": (_EE, lambda ds: dict(target_index=[2, 2, 3.7]),
                         r"^target_index\[2\] must be an integer within 64 bits, got 3\.7$"),
    "waypoints_remaining 1.9": (_EE, lambda ds: dict(waypoints_remaining=[1.9, 1, 1]),
                                r"^waypoints_remaining\[0\] must be an integer within 64 bits, got 1\.9$"),
}


@pytest.mark.parametrize("case", list(_MISFIT_DATASETS))
def test_relabeled_dataset_rejects_columns_that_do_not_fit(case):
    ds, change, message = _MISFIT_DATASETS[case]
    with pytest.raises(ValueError, match=message):
        RelabeledDataset(**{**_fields(ds), **change(ds)})


@pytest.mark.parametrize("t, message", [
    ([1, 2, 3], r"^row 0: time index must start at 0, got 1$"),
    ([0, 2, 1], r"^row 2: t=1 not greater than previous t=2$"),  # once accepted
    ([0, 0, 1], r"^row 1: t=0 not greater than previous t=0$"),  # once accepted
], ids=["starts at 1", "out of order", "repeated"])
def test_relabeled_dataset_rows_follow_the_trajectory_time_rule(t, message):
    with pytest.raises(ValueError, match=message):
        RelabeledDataset(**{**_fields(_EE), "t": t, "target_index": [4, 4, 4]})


def test_relabeled_dataset_keeps_integral_float_columns_as_ints():
    ds = RelabeledDataset(**{**_fields(_EE), "t": [0.0, 1.0, 2.0], "target_index": [2.0, 2.0, 3.0]})
    assert ds.t.dtype == ds.target_index.dtype == np.int64
    assert (ds.t.tolist(), ds.target_index.tolist()) == ([0, 1, 2], [2, 2, 3])


@pytest.mark.parametrize("eta", [math.inf, math.nan, -1.0, 0.0, pytest.param(10**400, id="10**400")])
def test_relabeled_dataset_refuses_a_budget_errorbudget_refuses(eta):
    # inf was written and then refused by the loader; -1.0 and 0.0 round-tripped
    with pytest.raises(ValueError, match=r"^eta must be a positive finite scalar$"):
        RelabeledDataset(**{**_fields(_EE), "eta": eta})


def test_relabeled_dataset_budget_round_trips_as_a_float(tmp_path):
    # True was written as true and then refused by the loader
    ds = RelabeledDataset(**{**_fields(_EE), "eta": True})
    assert ds.eta == 1.0 and type(ds.eta) is float
    save_relabeled(tmp_path / "ds.jsonl", ds)
    assert load_relabeled(tmp_path / "ds.jsonl")[0].eta == 1.0
    assert RelabeledDataset(**{**_fields(_EE), "eta": None}).eta is None


def test_relabeled_dataset_names_ragged_joint_rows():
    states = {"joints": [[0.0, 1.0], [1.0], [2.0, 3.0]]}
    with pytest.raises(ValueError, match=r"^states: joints must be finite numbers of shape \(3, None\)"):
        RelabeledDataset(**{**_fields(_JOINT), "states": states})


def test_relabeled_dataset_columns_are_read_only_copies(tmp_path):
    states = {name: np.array(column) for name, column in _EE.states.items()}
    ds = RelabeledDataset(**{**_fields(_EE), "states": states})
    states["pos"][0] = 9.0
    assert ds.states["pos"][0, 0] == 0.0
    assert not any(column.flags.writeable for column in (ds.t, ds.target_index, *ds.states.values()))
    save_relabeled(tmp_path / "ds.jsonl", ds)
    assert len((tmp_path / "ds.jsonl").read_text().splitlines()) == len(ds) == 3


def test_relabeled_dataset_stores_gripper_dims_as_trajectory_does():
    ds = RelabeledDataset(**{**_fields(_WIDE), "gripper_dims": [2.0]})
    assert ds.gripper_dims == (2,) and isinstance(ds.gripper_dims[0], int)
    assert {row.state.gripper_dims for row in ds.frames} == {(2,)}
    with pytest.raises(ValueError, match=r"^states: gripper_dims entries must be an integer >= 0, got 1\.5"):
        RelabeledDataset(**{**_fields(_WIDE), "gripper_dims": [1.5]})


def test_relabeled_dataset_refuses_obs_refs_a_file_cannot_hold():
    # save_relabeled would write them, and load_relabeled refuse the file
    with pytest.raises(ValueError, match=r"^obs_ref\[1\] must be a string or None, got 7$"):
        RelabeledDataset(**{**_fields(_EE), "obs_ref": ("a", 7, None)})
    assert RelabeledDataset(**{**_fields(_EE), "obs_ref": ("a", None, "c")}).obs_ref == ("a", None, "c")


@pytest.mark.parametrize("source_name", [None, 5])
def test_relabeled_dataset_refuses_a_source_name_a_file_cannot_hold(source_name):
    # save_relabeled would write it, and load_relabeled refuse the file
    with pytest.raises(ValueError, match=f"^source_name must be a string, got {source_name}$"):
        RelabeledDataset(**{**_fields(_EE), "source_name": source_name})
