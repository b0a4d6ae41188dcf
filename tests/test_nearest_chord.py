"""The pruned nearest-chord pass behind the global loss and the replay
deviation, against its unpruned form (oracles.oracle_nearest_chord)."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ee_trajectory, joint_trajectory
from oracles import oracle_nearest_chord
from waypoint_extraction import reconstruction
from waypoint_extraction.reconstruction import _nearest_chord, min_distances_to_polyline
from waypoint_extraction.replay import FollowerConfig, max_deviation_from_polyline, replay_waypoints
from waypoint_extraction.solver import ErrorBudget, extract_waypoints_dp
from waypoint_extraction.state_space import MetricConfig, StateKind, Trajectory
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def _curve(points, rng, jitter=1e-3):
    points = np.asarray(points) + rng.normal(0.0, jitter, size=np.shape(points))
    turns = [(0.0, 0.2 * np.cos(0.1 * t), 0.3 * np.sin(0.05 * t)) for t in range(len(points))]
    grippers = [0.04 + 0.04 * np.sin(0.2 * t) for t in range(len(points))]
    return ee_trajectory(points, axis_angles=turns, grippers=grippers)


def _shifted(traj: Trajectory, offset) -> Trajectory:
    return Trajectory.from_columns(traj.name, traj.state_space, traj.frequency_hz, traj.t, pos=traj.pos + offset,
                                   quat=traj.quat, grip=traj.grip, axis_angle=traj.axis_angle)


FAMILIES = ["loops", "back-and-forth", "pauses", "orientation-only", "gripper", "masked-joints", "far-from-origin"]


def _family(name, rng):
    """(trajectory, metric) with T between 120 and 160, so range(T) chains
    fill more than one block of (point, chord) pairs."""
    T = int(rng.integers(120, 161))
    s = np.linspace(0.0, 1.0, T)
    if name == "loops":
        w = 2 * np.pi * 3
        return _curve(np.c_[0.1 * np.cos(w * s), 0.1 * np.sin(w * s), np.zeros(T)], rng), MetricConfig()
    if name == "back-and-forth":
        sweep = 0.2 * np.abs(((4 * s) % 2) - 1)
        return _curve(np.c_[sweep, 0.01 * s, np.zeros(T)], rng), MetricConfig()
    if name == "pauses":
        return make_random_walk_trajectory(rng, T, pause_prob=0.5), MetricConfig()
    if name == "orientation-only":
        return make_random_walk_trajectory(rng, T), MetricConfig(position_weight=0.0)
    if name == "gripper":
        return _curve(np.c_[0.3 * s, 0.05 * np.sin(9 * s), np.zeros(T)], rng), MetricConfig(
            include_gripper=True, gripper_weight=2.0)
    if name == "masked-joints":
        traj = make_random_walk_trajectory(rng, T, StateKind.JOINT, joint_dim=5, pause_prob=0.3)
        return traj, MetricConfig(joint_mask=(1.0, 0.0, 2.0, 0.0, 0.5))
    assert name == "far-from-origin"
    return _shifted(make_random_walk_trajectory(rng, T), np.array([1e6, -1e6, 1e6])), MetricConfig()


def _chains(traj, metric, rng):
    """range(T), the extracted waypoints and a random sparse chain."""
    T = len(traj)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.01, metric))
    interior = np.sort(rng.choice(np.arange(1, T - 1), size=int(rng.integers(1, 12)), replace=False))
    return [range(T), wp.indices, [0, *interior.tolist(), T - 1]]


@pytest.mark.parametrize("family", FAMILIES)
def test_nearest_chord_equals_unpruned_reference(rng, family):
    for _ in range(2):
        traj, metric = _family(family, rng)
        for chain in _chains(traj, metric, rng):
            got = _nearest_chord(traj, len(traj), traj, chain, metric)
            assert np.array_equal(got, oracle_nearest_chord(traj, len(traj), traj, chain, metric))


@pytest.mark.parametrize("multiplier", [1, 10])
@pytest.mark.parametrize("family", ["segmented", "loops", "pauses", "masked-joints"])
def test_replay_deviation_equals_unpruned_reference(rng, family, multiplier):
    if family == "segmented":
        traj, metric = make_segmented_ee_trajectory(rng, n_segments=3), MetricConfig()
    else:
        traj, metric = _family(family, rng)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.05, metric))
    steps = np.diff(_nearest_chord(traj, len(traj), traj, [0, len(traj) - 1], metric))
    follower = FollowerConfig(max_step=float(np.abs(steps).max()) + 0.01, reach_tolerance=0.01,
                              control_multiplier=multiplier, metric=metric)
    executed = replay_waypoints(traj, wp, follower).executed_path
    count = len(next(iter(executed.values())))
    ref = oracle_nearest_chord(SimpleNamespace(**{"joints": None, **executed}), count, traj, range(len(traj)), metric)
    assert np.array_equal(min_distances_to_polyline(executed, traj, metric), ref)
    assert max_deviation_from_polyline(executed, traj, metric) == float(ref.max())


@pytest.mark.parametrize("family", FAMILIES)
def test_skipped_chords_are_farther_than_the_minimum(rng, monkeypatch, family):
    traj, metric = _family(family, rng)
    T = len(traj)
    scored = np.zeros((T, T - 1), dtype=bool)
    kernel = reconstruction._row_distances

    def recording(points, anchors, t, src, dst, cfg):
        scored[t, src] = True
        return kernel(points, anchors, t, src, dst, cfg)

    monkeypatch.setattr(reconstruction, "_row_distances", recording)
    # small blocks: many of them, and one point per block at the end
    for block in (reconstruction._PAIR_BLOCK, 7 * (T - 1), 5):
        monkeypatch.setattr(reconstruction, "_PAIR_BLOCK", block)
        scored[:] = False
        got = _nearest_chord(traj, T, traj, range(T), metric)
        exact = np.stack([kernel(traj, traj, np.arange(T), c, c + 1, metric) for c in range(T - 1)], axis=1)
        assert np.array_equal(got, exact.min(axis=1))
        assert np.all(exact[~scored] > np.broadcast_to(got[:, None], exact.shape)[~scored])
        if family == "orientation-only":
            assert scored.all(), "no position term: nothing may be skipped"
        else:
            assert not scored.all(), "the bound should skip some chords here"


def test_polyline_distances_reject_empty_points(rng):
    traj = make_random_walk_trajectory(rng, 6)
    empty = {name: column[:0] for name, column in traj.state_columns.items()}
    with pytest.raises(ValueError, match="no states"):
        min_distances_to_polyline(empty, traj)
    with pytest.raises(ValueError, match="no states"):
        max_deviation_from_polyline(empty, traj)
    with pytest.raises(ValueError, match="no states"):
        max_deviation_from_polyline({}, traj)


def test_polyline_distances_check_kind_and_dimension(rng):
    ee = make_random_walk_trajectory(rng, 6)
    joint = make_random_walk_trajectory(rng, 6, StateKind.JOINT, joint_dim=4)
    with pytest.raises(ValueError, match="kind mismatch: joint vs ee"):
        min_distances_to_polyline(joint.state_columns, ee)
    with pytest.raises(ValueError, match="kind mismatch: ee vs joint"):
        min_distances_to_polyline(ee.state_columns, joint)
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 4"):
        min_distances_to_polyline(joint_trajectory(np.zeros((2, 3))).state_columns, joint)
