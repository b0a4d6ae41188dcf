import numpy as np
import pytest

from conftest import ee_trajectory
from oracles import oracle_calibrate_fixed, oracle_calibrate_zero_velocity
from waypoint_extraction.baselines import (
    HeuristicConfig,
    calibrate_to_count,
    heuristic_fixed_interval,
    heuristic_zero_velocity,
)
from waypoint_extraction.state_space import StateKind, Trajectory
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def pause_trajectory():
    # move 5 frames, pause 3 frames, move 5 frames
    pts = [(float(t), 0, 0) for t in range(5)]
    pts += [(5.0, 0, 0)] * 3
    pts += [(5.0 + t, 0, 0) for t in range(1, 6)]
    return ee_trajectory(pts)


# ---------------------------------------------------------------------------
# zero velocity
# ---------------------------------------------------------------------------


def test_pause_onset_selected():
    traj = pause_trajectory()
    wp = heuristic_zero_velocity(traj, HeuristicConfig(velocity_threshold=1e-9))
    assert 5 in wp.indices
    # the pause contributes exactly one waypoint, not one per paused frame
    assert 6 not in wp.indices and 7 not in wp.indices
    assert wp.indices[0] == 0 and wp.indices[-1] == len(traj) - 1


def test_gripper_flip_selected():
    grippers = [0.0] * 4 + [0.08] * 6
    traj = ee_trajectory([(float(t), 0, 0) for t in range(10)], grippers=grippers)
    wp = heuristic_zero_velocity(traj, HeuristicConfig(velocity_threshold=0.0))
    assert 4 in wp.indices


def test_constant_velocity_endpoints_only():
    traj = ee_trajectory([(float(t), 0, 0) for t in range(12)])
    wp = heuristic_zero_velocity(traj, HeuristicConfig(velocity_threshold=0.5))
    assert wp.indices == (0, 11)


def test_gripper_delta_threshold_suppresses_tiny_ranges():
    grippers = [0.0] * 5 + [1e-4] * 5
    traj = ee_trajectory([(float(t), 0, 0) for t in range(10)], grippers=grippers)
    noisy = heuristic_zero_velocity(traj, HeuristicConfig())
    assert 5 in noisy.indices
    quiet = heuristic_zero_velocity(traj, HeuristicConfig(gripper_delta_threshold=1e-3))
    assert quiet.indices == (0, 9)


def test_zero_velocity_joint_space(rng):
    traj = make_random_walk_trajectory(rng, 15, "joint", joint_dim=6)
    wp = heuristic_zero_velocity(traj, HeuristicConfig(velocity_threshold=1e-12))
    assert wp.indices[0] == 0 and wp.indices[-1] == 14


# ---------------------------------------------------------------------------
# fixed interval
# ---------------------------------------------------------------------------


def test_fixed_interval_example():
    traj = ee_trajectory([(float(t), 0, 0) for t in range(17)])
    assert heuristic_fixed_interval(traj, 5).indices == (0, 5, 10, 15, 16)


def test_fixed_interval_k1_is_all_frames():
    traj = ee_trajectory([(float(t), 0, 0) for t in range(7)])
    assert heuristic_fixed_interval(traj, 1).indices == tuple(range(7))


def test_fixed_interval_big_k_is_endpoints():
    traj = ee_trajectory([(float(t), 0, 0) for t in range(9)])
    assert heuristic_fixed_interval(traj, 9).indices == (0, 8)
    assert heuristic_fixed_interval(traj, 50).indices == (0, 8)


def test_fixed_interval_size_formula(rng):
    for _ in range(25):
        T = int(rng.integers(2, 60))
        k = int(rng.integers(1, 70))
        traj = make_random_walk_trajectory(rng, T)
        wp = heuristic_fixed_interval(traj, k)
        assert len(wp) == -(-(T - 1) // k) + 1
        assert wp.indices[0] == 0 and wp.indices[-1] == T - 1
        assert all(b > a for a, b in zip(wp.indices, wp.indices[1:]))


def test_heuristic_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(velocity_threshold=-1.0)
    with pytest.raises(ValueError):
        HeuristicConfig(fixed_interval=0)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibrate_fixed_full_count(rng):
    traj = make_random_walk_trajectory(rng, 23)
    res = calibrate_to_count(traj, "fixed", 23)
    assert res.exact
    assert res.config.fixed_interval == 1
    assert len(res.waypoints) == 23


def test_calibrate_fixed_minimum_count(rng):
    traj = make_random_walk_trajectory(rng, 23)
    res = calibrate_to_count(traj, "fixed", 2)
    assert res.exact
    assert len(res.waypoints) == 2


def test_calibrate_fixed_near_targets(rng):
    for _ in range(20):
        T = int(rng.integers(8, 120))
        traj = make_random_walk_trajectory(rng, T)
        target = int(rng.integers(2, T + 1))
        res = calibrate_to_count(traj, "fixed", target)
        # exact when some k achieves the target; always the closest achievable
        achievable = {-(-(T - 1) // k) + 1 for k in range(1, T)}
        best = min(abs(c - target) for c in achievable)
        assert abs(len(res.waypoints) - target) == best
        assert res.exact == (best == 0)


def test_calibrate_fixed_closed_form_equals_bisection():
    for T in range(2, 121):
        traj = ee_trajectory(np.zeros((T, 3)))
        for target in range(2, T + 1):
            res = calibrate_to_count(traj, "fixed", target)
            assert res.config.fixed_interval == oracle_calibrate_fixed(T, target), (T, target)


def test_calibrate_zero_velocity_dense_sweep_oracle(rng):
    target = 8
    hits = 0
    for _ in range(10):
        traj = make_random_walk_trajectory(rng, 60, pause_prob=0.25)
        res = calibrate_to_count(traj, "zero-vel", target)
        # oracle: evaluate the count at every distinct speed threshold
        speeds = np.linalg.norm(np.diff(traj.pos, axis=0), axis=1)
        counts = set()
        for thr in np.unique(np.concatenate(([0.0], speeds))):
            wp = heuristic_zero_velocity(traj, HeuristicConfig(velocity_threshold=float(thr)))
            counts.add(len(wp))
        best = min(abs(c - target) for c in counts)
        assert abs(len(res.waypoints) - target) == best
        assert res.exact == (best == 0)
        if best <= 2:
            hits += 1
    # pauses make the target reachable within +-2 on most draws
    assert hits >= 8


def _calibration_inputs(rng):
    """Random walks with pauses (runs of zero speed) and gripper flips, a
    joint walk with gripper dims, a lattice walk whose speeds tie over and
    over, and a segmented demo."""
    yield make_random_walk_trajectory(rng, int(rng.integers(2, 80)), pause_prob=float(rng.uniform(0.0, 0.6)))
    joint = make_random_walk_trajectory(rng, int(rng.integers(2, 80)), StateKind.JOINT, joint_dim=4, pause_prob=0.3)
    yield Trajectory.from_columns("j", StateKind.JOINT, 50.0, joint.t, joints=joint.joints, gripper_dims=(3,))
    steps = rng.integers(0, 3, size=(int(rng.integers(2, 60)), 3)).astype(float)
    steps[0] = 0.0
    yield ee_trajectory(np.cumsum(steps, axis=0), grippers=rng.choice([0.0, 0.08], size=len(steps)))
    yield make_segmented_ee_trajectory(rng, n_segments=int(rng.integers(2, 5)))


def test_zero_velocity_sweep_equals_per_threshold_search(rng):
    for _ in range(15):
        for traj in _calibration_inputs(rng):
            for target in sorted({2, len(traj), *rng.integers(2, len(traj) + 1, size=8).tolist()}):
                res = calibrate_to_count(traj, "zero-vel", target)
                threshold, count = oracle_calibrate_zero_velocity(traj, target)
                assert res.config.velocity_threshold == threshold
                assert len(res.waypoints) == count
                assert res.exact == (count == target)
                assert res.waypoints == heuristic_zero_velocity(traj, res.config)


def test_calibrate_ties_toward_smaller_count():
    # T=9: achievable fixed-interval counts are {9,5,4,3,2}; target 7 ties 5 vs 9
    traj = ee_trajectory([(float(t), 0, 0) for t in range(9)])
    res = calibrate_to_count(traj, "fixed", 7)
    assert len(res.waypoints) == 5
    assert not res.exact


def test_calibrate_validates_inputs(rng):
    traj = make_random_walk_trajectory(rng, 10)
    with pytest.raises(ValueError):
        calibrate_to_count(traj, "fixed", 1)
    with pytest.raises(ValueError):
        calibrate_to_count(traj, "fixed", 11)
    with pytest.raises(ValueError, match="unknown method"):
        calibrate_to_count(traj, "nearest", 5)
