import dataclasses

import numpy as np
import pytest

from conftest import ee_trajectory, sub_trajectory
from oracles import oracle_replay
from waypoint_extraction.baselines import calibrate_to_count
from waypoint_extraction.replay import (
    FollowerConfig,
    default_follower_config,
    max_deviation_from_polyline,
    replay_waypoints,
)
from waypoint_extraction.reconstruction import SegmentScorer, min_distances_to_polyline
from waypoint_extraction.solver import ErrorBudget, WaypointSet, extract_waypoints_dp
from waypoint_extraction.state_space import MetricConfig, StateKind
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def straight_line(n=11):
    return ee_trajectory([(0.1 * t, 0, 0) for t in range(n)])


def test_straight_line_generous_step():
    traj = straight_line()
    cfg = FollowerConfig(max_step=0.5, reach_tolerance=1e-9, control_multiplier=10)
    report = replay_waypoints(traj, WaypointSet((0, 10)), cfg)
    assert report.reached_final
    assert all(report.per_waypoint_reached)
    assert report.max_tracking_deviation <= cfg.reach_tolerance + cfg.max_step


def test_control_multiplier_rescues_slow_follower():
    traj = straight_line()  # distance 1.0 over a 10-frame span
    per_tick_requirement = 0.1
    slow = FollowerConfig(max_step=0.9 * per_tick_requirement, reach_tolerance=1e-6, control_multiplier=1)
    fast = FollowerConfig(max_step=0.9 * per_tick_requirement, reach_tolerance=1e-6, control_multiplier=10)
    wp = WaypointSet((0, 10))
    assert not replay_waypoints(traj, wp, slow).reached_final
    assert replay_waypoints(traj, wp, fast).reached_final


def test_blocking_mode_ignores_budget():
    traj = straight_line()
    cfg = FollowerConfig(max_step=0.01, reach_tolerance=1e-6, control_multiplier=1, blocking=True)
    report = replay_waypoints(traj, WaypointSet((0, 10)), cfg)
    assert report.reached_final
    assert report.ticks_used == 100


def test_tick_limit_exhaustion_reports_not_raises():
    traj = straight_line()
    cfg = FollowerConfig(max_step=0.001, reach_tolerance=1e-9, control_multiplier=1, tick_limit=5, blocking=True)
    report = replay_waypoints(traj, WaypointSet((0, 10)), cfg)
    assert not report.reached_final
    assert report.ticks_used == 5


def test_all_frames_tracks_within_step_bound(rng):
    traj = make_random_walk_trajectory(rng, 12, pause_prob=0.0)
    cfg = FollowerConfig(max_step=0.2, reach_tolerance=0.05, control_multiplier=10)
    report = replay_waypoints(traj, WaypointSet(tuple(range(12))), cfg)
    assert report.max_tracking_deviation <= cfg.reach_tolerance + cfg.max_step


def test_halving_step_and_tolerance_tightens_polyline_tracking(rng):
    for _ in range(5):
        traj = make_random_walk_trajectory(rng, 15, pause_prob=0.0)
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.5))
        anchors = sub_trajectory(traj, wp.indices)
        base = FollowerConfig(max_step=0.3, reach_tolerance=0.1, control_multiplier=20)
        halved = FollowerConfig(max_step=0.15, reach_tolerance=0.05, control_multiplier=20)
        dev = max_deviation_from_polyline(
            replay_waypoints(traj, wp, base).executed_path, anchors, base.metric
        )
        dev_halved = max_deviation_from_polyline(
            replay_waypoints(traj, wp, halved).executed_path, anchors, halved.metric
        )
        assert dev_halved <= dev + 2 * base.max_step


def test_replay_deterministic(rng):
    traj = make_random_walk_trajectory(rng, 14)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.4))
    cfg = default_follower_config(traj, 0.4)
    r1 = replay_waypoints(traj, wp, cfg)
    r2 = replay_waypoints(traj, wp, cfg)
    assert r1.per_waypoint_reached == r2.per_waypoint_reached
    assert r1.ticks_used == r2.ticks_used
    assert r1.max_tracking_deviation == r2.max_tracking_deviation


def test_executed_path_starts_at_frame_zero(rng):
    traj = make_random_walk_trajectory(rng, 10)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.5))
    report = replay_waypoints(traj, wp, default_follower_config(traj))
    path = report.executed_path
    assert set(path) == {"pos", "quat", "grip"}
    for name, column in path.items():
        assert np.array_equal(column[0], getattr(traj, name)[0])
        assert len(column) == report.ticks_used + 1
    assert report.ticks_used <= default_follower_config(traj).tick_limit


def test_waypoint_set_must_match_trajectory(rng):
    traj = make_random_walk_trajectory(rng, 10)
    with pytest.raises(ValueError, match="ends at"):
        replay_waypoints(traj, WaypointSet((0, 5)), FollowerConfig(max_step=0.1))


def test_follower_config_validation():
    with pytest.raises(ValueError):
        FollowerConfig(max_step=0.0)
    with pytest.raises(ValueError):
        FollowerConfig(max_step=0.1, reach_tolerance=-1.0)
    with pytest.raises(ValueError):
        FollowerConfig(max_step=0.1, control_multiplier=0)


def test_deviation_from_polyline_zero_for_anchor_points(rng):
    traj = make_random_walk_trajectory(rng, 8)
    assert max_deviation_from_polyline(traj.state_columns, traj) < 1e-12


@pytest.mark.parametrize(
    "kind, metric, message",
    [
        # a joint_mask lets MetricConfig through, but it weighs nothing on an end effector
        (StateKind.EE, MetricConfig(position_weight=0.0, orientation_weight=0.0, joint_mask=(1.0,)),
         "no nonzero end-effector weight"),
        (StateKind.JOINT, MetricConfig(joint_mask=(1.0, 0.0)), "joint_mask has 2 weights"),
    ],
)
def test_scorer_and_replay_reject_the_same_unusable_metrics(rng, kind, metric, message):
    traj = make_random_walk_trajectory(rng, 12, kind, joint_dim=3)
    rows = traj.state_columns
    calls = [
        lambda: SegmentScorer(traj, metric),
        lambda: default_follower_config(traj, 0.01, metric=metric),
        lambda: replay_waypoints(traj, WaypointSet((0, len(traj) - 1)), FollowerConfig(max_step=0.1, metric=metric)),
        lambda: min_distances_to_polyline(rows, traj, metric),
        lambda: max_deviation_from_polyline(rows, traj, metric),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def _follower_family(name, rng):
    """(trajectory, metric, eta) of one adversarial family."""
    T = int(rng.integers(60, 121))
    if name == "segmented":
        return make_segmented_ee_trajectory(rng, n_segments=3), MetricConfig(), 0.005
    if name == "loops":
        s = np.linspace(0.0, 6 * np.pi, T)
        turns = [(0.0, 0.2 * np.cos(a), 0.3 * np.sin(a)) for a in s]
        return ee_trajectory(np.c_[0.1 * np.cos(s), 0.1 * np.sin(s), 0.01 * s], axis_angles=turns), MetricConfig(), 0.01
    if name == "pauses":
        return make_random_walk_trajectory(rng, T, pause_prob=0.35), MetricConfig(), 0.1
    if name == "masked-joints":
        traj = make_random_walk_trajectory(rng, T, StateKind.JOINT, joint_dim=5, pause_prob=0.3)
        return traj, MetricConfig(joint_mask=(1.0, 0.0, 2.0, 0.0, 0.5)), 0.2
    if name == "orientation-only":
        return make_random_walk_trajectory(rng, T), MetricConfig(position_weight=0.0), 0.1
    assert name == "gripper"
    return make_segmented_ee_trajectory(rng, n_segments=3), MetricConfig(include_gripper=True, gripper_weight=5.0), 0.01


@pytest.mark.parametrize("family", ["segmented", "loops", "pauses", "masked-joints", "orientation-only", "gripper"])
def test_closed_form_follower_equals_tick_loop(rng, family):
    traj, metric, eta = _follower_family(family, rng)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta, metric))
    for waypoints in (wp, calibrate_to_count(traj, "fixed", len(wp)).waypoints):
        for multiplier in (1, 2, 10):
            for blocking in (False, True):
                base = default_follower_config(traj, eta, multiplier, blocking, metric)
                short = dataclasses.replace(base, tick_limit=len(traj) // 3)
                for cfg in (base, dataclasses.replace(base, reach_tolerance=0.0), short):
                    report = replay_waypoints(traj, waypoints, cfg)
                    ticks, flags, deviation = oracle_replay(traj, waypoints, cfg)
                    assert (report.ticks_used, report.per_waypoint_reached) == (ticks, flags)
                    assert abs(report.max_tracking_deviation - deviation) <= 1e-12


@pytest.mark.parametrize(
    "length, step, ticks, loop_ticks",
    [
        # 0.8 / 0.1 is 8.0 as computed and 8 * 0.1 == 0.8: 8 ticks, the last
        # with u = 1. A loop that re-measures the distance after every tick
        # is left a rounding residual by its 8th tick and takes a 9th
        (0.8, 0.1, 8, 9),
        # 0.30000000000000004 / 0.1 rounds up to 3.0000000000000004, yet
        # 3 * 0.1 == 0.30000000000000004: 3 ticks, not ceil(quotient) = 4
        (0.1 + 0.2, 0.1, 3, 3),
        # 0.45 / 0.15 is 3.0 as computed, yet 3 * 0.15 == 0.44999999999999996:
        # 4 ticks, not 3, which would stop one rounding short of the target
        (0.45, 0.15, 4, 4),
    ],
)
def test_closed_form_at_knife_edges(length, step, ticks, loop_ticks):
    # with reach_tolerance 0 a segment takes the least n with n * max_step
    # >= d0 as computed, and its last tick lands on the target exactly
    traj = ee_trajectory([(0.0, 0, 0), (length, 0, 0)])
    wp = WaypointSet((0, 1))
    cfg = FollowerConfig(max_step=step, blocking=True)
    report = replay_waypoints(traj, wp, cfg)
    assert (report.ticks_used, report.reached_final) == (ticks, True)
    x = report.executed_path["pos"][:, 0]
    assert x[-1] == length and np.all(np.diff(x) > 0.0)
    assert oracle_replay(traj, wp, cfg)[:2] == (loop_ticks, (True, True))


def test_reached_waypoints_are_exact_in_the_executed_path():
    # with no reach tolerance a reached waypoint's last tick has u == 1, and
    # its row is the waypoint frame: position and gripper bit for bit, the
    # quaternion up to sign. a + 1.0 * (b - a) can miss b in the last bit
    reached = 0
    for seed in range(20):
        traj = make_segmented_ee_trajectory(np.random.default_rng(seed), eta=0.005)
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.005))
        cfg = dataclasses.replace(default_follower_config(traj, 0.005), reach_tolerance=0.0)
        report = replay_waypoints(traj, wp, cfg)
        path = report.executed_path
        for idx in np.array(wp.indices)[list(report.per_waypoint_reached)]:
            quat = path["quat"] * np.sign(path["quat"] @ traj.quat[idx])[:, None]
            rows = (path["pos"] == traj.pos[idx]).all(axis=1) & (path["grip"] == traj.grip[idx])
            assert (rows & (quat == traj.quat[idx]).all(axis=1)).any(), (seed, idx)
            reached += 1
    assert reached > 800


def test_mostly_paused_demo_is_paced_by_its_moving_frames():
    # 60% of the steps are pauses, so the median step is 0
    traj = make_random_walk_trajectory(np.random.default_rng(3), 100, pause_prob=0.6)
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.1))
    cfg = default_follower_config(traj, 0.1)
    report = replay_waypoints(traj, wp, cfg)
    assert len(wp) == 40
    assert report.reached_final and all(report.per_waypoint_reached)
    # an all-static demo has no moving frame and keeps the floor
    static = ee_trajectory([(0.3, 0.2, 0.1)] * 6)
    assert default_follower_config(static, 0.1).max_step == 1e-9
