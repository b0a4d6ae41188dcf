import pytest

from conftest import ee_trajectory
from waypoint_extraction.replay import (
    FollowerConfig,
    default_follower_config,
    max_deviation_from_polyline,
    replay_waypoints,
)
from waypoint_extraction.reconstruction import SegmentScorer, min_distances_to_polyline
from waypoint_extraction.solver import ErrorBudget, WaypointSet, extract_waypoints_dp
from waypoint_extraction.state_space import MetricConfig, StateKind
from waypoint_extraction.synthetic import make_random_walk_trajectory


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
        anchors = [traj.frames[i].state for i in wp.indices]
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
    assert report.executed_path[0] is traj.frames[0].state
    assert report.ticks_used == len(report.executed_path) - 1
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
    anchors = [f.state for f in traj.frames]
    assert max_deviation_from_polyline(anchors, anchors) < 1e-12


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
    states = [f.state for f in traj.frames]
    calls = [
        lambda: SegmentScorer(traj, metric),
        lambda: default_follower_config(traj, 0.01, metric=metric),
        lambda: min_distances_to_polyline(states, traj, metric),
        lambda: min_distances_to_polyline(states, states, metric),
        lambda: max_deviation_from_polyline(states, traj, metric),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
