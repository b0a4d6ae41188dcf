import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from conftest import ee_state
from oracles import _rotation, oracle_axis_angle_to_quaternion, oracle_canonicalize_quaternion, oracle_state_distance
from waypoint_extraction.baselines import HeuristicConfig, calibrate_to_count, heuristic_fixed_interval
from waypoint_extraction.reconstruction import _row_distances, min_distances_to_polyline
from waypoint_extraction.replay import FollowerConfig, default_follower_config, replay_waypoints
from waypoint_extraction import state_space
from waypoint_extraction.solver import ErrorBudget, WaypointSet, annotate_losses, extract_waypoints_dp, sweep_eta
from waypoint_extraction.state_space import (
    EEState,
    Frame,
    JointState,
    MetricConfig,
    StateKind,
    Trajectory,
    axis_angle_to_quaternion,
    canonicalize_quaternion,
    interpolate,
    quaternion_slerp,
    quaternion_to_axis_angle,
    state_distance,
)
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)


def rotvec_strategy(max_norm=3.0):
    return vec3.map(lambda v: np.asarray(v)).filter(lambda v: np.linalg.norm(v) <= max_norm)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


def test_axis_angle_zero_is_identity():
    q = axis_angle_to_quaternion((0.0, 0.0, 0.0))
    assert np.allclose(q, [1.0, 0.0, 0.0, 0.0])


def test_axis_angle_half_turn_about_x():
    q = axis_angle_to_quaternion((math.pi, 0.0, 0.0))
    assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(rotvec_strategy(max_norm=math.pi - 1e-3))
def test_axis_angle_round_trip(v):
    recovered = quaternion_to_axis_angle(axis_angle_to_quaternion(v))
    assert np.allclose(recovered, v, atol=1e-7)


@settings(max_examples=100, deadline=None)
@given(rotvec_strategy())
def test_axis_angle_matches_scipy(v):
    ours = axis_angle_to_quaternion(v)
    x, y, z, w = Rotation.from_rotvec(np.asarray(v)).as_quat()
    theirs = np.array([w, x, y, z])
    if theirs[0] < 0:
        theirs = -theirs
    assert np.allclose(ours, theirs, atol=1e-9)


def test_constructed_states_are_canonical(rng):
    for _ in range(50):
        q = rng.normal(size=4)
        state = EEState(rng.normal(size=3), q, 0.0)
        assert abs(np.linalg.norm(state.orientation) - 1.0) < 1e-9
        assert state.orientation[0] >= 0.0


def test_zero_quaternion_rejected():
    with pytest.raises(ValueError):
        EEState(np.zeros(3), np.zeros(4))


def _rotation_vectors(rng) -> np.ndarray:
    """80,000 random rotation vectors, 16,000 at each of five scales from
    1e-6 to 3 rad, then the zero vector and angles just around pi and 2 pi."""
    scales = np.repeat([1e-6, 1e-3, 0.1, 1.0, 3.0], 16_000)[:, None]
    axes = rng.normal(size=(5, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    edges = [axes * (c + d) for c in (math.pi, 2 * math.pi) for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
    return np.concatenate([rng.normal(size=(80_000, 3)) * scales, np.zeros((1, 3)), *edges])


def test_vectorized_exp_map_is_the_scalar_map_bit_for_bit(rng):
    vectors = _rotation_vectors(rng)
    once = np.array([oracle_axis_angle_to_quaternion(v) for v in vectors])
    twice = np.array([oracle_canonicalize_quaternion(q) for q in once])
    assert not np.array_equal(once, twice)  # canonicalization is not idempotent bit for bit
    # a trajectory canonicalizes the exp map a second time, as EEState does
    traj = Trajectory.from_columns("exp", StateKind.EE, 50.0, np.arange(len(vectors)), pos=np.zeros_like(vectors),
                                   grip=np.zeros(len(vectors)), axis_angle=vectors)
    assert traj.quat.tobytes() == twice.tobytes()
    sample = np.linspace(0, len(vectors) - 1, 400).astype(int)
    assert np.array([axis_angle_to_quaternion(v) for v in vectors[sample]]).tobytes() == once[sample].tobytes()
    assert np.array([canonicalize_quaternion(q) for q in once[sample]]).tobytes() == twice[sample].tobytes()


def _scipy_slerp(qa, qb, u: float) -> Rotation:
    """scipy's slerp of two (w, x, y, z) quaternions at u."""
    return Slerp([0.0, 1.0], Rotation.from_quat(np.stack([qa, qb])[:, [1, 2, 3, 0]]))([u])[0]


def test_quaternion_slerp_takes_the_shorter_arc_as_scipy_does(rng):
    for _ in range(40):
        qa, qb = (canonicalize_quaternion(rng.normal(size=4)) for _ in range(2))
        if np.dot(qa, qb) >= 0.0:
            qb = -qb  # the same rotation; the longer arc runs from qa to qb
        u = float(rng.uniform())
        ours = quaternion_slerp(qa, qb, u)
        assert ours[0] >= 0.0
        assert (Rotation.from_quat(ours[[1, 2, 3, 0]]).inv() * _scipy_slerp(qa, qb, u)).magnitude() < 1e-9


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_quaternion_slerp_of_nearly_parallel_ends_lerps_as_scipy_slerps(sign):
    qa = axis_angle_to_quaternion([0.1, 0.2, 0.3])
    qb = sign * axis_angle_to_quaternion([0.1, 0.2, 0.3 + 1e-7])
    assert 1.0 - abs(np.dot(qa, qb)) < 1e-12  # the lerp branch
    for u in (0.0, 0.25, 0.5, 1.0):
        ours = quaternion_slerp(qa, qb, u)
        assert ours[0] >= 0.0 and abs(np.linalg.norm(ours) - 1.0) < 1e-15
        assert (Rotation.from_quat(ours[[1, 2, 3, 0]]).inv() * _scipy_slerp(qa, qb, u)).magnitude() < 1e-12


def test_canonicalize_is_the_scalar_form_bit_for_bit(rng):
    quats = rng.normal(size=(2000, 4)) * rng.choice([1e-6, 1.0, 1e6], size=(2000, 1))
    quats[:5, 0] = [0.0, -0.0, 5e-324, -5e-324, -1e-300]
    for q in quats:
        assert canonicalize_quaternion(q).tobytes() == oracle_canonicalize_quaternion(q).tobytes()
    # a strided row is normalized as the contiguous copy np.linalg.norm takes
    strided = np.asfortranarray(quats)[7]
    assert not strided.flags.c_contiguous
    assert canonicalize_quaternion(strided).tobytes() == oracle_canonicalize_quaternion(strided).tobytes()
    for bad in (np.zeros(4), np.array([np.nan, 0, 0, 0]), np.array([np.inf, 1, 0, 0]), np.full(4, 1e-9)):
        with pytest.raises(ValueError, match="zero or non-finite"):
            canonicalize_quaternion(bad)


def test_overflowing_rotation_vector_is_rejected_quietly():
    out_of_range = r"must be finite and at most 2\*\*250 in magnitude, got "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^axis-angle vector " + out_of_range + r"1e\+308 at axis-angle vector\[0\]$"):
            axis_angle_to_quaternion([1e308, 1e308, 0.0])
        with pytest.raises(ValueError, match=r"^axis_angle " + out_of_range + r"1e\+308 at axis_angle\[1, 0\]$"):
            Trajectory.from_columns("o", StateKind.EE, 50.0, [0, 1, 2], pos=np.zeros((3, 3)), grip=np.zeros(3),
                                    axis_angle=[[0.0, 0.0, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 0.0]])
        # an angle whose square stays finite, but past the range
        with pytest.raises(ValueError, match=r"^axis-angle vector " + out_of_range + r"1e\+150 at axis-angle vector\[0\]$"):
            axis_angle_to_quaternion([1e150, 0.0, 0.0])
    # an angle within the range still maps
    assert np.all(np.isfinite(axis_angle_to_quaternion([1e70, 0.0, 0.0])))


def test_the_range_bound_is_inclusive():
    edge, past = 2.0**250, float(np.nextafter(2.0**250, math.inf))
    assert Trajectory.from_columns("r", StateKind.JOINT, 50.0, [0, 1], joints=[[edge], [-edge]]).joints[1, 0] == -edge
    with pytest.raises(ValueError, match=r"^joints must be finite and at most 2\*\*250 in magnitude, got .* at joints\[1, 0\]$"):
        Trajectory.from_columns("r", StateKind.JOINT, 50.0, [0, 1], joints=[[edge], [-past]])
    assert MetricConfig(position_weight=edge, joint_mask=(edge,)).position_weight == edge
    for cfg in (dict(position_weight=past), dict(gripper_weight=past), dict(joint_mask=(1.0, past))):
        with pytest.raises(ValueError, match=r"must be finite, >= 0 and at most 2\*\*250, got "):
            MetricConfig(**cfg)


def test_the_ends_of_the_range_solve_and_replay_quietly():
    # coordinates and weights at the bound, spans near underflow, budgets up to the largest float
    big, rng = state_space._RANGE, np.random.default_rng(0)
    joints = rng.choice([-big, big, 0.0, 1e-160, 5e-324], size=(14, 8))
    joints[3] = joints[2] + 1e-162
    ends = rng.choice([-big, big, 0.0, 1e-160], size=(14, 7))
    cases = [
        (Trajectory.from_columns("j", StateKind.JOINT, 50.0, range(14), joints=joints),
         [MetricConfig(joint_mask=(big,) * 8), MetricConfig(joint_mask=(big, 0.0) * 4)]),
        (Trajectory.from_columns("e", StateKind.EE, 50.0, range(14), pos=ends[:, :3], axis_angle=ends[:, 3:6],
                                 grip=ends[:, 6]),
         [MetricConfig(position_weight=big, orientation_weight=big, include_gripper=True, gripper_weight=big),
          MetricConfig(position_weight=0.0, orientation_weight=big)]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for traj, metrics in cases:
            for cfg in metrics:
                for eta in (1e-300, 1.0, 2.0**600, sys.float_info.max):
                    wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta, cfg))
                    assert wp.achieved_global_loss <= wp.achieved_segment_loss <= eta
                    report = replay_waypoints(traj, wp, default_follower_config(traj, eta, metric=cfg))
                    assert math.isfinite(report.max_tracking_deviation)


def test_quaternion_whose_norm_overflows_is_rejected_quietly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="zero or non-finite"):
            EEState(np.zeros(3), [1e200, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero or non-finite"):
            canonicalize_quaternion([-1e300, 1e300, 0.0, 0.0])
        # a norm whose square stays finite still normalizes
        assert canonicalize_quaternion([-1e150, 0.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------


def test_interpolate_position_midpoint():
    a = ee_state((0, 0, 0))
    b = ee_state((2, 0, 0))
    mid = interpolate(a, b, 0.5)
    assert np.allclose(mid.position, (1, 0, 0))


def test_interpolate_endpoints_exact():
    a = ee_state((0, 1, 2), (0.1, 0.2, 0.3), 0.5)
    b = ee_state((3, 4, 5), (0.4, 0.5, 0.6), 0.7)
    assert interpolate(a, b, 0.0) is a
    assert interpolate(a, b, 1.0) is b


def _angle(a: EEState, b: EEState) -> float:
    """Rotation angle between the orientations of two states, by scipy."""
    return float((_rotation(a).inv() * _rotation(b)).magnitude())


def test_slerp_halfway_quarter_turn():
    a = ee_state((0, 0, 0), (0, 0, 0))
    b = ee_state((0, 0, 0), (0, 0, math.pi / 2))
    mid = interpolate(a, b, 0.5)
    assert abs(_angle(a, mid) - math.pi / 4) < 1e-9


def test_interpolate_kind_mismatch():
    with pytest.raises(ValueError, match="kind mismatch"):
        interpolate(ee_state((0, 0, 0)), JointState(np.zeros(3)), 0.5)


def test_interpolate_rejects_out_of_range_u():
    a = ee_state((0, 0, 0))
    b = ee_state((1, 0, 0))
    with pytest.raises(ValueError):
        interpolate(a, b, 1.5)


def test_joint_interpolation_componentwise():
    a = JointState(np.array([0.0, 2.0, -1.0]))
    b = JointState(np.array([1.0, 0.0, 3.0]))
    mid = interpolate(a, b, 0.25)
    assert np.allclose(mid.joints, [0.25, 1.5, 0.0])


@settings(max_examples=100, deadline=None)
@given(rotvec_strategy(), rotvec_strategy())
def test_shorter_arc_monotone(v1, v2):
    a = ee_state((0, 0, 0), v1)
    b = ee_state((0, 0, 0), v2)
    total = _angle(a, b)
    angles = [_angle(a, interpolate(a, b, u)) for u in np.linspace(0.0, 1.0, 9)]
    assert all(angles[k + 1] >= angles[k] - 1e-9 for k in range(len(angles) - 1))
    assert all(angle <= total + 1e-9 for angle in angles)


# ---------------------------------------------------------------------------
# state_distance
# ---------------------------------------------------------------------------


def test_distance_identical_states_zero():
    a = ee_state((1, 2, 3), (0.1, 0.2, 0.3), 0.4)
    assert state_distance(a, a) == 0.0


def test_distance_three_four_five():
    a = ee_state((0, 0, 0))
    b = ee_state((0.3, 0, 0.4))
    assert abs(state_distance(a, b) - 0.5) < 1e-12


def test_distance_quarter_turn():
    a = ee_state((0, 0, 0), (0, 0, 0))
    b = ee_state((0, 0, 0), (math.pi / 2, 0, 0))
    assert abs(state_distance(a, b) - math.pi / 2) < 1e-9


def test_gripper_excluded_by_default():
    a = ee_state((0, 0, 0), gripper=0.0)
    b = ee_state((0, 0, 0), gripper=0.08)
    assert state_distance(a, b) == 0.0
    cfg = MetricConfig(include_gripper=True, gripper_weight=2.0)
    assert abs(state_distance(a, b, cfg) - 0.16) < 1e-12


@settings(max_examples=100, deadline=None)
@given(vec3, rotvec_strategy(), vec3, rotvec_strategy(), vec3)
def test_distance_symmetric_and_translation_invariant(p1, v1, p2, v2, shift):
    a = ee_state(p1, v1)
    b = ee_state(p2, v2)
    d = state_distance(a, b)
    assert d >= 0.0
    assert abs(d - state_distance(b, a)) < 1e-12
    offset = np.asarray(shift)
    a2 = EEState(a.position + offset, a.orientation, a.gripper)
    b2 = EEState(b.position + offset, b.orientation, b.gripper)
    assert abs(d - state_distance(a2, b2)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    vec3,
    st.tuples(finite, finite, finite, finite).filter(lambda q: np.linalg.norm(q) > 1e-3),
    st.floats(min_value=0.0, max_value=0.1),
    st.lists(finite, min_size=1, max_size=9),
)
def test_distance_to_itself_is_exactly_zero(p, q, grip, joints):
    cfg = MetricConfig(include_gripper=True, gripper_weight=3.0)
    x = EEState(p, q, grip)
    assert state_distance(x, x, cfg) == 0.0
    assert state_distance(x, EEState(p, -np.asarray(q), grip), cfg) == 0.0
    y = JointState(np.asarray(joints))
    assert state_distance(y, y) == 0.0


@settings(max_examples=50, deadline=None)
@given(vec3, rotvec_strategy(), vec3, rotvec_strategy())
def test_distance_matches_scipy_oracle(p1, v1, p2, v2):
    a = ee_state(p1, v1)
    b = ee_state(p2, v2)
    # arccos amplifies ulp-level dot differences to ~sqrt(eps) of angle when
    # the rotations are nearly identical, so 1e-9 would be tighter than the
    # representations allow
    assert abs(state_distance(a, b) - oracle_state_distance(a, b)) < 1e-7


def test_joint_distance_with_mask():
    a = JointState(np.array([0.0, 0.0, 0.0]))
    b = JointState(np.array([1.0, 2.0, 2.0]))
    assert abs(state_distance(a, b) - 3.0) < 1e-12
    cfg = MetricConfig(joint_mask=(1.0, 0.0, 0.0))
    assert abs(state_distance(a, b, cfg) - 1.0) < 1e-12


def test_joint_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        state_distance(JointState(np.zeros(3)), JointState(np.zeros(4)))


@pytest.mark.parametrize("kind", ["ee-with-gripper", "masked-joints"])
def test_one_metric_for_the_kernel_the_scalar_api_and_the_follower(rng, kind):
    # kernel row (a, b, b) is a degenerate chord: u = 0, so its reference is frame b
    if kind == "ee-with-gripper":
        traj = make_segmented_ee_trajectory(rng, n_segments=3)
        cfg = MetricConfig(include_gripper=True, gripper_weight=5.0)
    else:
        traj = make_random_walk_trajectory(rng, 150, StateKind.JOINT, joint_dim=5, pause_prob=0.0)
        cfg = MetricConfig(joint_mask=(1.0, 0.0, 2.0, 0.0, 0.5))
    a = np.arange(len(traj) - 1)
    rows = _row_distances(traj, traj, a, a + 1, a + 1, cfg)
    steps = [state_distance(traj.state(i), traj.state(i + 1), cfg) for i in range(len(traj) - 1)]
    assert rows.tolist() == steps
    assert default_follower_config(traj, 0.01, metric=cfg).max_step == 1.5 * float(np.median(steps))


def test_metric_requires_some_weight():
    with pytest.raises(ValueError):
        MetricConfig(position_weight=0.0, orientation_weight=0.0)
    with pytest.raises(ValueError):
        MetricConfig(position_weight=-1.0)


# ---------------------------------------------------------------------------
# frames and trajectories
# ---------------------------------------------------------------------------


def test_trajectory_requires_two_frames():
    with pytest.raises(ValueError, match="at least 2"):
        Trajectory("x", StateKind.EE, 50.0, (Frame(0, ee_state((0, 0, 0))),))


def test_trajectory_time_indices_start_at_zero_and_increase():
    frames = (Frame(1, ee_state((0, 0, 0))), Frame(2, ee_state((1, 0, 0))))
    with pytest.raises(ValueError, match="start at 0"):
        Trajectory("x", StateKind.EE, 50.0, frames)
    frames = (Frame(0, ee_state((0, 0, 0))), Frame(0, ee_state((1, 0, 0))))
    with pytest.raises(ValueError, match="not greater"):
        Trajectory("x", StateKind.EE, 50.0, frames)


def test_trajectory_rejects_mixed_kinds():
    frames = (Frame(0, ee_state((0, 0, 0))), Frame(1, JointState(np.zeros(3))))
    with pytest.raises(ValueError, match="does not match"):
        Trajectory("x", StateKind.EE, 50.0, frames)


def test_trajectory_rejects_joint_dim_change():
    frames = (Frame(0, JointState(np.zeros(3))), Frame(1, JointState(np.zeros(4))))
    with pytest.raises(ValueError, match="joint dimension"):
        Trajectory("x", StateKind.JOINT, 50.0, frames)


def test_states_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ee_state((np.nan, 0, 0))
    with pytest.raises(ValueError, match="finite"):
        JointState(np.array([0.0, np.inf]))


# Columns that do not fit the time axis or each other. Unchecked, each
# would be accepted and fail later, if at all: inside the solver or a
# baseline, with an IndexError.
_MISFIT_COLUMNS = {
    "3 joint rows for 5 frames": (
        dict(state_space="joint", t=range(5), joints=np.zeros((3, 2))), r"joints must have shape \(5, None\)"),
    "2 axis_angle rows for 4 frames": (
        dict(state_space="ee", t=range(4), pos=np.zeros((4, 3)), axis_angle=np.zeros((2, 3)), grip=np.zeros(5)),
        r"axis_angle must have shape \(4, 3\)"),
    "5 grip rows for 4 frames": (
        dict(state_space="ee", t=range(4), pos=np.zeros((4, 3)), axis_angle=np.zeros((4, 3)), grip=np.zeros(5)),
        r"grip must have shape \(4,\)"),
    "3 quat rows for 4 frames": (
        dict(state_space="ee", t=range(4), pos=np.zeros((4, 3)), quat=np.tile([1.0, 0, 0, 0], (3, 1)),
             axis_angle=np.zeros((4, 3)), grip=np.zeros(4)), r"quat must have shape \(4, 4\)"),
    "gripper dim outside the joints": (
        dict(state_space="joint", t=range(4), joints=np.zeros((4, 2)), gripper_dims=(5,)),
        r"gripper_dims \(5,\) must index the 2 joint dims"),
    "1 obs_ref for 3 frames": (
        dict(state_space="joint", t=range(3), obs_ref=["a"], joints=np.zeros((3, 2))), "obs_ref has 1 entries for 3 frames"),
}


@pytest.mark.parametrize("case", list(_MISFIT_COLUMNS))
def test_from_columns_rejects_columns_that_do_not_fit(case):
    kwargs, message = _MISFIT_COLUMNS[case]
    with pytest.raises(ValueError, match=message):
        Trajectory.from_columns("x", frequency_hz=50.0, **kwargs)


def _walk():
    return make_random_walk_trajectory(np.random.default_rng(0), 6)


# (constructor call, message): every finite, positive and count check goes
# through state_space._finite_scalar or _count. A fractional count is
# refused, not truncated (2.9 would run as 2).
_BAD_SCALARS = {
    "control_multiplier 2.9": (lambda: FollowerConfig(max_step=0.1, control_multiplier=2.9),
                               r"control_multiplier must be an integer >= 1, got 2\.9"),
    "fixed_interval 1.5": (lambda: HeuristicConfig(fixed_interval=1.5), r"fixed_interval must be an integer >= 1, got 1\.5"),
    "interval 1.5": (lambda: heuristic_fixed_interval(_walk(), 1.5), r"interval must be an integer >= 1, got 1\.5"),
    "tick_limit nan": (lambda: FollowerConfig(max_step=0.1, tick_limit=math.nan), "tick_limit must be an integer >= 1, got nan"),
    "fixed_interval -1": (lambda: HeuristicConfig(fixed_interval=-1), "fixed_interval must be an integer >= 1, got -1"),
    "tick_limit 0": (lambda: FollowerConfig(max_step=0.1, tick_limit=0), "tick_limit must be an integer >= 1, got 0"),
    "max_step 0": (lambda: FollowerConfig(max_step=0.0), "max_step must be a positive finite scalar"),
    "max_step nan": (lambda: FollowerConfig(max_step=math.nan), "max_step must be a positive finite scalar"),
    "reach_tolerance -1": (lambda: FollowerConfig(max_step=0.1, reach_tolerance=-1.0),
                           "reach_tolerance must be finite and >= 0"),
    "eta 0": (lambda: ErrorBudget(0), "eta must be a positive finite scalar"),
    # a budget is read by ErrorBudget's rule wherever it is held
    "eta_used 0": (lambda: WaypointSet((0, 1), eta_used=0.0), "eta_used must be a positive finite scalar"),
    "follower eta -1": (lambda: default_follower_config(_walk(), -1.0), "eta must be a positive finite scalar"),
    "sweep eta nan": (lambda: sweep_eta(_walk(), [0.1, math.nan]), "every eta must be a positive finite scalar"),
    "achieved loss -1": (lambda: WaypointSet((0, 1), achieved_global_loss=-1),
                         "achieved_global_loss must be finite and >= 0"),
    "position_weight nan": (lambda: MetricConfig(position_weight=math.nan), "position_weight must be finite and >= 0"),
    "joint_mask weight -1": (lambda: MetricConfig(joint_mask=(1.0, -1.0)), "joint_mask weights must be finite and >= 0"),
    "velocity_threshold -1": (lambda: HeuristicConfig(velocity_threshold=-1), "velocity_threshold must be finite and >= 0"),
    "frequency_hz 0": (lambda: Trajectory.from_columns("x", "joint", 0, range(2), joints=np.zeros((2, 1))),
                       "frequency_hz must be a positive finite scalar"),
}


@pytest.mark.parametrize("case", list(_BAD_SCALARS))
def test_scalar_and_count_fields_are_checked_by_name(case):
    call, message = _BAD_SCALARS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_whole_counts_are_kept_as_ints():
    cfg = FollowerConfig(max_step=0.1, control_multiplier=2.0, tick_limit=np.int64(7))
    assert (cfg.control_multiplier, cfg.tick_limit) == (2, 7)
    assert type(cfg.control_multiplier) is int and type(cfg.tick_limit) is int
    assert HeuristicConfig(fixed_interval=3.0).fixed_interval == 3
    assert heuristic_fixed_interval(_walk(), 2.0).indices == (0, 2, 4, 5)


def _joint_columns(t=None, **kwargs):
    return Trajectory.from_columns("x", "joint", 50.0, range(len(kwargs["joints"])) if t is None else t, **kwargs)


# (call, message): inputs that once reached a hand-written copy of a shared
# check and were truncated (an index of 2.7 scored as 2) or failed without
# naming the field (OverflowError, NumPy's inhomogeneous-shape error).
_FOLDED_CHECKS = {
    "waypoint index 1.5": (lambda: WaypointSet((0, 1.5, 3)), r"waypoint indices must be an integer >= 0, got 1\.5"),
    "annotated index 2.7": (lambda: annotate_losses(_walk(), (0, 2.7, 5)),
                            r"waypoint indices must be an integer >= 0, got 2\.7"),
    "target_count 2.9": (lambda: calibrate_to_count(_walk(), "fixed", 2.9), r"target_count must be an integer >= 2, got 2\.9"),
    "gripper dim 1.5 in columns": (lambda: _joint_columns(joints=np.zeros((3, 4)), gripper_dims=(1.5,)),
                                   r"gripper_dims entries must be an integer >= 0, got 1\.5"),
    "gripper dim 1.5 in a state": (lambda: JointState(np.zeros(4), (1.5,)),
                                   r"gripper_dims entries must be an integer >= 0, got 1\.5"),
    "gripper dim 4 in a 4-joint state": (lambda: JointState(np.zeros(4), (4,)),
                                         r"gripper_dims \(4,\) must index the 4 joint dims"),
    "position_weight 10**400": (lambda: MetricConfig(position_weight=10**400), "position_weight must be finite and >= 0"),
    "t 1.5": (lambda: _joint_columns(joints=np.zeros((3, 2)), t=[0, 1.5, 2.7]),
              r"t\[1\] must be an integer within 64 bits, got 1\.5"),
    "t as text": (lambda: _joint_columns(joints=np.zeros((3, 2)), t=[0, "1", "2"]),
                  r"t\[1\] must be an integer within 64 bits, got '1'"),
    "t 2**70": (lambda: _joint_columns(joints=np.zeros((3, 2)), t=[0, 1, 2**70]),
                r"t\[2\] must be an integer within 64 bits, got 1180591620717411303424"),
    "1-D joints": (lambda: Trajectory.from_columns("x", "joint", 50.0, range(5), joints=np.zeros(5)),
                   r"joints must have shape \(5, None\) \(None: any length\), got \(5,\)"),
    "ragged joints": (lambda: _joint_columns(joints=[[0.0, 1.0], [1.0]]),
                      r"joints must be finite numbers of shape \(2, None\) \(None: any length\)"),
    "ragged polyline joints": (lambda: min_distances_to_polyline({"joints": [[0.0, 1.0], [1.0]]},
                                                                 _joint_columns(joints=np.zeros((3, 2)))),
                               r"joints must be finite numbers of shape \(2, None\) \(None: any length\)"),
}


@pytest.mark.parametrize("case", list(_FOLDED_CHECKS))
def test_folded_checks_refuse_with_a_named_value_error(case):
    call, message = _FOLDED_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_integral_time_indices_are_kept_as_ints():
    for t in ([0.0, 1.0, 5.0], np.array([0, 1, 5], dtype=np.uint8), [False, True, 5]):
        traj = _joint_columns(joints=np.zeros((3, 2)), t=t)
        assert traj.t.dtype == np.int64 and traj.t.tolist() == [0, 1, 5]


def test_counts_are_not_bounded_by_the_float_range():
    huge = 10**400
    cfg = FollowerConfig(max_step=0.1, control_multiplier=huge, tick_limit=huge + 1)
    assert (cfg.control_multiplier, cfg.tick_limit) == (huge, huge + 1)
    assert WaypointSet((0, huge)).indices == (0, huge)
    assert _joint_columns(joints=np.zeros((3, 4)), gripper_dims=(3.0,)).gripper_dims == (3,)


_KIND_PAIRS = {
    "ee, joint": ((None, 3), "^state-space kind mismatch: ee vs joint$"),
    "joint, ee": ((3, None), "^state-space kind mismatch: joint vs ee$"),
    "joint widths": ((3, 4), "^joint dimension mismatch: 3 vs 4$"),
}
_KIND_CALLS = {
    "interpolate": lambda x, y: interpolate(x.state(0), y.state(1), 0.5),
    "state_distance": lambda x, y: state_distance(x.state(0), y.state(1)),
    "min_distances_to_polyline": lambda x, y: min_distances_to_polyline(x.state_columns, y),
}


@pytest.mark.parametrize("call", list(_KIND_CALLS))
@pytest.mark.parametrize("pair", list(_KIND_PAIRS))
def test_state_kind_checks_agree(call, pair):
    # one owner, state_space._check_same_kind, names a kind or width fault
    # alike for states and for state columns
    widths, message = _KIND_PAIRS[pair]
    x, y = (make_random_walk_trajectory(np.random.default_rng(0), 4) if width is None else
            make_random_walk_trajectory(np.random.default_rng(0), 4, StateKind.JOINT, joint_dim=width)
            for width in widths)
    with pytest.raises(ValueError, match=message):
        _KIND_CALLS[call](x, y)


@pytest.mark.parametrize("obs_ref, message", [
    ([1, 2.5, None], r"^obs_ref\[0\] must be a string or None, got 1$"),
    (["a", 2.5, None], r"^obs_ref\[1\] must be a string or None, got 2.5$"),
    ([None, None, b"c"], r"^obs_ref\[2\] must be a string or None, got b'c'$"),
])
def test_from_columns_refuses_obs_refs_a_file_cannot_hold(obs_ref, message):
    # save_trajectory would write them, and load_trajectory refuse the file
    with pytest.raises(ValueError, match=message):
        Trajectory.from_columns("x", "joint", 10.0, [0, 1, 2], obs_ref=obs_ref, joints=[[0.0], [1.0], [2.0]])
    traj = Trajectory.from_columns("x", "joint", 10.0, [0, 1, 2], obs_ref=["a", None, "c"], joints=[[0.0], [1.0], [2.0]])
    assert traj.obs_ref == ("a", None, "c")
