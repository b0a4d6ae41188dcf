import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import ee_state
from oracles import oracle_axis_angle_to_quaternion, oracle_canonicalize_quaternion, oracle_state_distance
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
    quaternion_geodesic_angle,
    quaternion_to_axis_angle,
    state_distance,
)

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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            axis_angle_to_quaternion([1e308, 1e308, 0.0])
        with pytest.raises(ValueError, match=r"frames\[1\]\.axis_angle: rotation angle overflows"):
            Trajectory.from_columns("o", StateKind.EE, 50.0, [0, 1, 2], pos=np.zeros((3, 3)), grip=np.zeros(3),
                                    axis_angle=[[0.0, 0.0, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 0.0]])
    # an angle whose square stays finite still maps
    assert np.all(np.isfinite(axis_angle_to_quaternion([1e150, 0.0, 0.0])))


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


def test_slerp_halfway_quarter_turn():
    a = ee_state((0, 0, 0), (0, 0, 0))
    b = ee_state((0, 0, 0), (0, 0, math.pi / 2))
    mid = interpolate(a, b, 0.5)
    assert abs(quaternion_geodesic_angle(a.orientation, mid.orientation) - math.pi / 4) < 1e-9


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
    total = quaternion_geodesic_angle(a.orientation, b.orientation)
    angles = [
        quaternion_geodesic_angle(a.orientation, interpolate(a, b, u).orientation)
        for u in np.linspace(0.0, 1.0, 9)
    ]
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
