"""Proprioceptive states, trajectories, and interpolation between states.

A demonstration frame is either an end-effector pose (position, orientation,
gripper width) or a joint vector. Orientations are unit quaternions in
(w, x, y, z) order, stored with a non-negative scalar part so the double
cover never leaks into distances. All types are immutable and every
operation is pure, so values can be shared across worker processes without
synchronization.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateKind",
    "EEState",
    "JointState",
    "State",
    "Frame",
    "Trajectory",
    "MetricConfig",
    "DEFAULT_METRIC",
    "interpolate",
    "state_distance",
    "axis_angle_to_quaternion",
    "quaternion_to_axis_angle",
    "quaternion_slerp",
    "quaternion_geodesic_angle",
    "quaternion_multiply",
    "canonicalize_quaternion",
]


class StateKind(str, enum.Enum):
    """Which proprioceptive space a trajectory lives in."""

    EE = "ee"
    JOINT = "joint"


def _finite_vector(value, length: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have {length} components, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------


def canonicalize_quaternion(q) -> np.ndarray:
    """Normalize a quaternion and flip its sign so the scalar part is >= 0."""
    arr = np.asarray(q, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must have 4 components, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm) or norm < 1e-8:
        raise ValueError("quaternion norm is zero or non-finite")
    arr = arr / norm
    if arr[0] < 0.0:
        arr = -arr
    return arr


def axis_angle_to_quaternion(v) -> np.ndarray:
    """Exponential map from a rotation vector (radians) to a canonical quaternion.

    The zero vector maps to the identity rotation. Uses a series-safe
    evaluation of sin(theta/2)/theta so tiny rotations lose no precision.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"axis-angle vector must have 3 components, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("axis-angle vector must be finite")
    angle = float(np.linalg.norm(vec))
    # np.sinc(x) = sin(pi x)/(pi x), so this is sin(angle/2)/angle
    scale = 0.5 * float(np.sinc(angle / (2.0 * math.pi)))
    q = np.array([math.cos(0.5 * angle), scale * vec[0], scale * vec[1], scale * vec[2]])
    return canonicalize_quaternion(q)


def quaternion_to_axis_angle(q) -> np.ndarray:
    """Log map back to a rotation vector with angle in [0, pi]."""
    quat = canonicalize_quaternion(q)
    sin_half = float(np.linalg.norm(quat[1:]))
    if sin_half < 1e-12:
        # sin(theta/2) ~ theta/2 for tiny rotations
        return 2.0 * quat[1:]
    angle = 2.0 * math.atan2(sin_half, float(quat[0]))
    return (angle / sin_half) * quat[1:]


def quaternion_geodesic_angle(q1, q2) -> float:
    """Rotation angle between two orientations, in [0, pi].

    Kahan's form 4 atan2(|q1 - s q2|, |q1 + s q2|) with s = sign(q1 . q2):
    exactly 0 for equal quaternions and accurate at small angles, where
    2 acos(|q1 . q2|) turns one ulp of the dot product into ~1e-8 rad.
    """
    a = np.asarray(q1, dtype=float).tolist()
    b = np.asarray(q2, dtype=float).tolist()
    minus = math.dist(a, b)
    plus = math.hypot(*map(operator.add, a, b))
    if sum(map(operator.mul, a, b)) < 0.0:
        minus, plus = plus, minus
    return 4.0 * math.atan2(minus, plus)


def quaternion_slerp(qa, qb, u: float) -> np.ndarray:
    """Spherical interpolation along the shorter arc, returned canonical."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        # nearly parallel: lerp and renormalize
        return canonicalize_quaternion(qa + u * (qb - qa))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    out = (math.sin((1.0 - u) * theta) / s) * qa + (math.sin(u * theta) / s) * qb
    return canonicalize_quaternion(out)


def quaternion_multiply(q1, q2) -> np.ndarray:
    """Hamilton product q1 * q2 (not canonicalized)."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EEState:
    """End-effector pose: xyz position (m), orientation, gripper width.

    The orientation is canonicalized at construction (unit norm, scalar part
    >= 0). When the state was built from an axis-angle vector the source
    vector is retained so file round trips reproduce it bit for bit.
    """

    position: np.ndarray
    orientation: np.ndarray
    gripper: float = 0.0
    source_axis_angle: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_vector(self.position, 3, "position"))
        quat = canonicalize_quaternion(self.orientation)
        quat.setflags(write=False)
        object.__setattr__(self, "orientation", quat)
        grip = float(self.gripper)
        if not math.isfinite(grip):
            raise ValueError("gripper must be finite")
        object.__setattr__(self, "gripper", grip)
        if self.source_axis_angle is not None:
            object.__setattr__(
                self, "source_axis_angle", _finite_vector(self.source_axis_angle, 3, "source_axis_angle")
            )

    @classmethod
    def from_axis_angle(cls, position, axis_angle, gripper: float = 0.0) -> "EEState":
        return cls(position, axis_angle_to_quaternion(axis_angle), gripper, source_axis_angle=axis_angle)

    def axis_angle(self) -> np.ndarray:
        """Rotation vector for serialization; prefers the source vector when known."""
        if self.source_axis_angle is not None:
            return self.source_axis_angle
        return quaternion_to_axis_angle(self.orientation)

    @property
    def kind(self) -> StateKind:
        return StateKind.EE


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint-space state: D joint positions (rad), optionally flagging gripper dims."""

    joints: np.ndarray
    gripper_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        joints = _finite_vector(self.joints, None, "joints")
        if joints.shape[0] < 1:
            raise ValueError("joints must have at least one dimension")
        object.__setattr__(self, "joints", joints)
        if self.gripper_dims is not None:
            dims = tuple(int(d) for d in self.gripper_dims)
            if any(d < 0 or d >= joints.shape[0] for d in dims):
                raise ValueError("gripper_dims out of range")
            object.__setattr__(self, "gripper_dims", dims)

    @property
    def dim(self) -> int:
        return int(self.joints.shape[0])

    @property
    def kind(self) -> StateKind:
        return StateKind.JOINT


State = EEState | JointState


def _check_same_kind(a: State, b: State) -> StateKind:
    if a.kind is not b.kind:
        raise ValueError(f"state-space kind mismatch: {a.kind.value} vs {b.kind.value}")
    if isinstance(a, JointState) and a.dim != b.dim:
        raise ValueError(f"joint dimension mismatch: {a.dim} vs {b.dim}")
    return a.kind


# ---------------------------------------------------------------------------
# frames and trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Frame:
    """One timestep: an integer time index, the state, and an opaque
    reference to the external observation recorded alongside it."""

    t: int
    state: State
    obs_ref: str | None = None

    def __post_init__(self):
        t = int(self.t)
        if t < 0:
            raise ValueError("frame time index must be >= 0")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An ordered demonstration: at least two frames of one state kind,
    time indices strictly increasing from 0."""

    name: str
    state_space: StateKind
    frequency_hz: float
    frames: tuple[Frame, ...]

    def __post_init__(self):
        object.__setattr__(self, "state_space", StateKind(self.state_space))
        object.__setattr__(self, "frames", tuple(self.frames))
        freq = float(self.frequency_hz)
        if not (math.isfinite(freq) and freq > 0):
            raise ValueError("frequency_hz must be a positive finite scalar")
        object.__setattr__(self, "frequency_hz", freq)
        if len(self.frames) < 2:
            raise ValueError("trajectory needs at least 2 frames")
        if self.frames[0].t != 0:
            raise ValueError(f"frame 0: time index must start at 0, got {self.frames[0].t}")
        prev_t = -1
        joint_dim = None
        for i, frame in enumerate(self.frames):
            if frame.state.kind is not self.state_space:
                raise ValueError(f"frame {i}: state kind {frame.state.kind.value} does not match "
                                 f"trajectory state space {self.state_space.value}")
            if frame.t <= prev_t:
                raise ValueError(f"frame {i}: t={frame.t} not greater than previous t={prev_t}")
            prev_t = frame.t
            if isinstance(frame.state, JointState):
                if joint_dim is None:
                    joint_dim = frame.state.dim
                elif frame.state.dim != joint_dim:
                    raise ValueError(f"frame {i}: joint dimension {frame.state.dim} differs from {joint_dim}")

    def __len__(self) -> int:
        return len(self.frames)

    def state(self, i: int) -> State:
        return self.frames[i].state

    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.frames], dtype=int)

    def positions(self) -> np.ndarray:
        if self.state_space is not StateKind.EE:
            raise ValueError("positions() is only defined for end-effector trajectories")
        return np.stack([f.state.position for f in self.frames])

    def quaternions(self) -> np.ndarray:
        if self.state_space is not StateKind.EE:
            raise ValueError("quaternions() is only defined for end-effector trajectories")
        return np.stack([f.state.orientation for f in self.frames])

    def grippers(self) -> np.ndarray:
        if self.state_space is not StateKind.EE:
            raise ValueError("grippers() is only defined for end-effector trajectories")
        return np.array([f.state.gripper for f in self.frames])

    def joints(self) -> np.ndarray:
        if self.state_space is not StateKind.JOINT:
            raise ValueError("joints() is only defined for joint-space trajectories")
        return np.stack([f.state.joints for f in self.frames])


# ---------------------------------------------------------------------------
# metric and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricConfig:
    """Weights for the proprioceptive distance.

    End-effector distance is position_weight * |dp| plus orientation_weight
    times the geodesic angle; the gripper term is excluded by default and
    joins with gripper_weight when include_gripper is set. Joint distance is
    an L2 norm with optional per-dimension weights (joint_mask, multiplied
    into each coordinate difference); by default every dimension counts
    equally, gripper dims included.
    """

    position_weight: float = 1.0
    orientation_weight: float = 1.0
    include_gripper: bool = False
    gripper_weight: float = 1.0
    joint_mask: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("position_weight", "orientation_weight", "gripper_weight"):
            w = float(getattr(self, name))
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, w)
        effective = self.position_weight + self.orientation_weight
        if self.include_gripper:
            effective += self.gripper_weight
        if self.joint_mask is not None:
            mask = tuple(float(w) for w in self.joint_mask)
            if any(not math.isfinite(w) or w < 0.0 for w in mask):
                raise ValueError("joint_mask weights must be finite and >= 0")
            if not any(w > 0.0 for w in mask):
                raise ValueError("joint_mask needs at least one nonzero weight")
            object.__setattr__(self, "joint_mask", mask)
        elif effective <= 0.0:
            raise ValueError("metric needs at least one nonzero weight")

    def joint_weights(self, dim: int) -> np.ndarray:
        if self.joint_mask is None:
            return np.ones(dim)
        w = np.asarray(self.joint_mask, dtype=float)
        if w.shape != (dim,):
            raise ValueError(f"joint_mask has {w.shape[0]} weights but states have {dim} dims")
        return w


DEFAULT_METRIC = MetricConfig()


def interpolate(a: State, b: State, u: float) -> State:
    """Interpolate between two states of the same kind.

    Positions and gripper widths interpolate linearly; orientations slerp
    along the shorter arc; joint vectors interpolate componentwise. u=0 and
    u=1 return the input states unchanged.
    """
    _check_same_kind(a, b)
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {u}")
    if u == 0.0:
        return a
    if u == 1.0:
        return b
    if isinstance(a, EEState):
        return EEState(
            a.position + u * (b.position - a.position),
            quaternion_slerp(a.orientation, b.orientation, u),
            a.gripper + u * (b.gripper - a.gripper),
        )
    return JointState(a.joints + u * (b.joints - a.joints), a.gripper_dims)


def state_distance(x: State, y: State, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Proprioceptive distance between two states of the same kind.

    Symmetric, non-negative, and zero exactly when the states agree on every
    component the config weights. Adding a constant offset to both positions
    leaves it unchanged.
    """
    _check_same_kind(x, y)
    if isinstance(x, EEState):
        d = cfg.position_weight * float(np.linalg.norm(x.position - y.position))
        d += cfg.orientation_weight * quaternion_geodesic_angle(x.orientation, y.orientation)
        if cfg.include_gripper:
            d += cfg.gripper_weight * abs(x.gripper - y.gripper)
        return d
    weights = cfg.joint_weights(x.dim)
    return float(np.linalg.norm(weights * (x.joints - y.joints)))
