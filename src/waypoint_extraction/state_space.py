"""Proprioceptive states, trajectories, and interpolation between states.

A demonstration frame is either an end-effector pose (position, orientation,
gripper width) or a joint vector. Orientations are unit quaternions in
(w, x, y, z) order, stored with a non-negative scalar part so the double
cover never leaks into distances. A Trajectory keeps its frames as
read-only columns, one array per component, which the vectorized code reads
directly; Frame and state objects of a trajectory are views of one row,
built on demand for the scalar code paths. All types are immutable and every
operation is pure, so values can be shared across worker processes without
synchronization.
"""

from __future__ import annotations

import enum
import functools
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


def _finite_array(values, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """values as a nonempty, finite, read-only float array of the given shape;
    None in shape matches any length."""
    arr = np.array(values, dtype=float)
    if arr.ndim != len(shape) or arr.size == 0 or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape} (None: any length), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")
def _rownorm(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, k) array, each bit for bit the
    scalar np.linalg.norm of the row. np.linalg.norm takes x.dot(x) of a
    contiguous copy, and np.vecdot runs the same dot on each contiguous row;
    a plain sum of squares differs in the last bit on about one row in ten.
    A norm that overflows comes back inf, quietly. The decorator costs less
    per call than a with block, which shows on one-row calls."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.vecdot(rows, rows))


def _canonical_rows(quats: np.ndarray) -> np.ndarray:
    """canonicalize_quaternion of each row of an (n, 4) array, bit for bit;
    a row whose norm is below 1e-8 or not finite comes back NaN, quietly."""
    norm = _rownorm(quats)
    # min and sum of a list cost less than NumPy reductions on one-row
    # calls. A NaN norm fails the test either way: min returns it from
    # first place, and sum from any other
    norms = norm.tolist()
    if not (min(norms) >= 1e-8 and sum(norms) < math.inf):
        norm = np.where((norm >= 1e-8) & (norm < math.inf), norm, math.nan)
    out = quats / norm[:, None]
    if not min(out[:, 0].tolist()) >= 0.0:  # a NaN row may skip this test, never cause a wrong flip
        np.negative(out, out=out, where=out[:, :1] < 0.0)
    return out


def _exp_rows(vectors: np.ndarray) -> np.ndarray:
    """axis_angle_to_quaternion of each row of a finite (n, 3) array, bit
    for bit; a row whose angle (norm) overflows comes back NaN, quietly."""
    angle = _rownorm(vectors)
    angle[angle == math.inf] = math.nan
    # np.sinc(x) = sin(pi x)/(pi x), so this is sin(angle/2)/angle
    scale = 0.5 * np.sinc(angle / (2.0 * math.pi))
    quats = np.empty((len(angle), 4))
    quats[:, 0] = np.cos(0.5 * angle)
    quats[:, 1:] = scale[:, None] * vectors
    return _canonical_rows(quats)


def _stored_rotations(axis_angle: np.ndarray, where) -> np.ndarray:
    """Orientation rows of finite stored rotation vectors, derived as
    EEState.from_axis_angle derives them: the exponential map, then the
    state's own canonicalization. Raises ValueError naming where(i) for the
    first row i whose angle overflows."""
    quats = _canonical_rows(_exp_rows(axis_angle))
    bad = np.flatnonzero(np.isnan(quats[:, 0]))
    if bad.size:
        raise ValueError(f"{where(int(bad[0]))}: rotation angle overflows (norm is not finite)")
    return quats


def canonicalize_quaternion(q) -> np.ndarray:
    """Normalize a quaternion and flip its sign so the scalar part is >= 0."""
    arr = np.asarray(q, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must have 4 components, got shape {arr.shape}")
    out = _canonical_rows(arr[None])[0]
    if math.isnan(out[0]):
        raise ValueError("quaternion norm is zero or non-finite")
    return out


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
    out = _exp_rows(vec[None])[0]
    if math.isnan(out[0]):
        raise ValueError("axis-angle vector norm overflows")
    return out


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
        object.__setattr__(self, "position", _finite_array(self.position, (3,), "position"))
        quat = canonicalize_quaternion(self.orientation)
        quat.setflags(write=False)
        object.__setattr__(self, "orientation", quat)
        grip = float(self.gripper)
        if not math.isfinite(grip):
            raise ValueError("gripper must be finite")
        object.__setattr__(self, "gripper", grip)
        if self.source_axis_angle is not None:
            object.__setattr__(
                self, "source_axis_angle", _finite_array(self.source_axis_angle, (3,), "source_axis_angle")
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
        joints = _finite_array(self.joints, (None,), "joints")
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


def _state_columns(states) -> dict:
    """pos, quat and grip, or joints, of states of one kind as lists of rows."""
    if states and states[0].kind is StateKind.JOINT:
        return {"joints": [s.joints for s in states]}
    return {"pos": [s.position for s in states], "quat": [s.orientation for s in states],
            "grip": [s.gripper for s in states]}


def _view(cls, **fields):
    """A frozen dataclass instance holding fields as given, without
    __post_init__: canonicalize_quaternion is not idempotent bit for bit."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_STATE_COLUMNS = {StateKind.EE: ("pos", "quat", "grip", "axis_angle"), StateKind.JOINT: ("joints",)}


def _state_views(columns: dict, gripper_dims=None) -> list:
    """One EEState or JointState view per row of state columns keyed as
    Trajectory.state_columns; the views carry the rows unchanged."""
    if "joints" in columns:
        return [_view(JointState, joints=j, gripper_dims=gripper_dims) for j in columns["joints"]]
    return [
        _view(EEState, position=p, orientation=q, gripper=g, source_axis_angle=a)
        for p, q, g, a in zip(columns["pos"], columns["quat"], columns["grip"].tolist(), columns["axis_angle"])
    ]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Trajectory:
    """An ordered demonstration of one state kind, stored as read-only columns.

    Every trajectory has t (time indices, strictly increasing from 0) and
    obs_ref. End-effector trajectories fill pos (T, 3), quat (T, 4, unit,
    scalar part >= 0), grip (T,) and axis_angle (T, 3, the rotation vectors
    a file stores); joint-space ones fill joints (T, D) and gripper_dims.
    The other kind's columns are None. Frame and state objects are views
    built on demand by frames and state(i); they carry the rows unchanged.
    """

    name: str
    state_space: StateKind
    frequency_hz: float
    t: np.ndarray
    obs_ref: tuple[str | None, ...]
    pos: np.ndarray | None = None
    quat: np.ndarray | None = None
    grip: np.ndarray | None = None
    axis_angle: np.ndarray | None = None
    joints: np.ndarray | None = None
    gripper_dims: tuple[int, ...] | None = None

    def __init__(self, name: str, state_space, frequency_hz: float, frames):
        """Stack frames of one state kind; gripper_dims come from the first."""
        kind = StateKind(state_space)
        states = [f.state for f in frames]
        for i, state in enumerate(states):
            if state.kind is not kind:
                raise ValueError(f"frames[{i}]: state kind {state.kind.value} does not match "
                                 f"trajectory state space {kind.value}")
        columns = _state_columns(states)
        if kind is StateKind.EE:
            columns["axis_angle"] = [s.axis_angle() for s in states]
        else:
            columns["gripper_dims"] = states[0].gripper_dims if states else None
        t, obs_ref = [f.t for f in frames], [f.obs_ref for f in frames]
        self.__dict__.update(vars(type(self).from_columns(name, kind, frequency_hz, t, obs_ref, **columns)))

    @classmethod
    def from_columns(cls, name: str, state_space, frequency_hz: float, t, obs_ref=None, pos=None, quat=None,
                     grip=None, axis_angle=None, joints=None, gripper_dims=None) -> "Trajectory":
        """A trajectory owning copies of the given columns, named as above,
        and the one place that validates a trajectory. End effectors need
        pos, grip and axis_angle; quat, when not given as canonical rows, is
        derived from axis_angle bit for bit as EEState.from_axis_angle
        derives it. obs_ref defaults to None."""
        freq = float(frequency_hz)
        if not (math.isfinite(freq) and freq > 0):
            raise ValueError("frequency_hz must be a positive finite scalar")
        if len(t) < 2:
            raise ValueError("trajectory needs at least 2 frames")
        t = np.array(t, dtype=np.int64)
        if t[0] != 0:
            raise ValueError(f"frames[0]: time index must start at 0, got {t[0]}")
        bad = np.flatnonzero(np.diff(t) <= 0) + 1
        if bad.size:
            raise ValueError(f"frames[{bad[0]}]: t={t[bad[0]]} not greater than previous t={t[bad[0] - 1]}")
        t.setflags(write=False)
        obs_ref = (None,) * len(t) if obs_ref is None else tuple(obs_ref)
        fields = dict(name=name, state_space=StateKind(state_space), frequency_hz=freq, t=t, obs_ref=obs_ref)
        if fields["state_space"] is StateKind.EE:
            axis_angle = _finite_array(axis_angle, (None, 3), "axis_angle")
            if quat is None:
                quat = _stored_rotations(axis_angle, "frames[{}].axis_angle".format)
            fields.update(
                pos=_finite_array(pos, (None, 3), "pos"),
                quat=_finite_array(quat, (None, 4), "quat"),
                grip=_finite_array(grip, (None,), "grip"),
                axis_angle=axis_angle,
            )
        else:
            rows = list(joints)
            for i, row in enumerate(rows):
                if len(row) != len(rows[0]):
                    raise ValueError(f"frames[{i}]: joint dimension {len(row)} differs from "
                                     f"the {len(rows[0])} dims of earlier frames")
            fields["joints"] = _finite_array(rows, (None, len(rows[0])), "joints")
            fields["gripper_dims"] = None if gripper_dims is None else tuple(map(int, gripper_dims))
        traj = object.__new__(cls)
        traj.__dict__.update(fields)
        return traj

    def __len__(self) -> int:
        return len(self.t)

    def __reduce__(self):
        """Unpickle through from_columns, so the columns come back read-only
        (NumPy unpickles arrays writeable) and views are rebuilt from them."""
        return type(self).from_columns, (self.name, self.state_space, self.frequency_hz, self.t, self.obs_ref,
                                         self.pos, self.quat, self.grip, self.axis_angle, self.joints,
                                         self.gripper_dims)

    @property
    def state_columns(self) -> dict[str, np.ndarray]:
        """The state columns of this trajectory's kind by name: pos, quat,
        grip and axis_angle, or joints."""
        return {name: getattr(self, name) for name in _STATE_COLUMNS[self.state_space]}

    @functools.cached_property
    def frames(self) -> tuple[Frame, ...]:
        """One Frame view per row, built on first use and then kept."""
        states = _state_views(self.state_columns, self.gripper_dims)
        return tuple(Frame(t, s, ref) for t, s, ref in zip(self.t.tolist(), states, self.obs_ref))

    def state(self, i: int) -> State:
        return self.frames[i].state


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
