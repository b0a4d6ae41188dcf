"""Proprioceptive states, trajectories, and the metric and interpolation.

A demonstration frame is either an end-effector pose (position, orientation,
gripper width) or a joint vector. Orientations are unit quaternions in
(w, x, y, z) order, stored with a non-negative scalar part so the double
cover never leaks into distances. A Trajectory keeps its frames as
read-only columns, one array per component, which the vectorized code reads
directly; Frame and state objects of a trajectory are views of one row,
built on demand for the scalar code paths. _distance_rows and
_interpolate_rows define the metric and the interpolation on rows of
columns; state_distance and interpolate are one-row calls of them. All
types are immutable and every operation is pure, so values can be shared
across worker processes without synchronization.
"""

from __future__ import annotations

import enum
import functools
import math
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
    "quaternion_multiply",
    "canonicalize_quaternion",
]


class StateKind(str, enum.Enum):
    """Which proprioceptive space a trajectory lives in."""

    EE = "ee"
    JOINT = "joint"


# The numeric range. Every state coordinate (_finite_array) and every
# MetricConfig weight and joint_mask entry is at most _RANGE = 2**250 in
# magnitude, so every weighted coordinate is at most 2**500. Then, for a
# joint width d below 2**21, no intermediate of _distance_rows,
# _interpolate_rows or reconstruction's _row_distances, _reach_horizon and
# _nearest_chord overflows (eps = 2**-50 covers each step's rounding):
# - a point of a chord (a + u (b - a), u in [0, 1]) or a midpoint stays
#   within the range of its ends times (1 + eps). So a weighted difference,
#   w (x - y) or Y - Y' with both sides such points, is at most
#   2**501 (1 + eps), and its square at most 2**1002 (1 + eps).
# - The worst intermediate is a sum of d such squares, a norm before its
#   root: at most d 2**1002 (1 + eps) (1 + d 2**-53) < 2**1023 (1 + 2**-30),
#   below 2**1024, the overflow threshold. Every norm, distance, half-length
#   and rounding margin is the root of one such sum times a constant within
#   the range (a weight, 4 asin, d + 16), or a sum of three of those.
# - _row_distances projects unweighted rows: each term of its two dot
#   products is at most 2**502 (1 + eps). Its denominator, when not 0, is at
#   least half its largest term s**2 >= 2**-1075, so |s| >= 2**-538, and the
#   quotient is at most d 2**251 (1 + eps) |s| / (s**2 / 2) plus 4 d for
#   terms that underflow: below d 2**791 before the clip to [0, 1].
# - Quaternions are unit rows, and a rotation vector's angle is at most
#   sqrt(3) 2**250, so the exponential map and slerp stay finite.
# The budget eta is not in the range: it enters only comparisons and
# _reach_horizon's Python-float radius, which rounds to inf quietly.
_RANGE = 2.0**250


class _RangeError(ValueError):
    """A value that is not finite or is past _RANGE: args are the message
    and the value's index in its array."""

    def __str__(self) -> str:
        return self.args[0]


def _finite_array(values, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """values as a nonempty, read-only float array of the given shape, each
    value finite and within _RANGE; None in shape matches any length."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged rows, a non-number, an integer beyond floats
        raise ValueError(f"{name} must be finite numbers of shape {shape} (None: any length)") from None
    if arr.ndim != len(shape) or arr.size == 0 or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape} (None: any length), got {arr.shape}")
    inside = np.abs(arr) <= _RANGE  # False for NaN and infinities too
    if not inside.all():
        at = tuple(np.argwhere(~inside)[0].tolist())
        where = f" at {name}{list(at)}" if at else ""
        raise _RangeError(f"{name} must be finite and at most 2**250 in magnitude, got {arr[at].item()!r}{where}", at)
    arr.setflags(write=False)
    return arr


def _int_array(values, rows: int | None, name: str) -> np.ndarray:
    """values as a read-only int64 array of shape (rows,), None matching any
    length. Each value must be an integer as _count reads one: a fractional,
    NaN, infinite or non-numeric value is refused, not truncated or parsed,
    and so is one beyond 64 bits."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "bi":  # floats, strings or integers beyond int64: read each value as given
        arr = np.asarray(values, dtype=object)
    if arr.ndim != 1 or rows not in (None, len(arr)):
        raise ValueError(f"{name} must have shape ({rows},), got {arr.shape}")
    if arr.dtype == object:
        for k, v in enumerate(arr.tolist()):  # nan and inf fail v % 1 == 0
            if not (isinstance(v, (int, float)) and v % 1 == 0 and -2**63 <= v < 2**63):
                raise ValueError(f"{name}[{k}] must be an integer within 64 bits, got {_quoted(v)}")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _time_fault(t: np.ndarray) -> tuple[int, str] | None:
    """(row, problem) for the first row of the time indices t that breaks
    their rule, shared by trajectories and relabeled rows: t starts at 0 and
    increases strictly. None when t keeps it."""
    if len(t) and t[0] != 0:
        return 0, f"time index must start at 0, got {t[0]}"
    bad = np.flatnonzero(np.diff(t) <= 0) + 1
    if not bad.size:
        return None
    k = int(bad[0])
    return k, f"t={t[k]} not greater than previous t={t[k - 1]}"


def _finite_scalar(value, name: str, positive: bool = False) -> float:
    """value as a float that is finite and >= 0, or > 0 when positive."""
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        raise ValueError(f"{name} must be a positive finite scalar" if positive else f"{name} must be finite and >= 0")
    return v


def _quoted(value) -> str:
    """repr(value) for an error message, cut to its first 24 characters when
    longer than 32, so that a value read from a file (a 10**400, a long
    string) cannot flood the message."""
    text = repr(value)
    return text if len(text) <= 32 else f"{text[:24]}... ({len(text)} characters)"


def _count(value, name: str, least: int = 1) -> int:
    """value as an integer >= least, however large; a fractional, NaN or
    infinite value is refused, not truncated."""
    if not (value >= least and value % 1 == 0):  # nan fails the comparison, and inf % 1 is nan
        raise ValueError(f"{name} must be an integer >= {least}, got {_quoted(value)}")
    return int(value)


def _gripper_dims(dims, width: int) -> tuple[int, ...] | None:
    """gripper_dims as a tuple of indices of the width joint dims, or None."""
    if dims is None:
        return None
    dims = tuple(_count(d, "gripper_dims entries", least=0) for d in dims)
    if not all(d < width for d in dims):
        raise ValueError(f"gripper_dims {dims} must index the {width} joint dims")
    return dims


def _obs_refs(values, rows: int, unit: str) -> tuple[str | None, ...]:
    """values, one observation reference per row of rows, as a tuple of
    strings and Nones; unit names the rows."""
    refs = tuple(values)
    if len(refs) != rows:
        raise ValueError(f"obs_ref has {len(refs)} entries for {rows} {unit}")
    for k, ref in enumerate(refs):
        if ref is not None and not isinstance(ref, str):
            raise ValueError(f"obs_ref[{k}] must be a string or None, got {_quoted(ref)}")
    return refs


# Each state kind's columns, in Trajectory.state_columns order, and their
# row shapes; None matches any width, the same for every row.
_COLUMNS = {StateKind.EE: {"pos": (3,), "quat": (4,), "grip": (), "axis_angle": (3,)},
            StateKind.JOINT: {"joints": (None,)}}


def _state_arrays(columns: dict, rows: int, gripper_dims=None) -> dict[str, np.ndarray]:
    """State columns of one kind as read-only float arrays of rows rows
    each, every value within _RANGE: pos, quat and grip with axis_angle
    optional, or joints alone, keyed as Trajectory.state_columns. A quat of
    None is derived from axis_angle (_stored_rotations). gripper_dims, when
    given, must index joint columns. The one check of the state-column
    format."""
    if rows < 1:
        raise ValueError("no states: state columns need at least one row")
    shapes = _COLUMNS[StateKind.JOINT if "joints" in columns else StateKind.EE]
    derive = "quat" in columns and columns["quat"] is None
    if set(columns) not in (set(shapes), set(shapes) - {"axis_angle"}) or derive and "axis_angle" not in columns:
        raise ValueError("state columns must be pos, quat, grip and optional axis_angle (required when quat is None), "
                         f"or joints: {sorted(columns)}")
    arrays = {name: _finite_array(values, (rows, *shapes[name]), name)
              for name, values in columns.items() if name != "quat" or not derive}
    if derive:
        arrays["quat"] = _stored_rotations(arrays["axis_angle"])
        arrays["quat"].setflags(write=False)
    _gripper_dims(gripper_dims, arrays["joints"].shape[1] if "joints" in arrays else 0)
    return arrays


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
    """axis_angle_to_quaternion of each row of an (n, 3) array within
    _RANGE, bit for bit."""
    angle = _rownorm(vectors)
    # np.sinc(x) = sin(pi x)/(pi x), so this is sin(angle/2)/angle
    scale = 0.5 * np.sinc(angle / (2.0 * math.pi))
    quats = np.empty((len(angle), 4))
    quats[:, 0] = np.cos(0.5 * angle)
    quats[:, 1:] = scale[:, None] * vectors
    return _canonical_rows(quats)


def _stored_rotations(axis_angle: np.ndarray) -> np.ndarray:
    """Orientation rows of stored rotation vectors within _RANGE, derived as
    EEState.from_axis_angle derives them: the exponential map, then the
    state's own canonicalization."""
    return _canonical_rows(_exp_rows(axis_angle))


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
    return _exp_rows(_finite_array(v, (3,), "axis-angle vector")[None])[0]


def quaternion_to_axis_angle(q) -> np.ndarray:
    """Log map back to a rotation vector with angle in [0, pi]."""
    quat = canonicalize_quaternion(q)
    sin_half = float(np.linalg.norm(quat[1:]))
    if sin_half < 1e-12:
        # sin(theta/2) ~ theta/2 for tiny rotations
        return 2.0 * quat[1:]
    angle = 2.0 * math.atan2(sin_half, float(quat[0]))
    return (angle / sin_half) * quat[1:]


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
        object.__setattr__(self, "gripper", float(_finite_array(self.gripper, (), "gripper")))
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
        object.__setattr__(self, "gripper_dims", _gripper_dims(self.gripper_dims, joints.shape[0]))

    @property
    def dim(self) -> int:
        return int(self.joints.shape[0])

    @property
    def kind(self) -> StateKind:
        return StateKind.JOINT


State = EEState | JointState


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


def _state_columns(states) -> dict[str, np.ndarray]:
    """pos, quat and grip, or joints, of states of one kind as arrays of rows."""
    if states and states[0].kind is StateKind.JOINT:
        return {"joints": np.array([s.joints for s in states])}
    return {"pos": np.array([s.position for s in states]), "quat": np.array([s.orientation for s in states]),
            "grip": np.array([s.gripper for s in states])}


def _check_same_kind(x: dict, y: dict) -> None:
    """Raise unless state columns x and y, keyed as
    Trajectory.state_columns, are of one kind and joint width."""
    joint = "joints" in x
    if joint != ("joints" in y):
        kinds = (StateKind.JOINT, StateKind.EE) if joint else (StateKind.EE, StateKind.JOINT)
        raise ValueError(f"state-space kind mismatch: {kinds[0].value} vs {kinds[1].value}")
    if joint and x["joints"].shape[1] != y["joints"].shape[1]:
        raise ValueError(f"joint dimension mismatch: {x['joints'].shape[1]} vs {y['joints'].shape[1]}")


def _view(cls, **fields):
    """A frozen dataclass instance holding fields as given, without
    __post_init__: canonicalize_quaternion is not idempotent bit for bit."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        """Stack frames of one state kind and joint width; gripper_dims come
        from the first."""
        kind = StateKind(state_space)
        states = [f.state for f in frames]
        for i, state in enumerate(states):
            if state.kind is not kind:
                raise ValueError(f"frames[{i}]: state kind {state.kind.value} does not match "
                                 f"trajectory state space {kind.value}")
            if kind is StateKind.JOINT and state.dim != states[0].dim:
                raise ValueError(f"frames[{i}]: joint dimension {state.dim} differs from "
                                 f"the {states[0].dim} dims of earlier frames")
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
        freq = _finite_scalar(frequency_hz, "frequency_hz", positive=True)
        t = _int_array(t, None, "t")
        if len(t) < 2:
            raise ValueError("trajectory needs at least 2 frames")
        fault = _time_fault(t)
        if fault is not None:
            raise ValueError(f"frames[{fault[0]}]: {fault[1]}")
        fields = dict(name=name, state_space=StateKind(state_space), frequency_hz=freq, t=t,
                      obs_ref=_obs_refs((None,) * len(t) if obs_ref is None else obs_ref, len(t), "frames"))
        if fields["state_space"] is StateKind.EE:
            # checked in this order, so a bad axis_angle is named first
            columns = dict(axis_angle=axis_angle, pos=pos, quat=quat, grip=grip)
        else:
            columns = {"joints": joints}
        fields.update(_state_arrays(columns, len(t), gripper_dims))
        if "joints" in fields:
            fields["gripper_dims"] = _gripper_dims(gripper_dims, fields["joints"].shape[1])
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
        return {name: getattr(self, name) for name in _COLUMNS[self.state_space]}

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


def _weight(value, name: str) -> float:
    """value as a metric weight: a float that is finite, >= 0 and within
    _RANGE."""
    v = _finite_scalar(value, name)
    if v > _RANGE:
        raise ValueError(f"{name} must be finite, >= 0 and at most 2**250, got {v!r}")
    return v


@dataclass(frozen=True)
class MetricConfig:
    """Weights for the proprioceptive distance.

    End-effector distance is position_weight * |dp| plus orientation_weight
    times the geodesic angle; the gripper term is excluded by default and
    joins with gripper_weight when include_gripper is set. Joint distance is
    an L2 norm with optional per-dimension weights (joint_mask, multiplied
    into each coordinate difference); by default every dimension counts
    equally, gripper dims included. Every weight is at most 2**250 (_RANGE).
    """

    position_weight: float = 1.0
    orientation_weight: float = 1.0
    include_gripper: bool = False
    gripper_weight: float = 1.0
    joint_mask: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("position_weight", "orientation_weight", "gripper_weight"):
            object.__setattr__(self, name, _weight(getattr(self, name), name))
        effective = self.position_weight + self.orientation_weight
        if self.include_gripper:
            effective += self.gripper_weight
        if self.joint_mask is not None:
            mask = tuple(_weight(w, "joint_mask weights") for w in self.joint_mask)
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


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis. einsum sums each row in the same
    order whatever the batch size or broadcasting, and faster than
    np.sum(x * y, axis=-1)."""
    return np.einsum("...i,...i->...", x, y)


def _slerp_rows(qa: np.ndarray, qb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise slerp along the shorter arc; qa/qb broadcast against u along
    axis 0. The shorter arc takes s qb with s = -1 where qa . qb < 0; s is
    folded into qb's weight, which is exact, as (wb s) qb == wb (s qb) for
    s = +-1. A row at u = 0 or 1 is qa or (up to sign) qb unchanged: its
    weights are exactly 1 and 0, and renormalizing could move it."""
    dots = _rowdot(qa, qb)
    sign = np.where(dots < 0.0, -1.0, 1.0)
    dots = np.minimum(np.abs(dots), 1.0)
    near = dots > 1.0 - 1e-12
    theta = np.arccos(dots)
    sin_theta = np.where(near, 1.0, np.sin(theta))
    rest = 1.0 - u
    wa = np.where(near, rest, np.sin(rest * theta) / sin_theta)
    wb = np.where(near, u, np.sin(u * theta) / sin_theta) * sign
    out = wa[:, None] * qa
    out += wb[:, None] * qb
    norm = np.sqrt(_rowdot(out, out))
    norm[(u == 0.0) | (u == 1.0)] = 1.0
    return out / norm[:, None]


def _interpolate_rows(a: dict, b: dict, u: np.ndarray, spans: dict | None = None) -> dict[str, np.ndarray]:
    """The one interpolation: rows at parameters u from a to b, both state
    columns keyed as Trajectory.state_columns, for a's columns; linear but
    for quat, which goes by _slerp_rows. A column given as one row
    broadcasts against u; spans may hold b - a of a column. A row at u = 1
    is b's unchanged (quat up to sign), as a + 1.0 * (b - a) may not be."""
    end = u == 1.0
    out = {}
    for name, start in a.items():
        if name == "quat":
            out[name] = _slerp_rows(start, b[name], u)
            continue
        span = spans[name] if spans and name in spans else b[name] - start
        vector = name != "grip"
        out[name] = start + (u[:, None] if vector else u) * span
        np.copyto(out[name], b[name], where=end[:, None] if vector else end)
    return out


def _distance_rows(x: dict, y: dict, cfg: MetricConfig) -> np.ndarray:
    """The one metric: distance under cfg of each row of x to the same row
    of y, both state columns keyed as Trajectory.state_columns. End
    effectors: position_weight |p - p'|, plus orientation_weight times the
    angle 4 asin(|q - s q'| / 2) with s = sign(q . q'), plus gripper_weight
    |g - g'| when include_gripper; |q - s q'| <= sqrt(2), and equal
    quaternions read exactly 0 where 2 acos(|q . q'|) reads one ulp of the
    dot product as 3e-8 rad. Joints: |w * (j - j')|, w the joint_mask
    weights. A row depends on its own inputs alone, so a one-row call
    equals the same row of a batch bit for bit."""
    if "joints" in x:
        off = (x["joints"] - y["joints"]) * cfg.joint_weights(x["joints"].shape[1])
        return np.sqrt(_rowdot(off, off))
    off = x["pos"] - y["pos"]
    out = cfg.position_weight * np.sqrt(_rowdot(off, off))
    qx, qy = x["quat"], y["quat"]
    gap = qx - np.copysign(1.0, _rowdot(qx, qy))[:, None] * qy
    out = out + cfg.orientation_weight * 4.0 * np.arcsin(0.5 * np.sqrt(_rowdot(gap, gap)))
    if cfg.include_gripper:
        out = out + cfg.gripper_weight * np.abs(x["grip"] - y["grip"])
    return out


def interpolate(a: State, b: State, u: float) -> State:
    """Interpolate between two states of the same kind: one row of
    _interpolate_rows, with orientations along the shorter arc. u=0 and u=1
    return the input states unchanged."""
    a_rows, b_rows = _state_columns([a]), _state_columns([b])
    _check_same_kind(a_rows, b_rows)
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {u}")
    if u == 0.0:
        return a
    if u == 1.0:
        return b
    rows = _interpolate_rows(a_rows, b_rows, np.array([u]))
    if isinstance(a, EEState):
        return EEState(rows["pos"][0], rows["quat"][0], rows["grip"][0])
    return JointState(rows["joints"][0], a.gripper_dims)


def state_distance(x: State, y: State, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Proprioceptive distance between two states of the same kind: one row
    of _distance_rows. Symmetric, non-negative, zero exactly when the states
    agree on every component the config weights, and unchanged by a common
    offset of both positions."""
    x_rows, y_rows = _state_columns([x]), _state_columns([y])
    _check_same_kind(x_rows, y_rows)
    return float(_distance_rows(x_rows, y_rows, cfg)[0])
