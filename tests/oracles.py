"""Independent reference implementations used to cross-check the library.

Orientation math goes through scipy.spatial.transform instead of the
package's own quaternion code, and chord projections are found by grid
minimization instead of the closed form, so agreement is meaningful.
oracle_nearest_chord is the exception: it is the unpruned form of the
package's nearest-chord pass, the same kernel with no bound, so the pruned
pass must match it bit for bit. oracle_pairwise_horizon is another: the
reach horizon's cone scan, with the same angles and margins, and no cone
dropped, so its bound can only be tighter. oracle_row_distances,
oracle_interpolate_rows and oracle_slerp_rows are the chord kernel and its
interpolation as they were before rows were gathered with take and the
slerp's sign was folded into a weight: the same float operations, so the
kernel must match them bit for bit. The scalar exponential map and
canonicalization and the per-row relabel writer are the package's former
code, kept here because the vectorized forms must reproduce them bit for
bit and byte for byte. So are the replay tick loop, whose tick counts and
reach flags the closed-form follower must match except at the knife edges
test_replay.py pins, the per-threshold zero-velocity calibration, whose
thresholds the counting sweep must match, the bisected fixed-interval
calibration, whose interval the closed form must match, and the
per-sample plot writer,
whose bytes the column writer must match.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from waypoint_extraction import __version__
from waypoint_extraction.baselines import _frame_speeds, _gripper_flip_frames, _zero_velocity_indices
from waypoint_extraction.reconstruction import _angle, _row_distances
from waypoint_extraction.state_space import (
    EEState,
    JointState,
    MetricConfig,
    _state_columns,
    interpolate,
    state_distance,
)
from waypoint_extraction.trajfile import PLOT_HEADER, RELABEL_SCHEMA, metric_to_dict


def _rotation(state: EEState) -> Rotation:
    w, x, y, z = state.orientation
    return Rotation.from_quat([x, y, z, w])


def oracle_state_distance(x, y, cfg: MetricConfig = MetricConfig()) -> float:
    if isinstance(x, JointState):
        weights = np.ones(x.dim) if cfg.joint_mask is None else np.asarray(cfg.joint_mask)
        return float(np.linalg.norm(weights * (x.joints - y.joints)))
    d = cfg.position_weight * float(np.linalg.norm(x.position - y.position))
    d += cfg.orientation_weight * float((_rotation(x).inv() * _rotation(y)).magnitude())
    if cfg.include_gripper:
        d += cfg.gripper_weight * abs(x.gripper - y.gripper)
    return d


def _grid_argmin_u(point: np.ndarray, a: np.ndarray, b: np.ndarray, rounds: int = 4, n: int = 1001) -> float:
    """Minimize |point - lerp(a, b, u)| over u in [0, 1] by nested grids."""
    lo, hi = 0.0, 1.0
    best_u = 0.0
    for _ in range(rounds):
        us = np.linspace(lo, hi, n)
        pts = a[None, :] + us[:, None] * (b - a)[None, :]
        k = int(np.argmin(np.linalg.norm(pts - point[None, :], axis=1)))
        best_u = float(us[k])
        lo = float(us[max(0, k - 1)])
        hi = float(us[min(n - 1, k + 1)])
    return best_u


def _slerp_state(a: EEState, b: EEState, u: float) -> Rotation:
    key = Rotation.concatenate([_rotation(a), _rotation(b)])
    if (_rotation(a).inv() * _rotation(b)).magnitude() < 1e-12:
        return _rotation(a)
    return Slerp([0.0, 1.0], key)([u])[0]


def oracle_projection_distance(x, a, b, cfg: MetricConfig = MetricConfig()) -> float:
    """Distance of x to the chord a->b: position-argmin u found by grid
    search, combined distance evaluated at that u."""
    if isinstance(x, JointState):
        u = _grid_argmin_u(x.joints, a.joints, b.joints)
        ref = a.joints + u * (b.joints - a.joints)
        weights = np.ones(x.dim) if cfg.joint_mask is None else np.asarray(cfg.joint_mask)
        return float(np.linalg.norm(weights * (x.joints - ref)))
    u = _grid_argmin_u(x.position, a.position, b.position)
    ref_pos = a.position + u * (b.position - a.position)
    d = cfg.position_weight * float(np.linalg.norm(x.position - ref_pos))
    ref_rot = _slerp_state(a, b, u)
    d += cfg.orientation_weight * float((_rotation(x).inv() * ref_rot).magnitude())
    if cfg.include_gripper:
        ref_grip = a.gripper + u * (b.gripper - a.gripper)
        d += cfg.gripper_weight * abs(x.gripper - ref_grip)
    return d


def oracle_segment_loss(traj, i: int, j: int, cfg: MetricConfig = MetricConfig()) -> float:
    """Exhaustive per-state projection onto the containing chord."""
    a = traj.frames[i].state
    b = traj.frames[j].state
    return max(
        (oracle_projection_distance(traj.frames[t].state, a, b, cfg) for t in range(i, j + 1)),
        default=0.0,
    )


def oracle_reconstruction_loss(traj, indices, cfg: MetricConfig = MetricConfig()) -> float:
    """Double-loop max over frames of min over chords."""
    worst = 0.0
    for frame in traj.frames:
        nearest = min(
            oracle_projection_distance(
                frame.state, traj.frames[a].state, traj.frames[b].state, cfg
            )
            for a, b in zip(indices, indices[1:])
        )
        worst = max(worst, nearest)
    return worst


def oracle_next_waypoint(t: int, indices) -> int:
    """Linear scan for the first waypoint index strictly after t."""
    for idx in indices:
        if idx > t:
            return idx
    raise AssertionError(f"no waypoint after {t}")


def oracle_nearest_chord(points, count: int, anchors, chain, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Distance of points 0..count-1 to the nearest chord (chain[k],
    chain[k+1]) of anchors: every point against every chord, one kernel call
    per chord."""
    ts = np.arange(count)
    best = None
    for a, b in zip(chain, chain[1:]):
        d = _row_distances(points, anchors, ts, int(a), int(b), cfg)
        best = d if best is None else np.minimum(best, d)
    return best


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", x, y)


def oracle_slerp_rows(qa: np.ndarray, qb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise slerp along the shorter arc: both ends broadcast to
    (len(u), 4), and qb flipped by the sign of the dot product before it is
    weighted."""
    qa = np.broadcast_to(qa, (len(u), 4))
    qb = np.broadcast_to(qb, (len(u), 4))
    dots = _dot(qa, qb)
    sign = np.where(dots < 0.0, -1.0, 1.0)
    qb = qb * sign[:, None]
    dots = np.minimum(np.abs(dots), 1.0)
    near = dots > 1.0 - 1e-12
    theta = np.arccos(dots)
    sin_theta = np.where(near, 1.0, np.sin(theta))
    wa = np.where(near, 1.0 - u, np.sin((1.0 - u) * theta) / sin_theta)
    wb = np.where(near, u, np.sin(u * theta) / sin_theta)
    out = wa[:, None] * qa + wb[:, None] * qb
    norm = np.sqrt(_dot(out, out))
    norm[(u == 0.0) | (u == 1.0)] = 1.0
    return out / norm[:, None]


def oracle_interpolate_rows(a: dict, b: dict, u: np.ndarray, spans: dict | None = None) -> dict:
    """Rows at parameters u from columns a to columns b: linear, quat by
    oracle_slerp_rows, b's row unchanged at u == 1."""
    end = u == 1.0
    out = {}
    for name, start in a.items():
        if name == "quat":
            out[name] = oracle_slerp_rows(start, b[name], u)
            continue
        span = spans[name] if spans and name in spans else b[name] - start
        vector = name != "grip"
        out[name] = start + (u[:, None] if vector else u) * span
        np.copyto(out[name], b[name], where=end[:, None] if vector else end)
    return out


def oracle_row_distances(points, anchors, t, src, dst, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Distance of points[t[k]] to the chord anchors[src[k]] ->
    anchors[dst[k]], every row gathered by fancy indexing: the projection on
    the position columns (joints in joint space), the state there by
    oracle_interpolate_rows and the metric's position, angle, gripper or
    masked joint terms."""
    key = "pos" if points.joints is None else "joints"
    coords = getattr(anchors, key)
    a, b = coords[src], coords[dst]
    span = b - a
    pts = getattr(points, key)[t]
    denom = _dot(span, span)
    degenerate = denom == 0.0
    u = np.minimum(np.maximum(0.0, _dot(pts - a, span) / np.where(degenerate, 1.0, denom)), 1.0)
    u = np.where(degenerate, 0.0, u)
    names = () if key == "joints" else ("quat", "grip") if cfg.include_gripper else ("quat",)
    start, end = {key: a}, {key: b}
    for name in names:
        start[name], end[name] = getattr(anchors, name)[src], getattr(anchors, name)[dst]
    ref = oracle_interpolate_rows(start, end, u, {key: span})
    if key == "joints":
        off = (pts - ref["joints"]) * cfg.joint_weights(pts.shape[1])
        return np.sqrt(_dot(off, off))
    off = pts - ref["pos"]
    out = cfg.position_weight * np.sqrt(_dot(off, off))
    qx, qy = points.quat[t], ref["quat"]
    gap = qx - np.copysign(1.0, _dot(qx, qy))[:, None] * qy
    out = out + cfg.orientation_weight * 4.0 * np.arcsin(0.5 * np.sqrt(_dot(gap, gap)))
    if cfg.include_gripper:
        out = out + cfg.gripper_weight * np.abs(points.grip[t] - ref["grip"])
    return out


def oracle_pairwise_horizon(coords: np.ndarray, eta: float) -> np.ndarray:
    """The reach bound of reconstruction._reach_horizon with every cone
    tested against every earlier cone of its source, same margins: horizon[i]
    is the first frame k whose cone is disjoint from an earlier one."""
    T, dim = coords.shape
    horizon = np.full(T, T - 1)
    tau = (dim + 16) * 2.0**-44
    r = (eta + tau * float(np.linalg.norm(coords, axis=1).max(initial=0.0))) * (1.0 + tau) ** 2
    if T < 4 or float(np.linalg.norm(np.ptp(coords, axis=0))) <= r:
        return horizon
    for i in range(T - 3):
        v = coords[i + 1 : T - 1] - coords[i]
        dist = np.linalg.norm(v, axis=1)
        axes, radii = [], []
        for k in np.flatnonzero(dist > r):
            half = np.arcsin(r / dist[k])
            if half >= 0.5 * np.pi:
                continue
            axis = v[k] / dist[k]
            if axes and np.any(_angle(np.array(axes), axis) > np.array(radii) + half):
                horizon[i] = i + 1 + k
                break
            axes.append(axis)
            radii.append(half)
    return horizon


def oracle_canonicalize_quaternion(q) -> np.ndarray:
    """One quaternion over its np.linalg.norm, negated when its scalar part
    is negative."""
    arr = np.asarray(q, dtype=float)
    norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm) or norm < 1e-8:
        raise ValueError("quaternion norm is zero or non-finite")
    arr = arr / norm
    if arr[0] < 0.0:
        arr = -arr
    return arr


def oracle_axis_angle_to_quaternion(v) -> np.ndarray:
    """The exponential map of one rotation vector with scalar math.cos and
    np.sinc, canonicalized."""
    vec = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(vec))
    scale = 0.5 * float(np.sinc(angle / (2.0 * math.pi)))
    q = np.array([math.cos(0.5 * angle), scale * vec[0], scale * vec[1], scale * vec[2]])
    return oracle_canonicalize_quaternion(q)


def _oracle_state_record(state) -> dict:
    if isinstance(state, EEState):
        return {"pos": state.position.tolist(), "axis_angle": state.axis_angle().tolist(),
                "gripper": float(state.gripper)}
    return {"joints": state.joints.tolist()}


def oracle_save_relabeled(path, ds, metric=None, created_at=None) -> None:
    """An awe-relabel-v1 file written row by row from the RelabeledFrame
    views, one json.dumps per record."""
    prov = {
        "schema_version": RELABEL_SCHEMA,
        "source_name": ds.source_name,
        "eta": ds.eta,
        "metric": metric_to_dict(metric if metric is not None else MetricConfig()),
        "tool_version": __version__,
    }
    if created_at is not None:
        prov["created_at"] = str(created_at)
    lines = []
    for k, row in enumerate(ds.frames):
        record = {"t": row.t}
        if row.obs_ref is not None:
            record["obs_ref"] = row.obs_ref
        record["state"] = _oracle_state_record(row.state)
        record["target_waypoint"] = _oracle_state_record(row.target_waypoint)
        record["target_index"] = row.target_index
        record["waypoints_remaining"] = row.waypoints_remaining
        if k == 0:
            record["provenance"] = prov
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_replay(traj, wp, cfg) -> tuple[int, tuple[bool, ...], float]:
    """(ticks used, per-waypoint reach flags, max tracking deviation) of the
    follower run one tick at a time: each tick moves min(1, max_step / dist)
    of the way to the target, until the target is within reach_tolerance,
    its budget is spent (unless blocking) or tick_limit is hit."""
    current = traj.frames[0].state
    executed = [current]
    ticks = 0
    reached_flags = []
    prev_idx = wp.indices[0]
    for idx in wp.indices:
        target = traj.frames[idx].state
        budget = (traj.frames[idx].t - traj.frames[prev_idx].t) * cfg.control_multiplier
        spent = 0
        dist = state_distance(current, target, cfg.metric)
        while dist > cfg.reach_tolerance and ticks < cfg.tick_limit and (cfg.blocking or spent < budget):
            u = min(1.0, cfg.max_step / dist)
            current = interpolate(current, target, u)
            executed.append(current)
            ticks += 1
            spent += 1
            dist = state_distance(current, target, cfg.metric)
        reached_flags.append(dist <= cfg.reach_tolerance)
        prev_idx = idx
    points = SimpleNamespace(**{"joints": None, **_state_columns(executed)})
    deviation = oracle_nearest_chord(points, len(executed), traj, range(len(traj)), cfg.metric).max()
    return ticks, tuple(reached_flags), float(deviation)


def oracle_calibrate_zero_velocity(traj, target: int) -> tuple[float, int]:
    """(threshold, waypoint count) of the zero-velocity selector tuned to
    target by scoring every candidate threshold (0 and each frame speed)
    with a fresh selection; the first of the smallest (|count - target|,
    count) wins."""
    speeds = _frame_speeds(traj)
    flips = _gripper_flip_frames(traj, 0.0)
    best_thr, best_count = None, None
    for thr in np.unique(np.concatenate(([0.0], speeds))):
        count = len(_zero_velocity_indices(speeds, flips, len(traj), float(thr)))
        if best_count is None or (abs(count - target), count) < (abs(best_count - target), best_count):
            best_thr, best_count = float(thr), count
    return best_thr, best_count


def oracle_calibrate_fixed(length: int, target: int) -> int:
    """Interval of the fixed-interval selector tuned to target on a
    length-frame trajectory: bisect for the largest interval whose count is
    still >= target, then take it or the next interval, whichever count is
    nearer the target, ties toward the smaller count."""

    def count(k: int) -> int:
        return -(-(length - 1) // k) + 1

    lo, hi = 1, length - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count(mid) >= target:
            lo = mid
        else:
            hi = mid - 1
    candidates = [lo] if lo == length - 1 else [lo, lo + 1]
    return min(candidates, key=lambda k: (abs(count(k) - target), count(k)))


def oracle_plot_data(traj, sweep, path) -> None:
    """Plot-data CSV built one state at a time: frames, 12 interpolate
    steps per chord, then the waypoints, per eta."""
    rows = [PLOT_HEADER]

    def add(eta, kind, t, state):
        vec = state.position if isinstance(state, EEState) else state.joints[:3]
        x, y, z = [float(v) for v in vec] + [0.0] * (3 - len(vec))
        rows.append(f"{eta!r},{kind},{t!r},{x!r},{y!r},{z!r}")

    for eta, wp in sweep:
        eta = float(eta)
        for frame in traj.frames:
            add(eta, "original", frame.t, frame.state)
        for i, j in zip(wp.indices, wp.indices[1:]):
            a, b = traj.frames[i], traj.frames[j]
            for s in range(13):
                u = s / 12
                add(eta, "reconstructed", a.t + u * (b.t - a.t), interpolate(a.state, b.state, u))
        for i in wp.indices:
            add(eta, "waypoint", traj.frames[i].t, traj.frames[i].state)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
