"""Chord projection and reconstruction losses for waypoint subsequences.

The segment loss scores one chord against the frames it spans and is the
feasibility test inside the solver. The global reconstruction loss scores a
whole waypoint polyline: the worst, over all original frames, of the nearest
distance to any chord. The global loss is never larger than the worst
per-segment loss, because a frame may project onto a chord other than the
one containing it.

Everything here is pure. The vectorized code reads the trajectory's columns
directly; the scalar reference, segment_loss, keeps its own projection and
loop over state views but measures in the kernel's metric, which the tests
check against scipy.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .state_space import (
    DEFAULT_METRIC,
    MetricConfig,
    Trajectory,
    _check_same_kind,
    _distance_rows,
    _interpolate_rows,
    _rowdot,
    _state_arrays,
    interpolate,
    state_distance,
)

__all__ = [
    "segment_loss",
    "SegmentScorer",
    "min_distances_to_polyline",
]


def segment_loss(traj: Trajectory, i: int, j: int, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Worst projection distance of frames i..j onto the chord (i, j), the
    scalar reference for the vectorized kernel.

    A frame's chord parameter u* comes from the position components alone
    (full joint vector in joint space), clamped to [0, 1]; the distance then
    compares the frame against the fully interpolated state at u*, so
    orientation differences count even though they do not steer the
    projection. A degenerate chord (identical projection anchors) pins u* to
    0. Zero for adjacent frames: the endpoints project onto themselves.
    """
    _chord_indices(i, j, len(traj))
    a = traj.state(i)
    b = traj.state(j)
    coords = traj.pos if traj.joints is None else traj.joints
    anchor, span = coords[i], coords[j] - coords[i]
    denom = float(np.dot(span, span))
    worst = 0.0
    for t in range(i + 1, j):
        u = 0.0 if denom == 0.0 else min(1.0, max(0.0, float(np.dot(coords[t] - anchor, span)) / denom))
        worst = max(worst, state_distance(traj.state(t), interpolate(a, b, u), cfg))
    return worst


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


def _chord_indices(src, dst, length: int) -> tuple[np.ndarray, np.ndarray]:
    """src and dst, of one shape, as index arrays of chords 0 <= src < dst < length."""
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    bad = np.flatnonzero((src < 0) | (src >= dst) | (dst >= length))
    if bad.size:
        i, j = src.flat[bad[0]], dst.flat[bad[0]]
        raise IndexError(f"segment ({i}, {j}) out of range for trajectory of length {length}")
    return src, dst


def _row_distances(points, anchors, t, src, dst, cfg: MetricConfig) -> np.ndarray:
    """Distance of points[t[k]] to the chord anchors[src[k]] -> anchors[dst[k]].

    The one vectorized chord-distance kernel; points and anchors hold state
    columns as a Trajectory names them. src and dst broadcast against the
    1-D t, so scalars score many frames against one chord. Past _CHUNK_ROWS
    rows it calls itself on equal slices of at most _CHUNK_ROWS rows. The
    projection u comes from the position columns (joints in joint space);
    the state at u and its distance are one _interpolate_rows and one
    _distance_rows call over the columns the metric weighs. A row depends on
    its own inputs alone, so the solver's screen, its exact checks and
    SegmentScorer.loss agree bit for bit. A row at u = 0 or 1 is compared
    with that end frame unchanged, so a frame's distance to a chord it ends
    is exactly 0.
    """
    if len(t) > _CHUNK_ROWS:
        # slices of equal size reuse each other's freed temporaries
        parts = zip(*(np.array_split(x, -(-len(t) // _CHUNK_ROWS)) for x in np.broadcast_arrays(t, src, dst)))
        return np.concatenate([_row_distances(points, anchors, *part, cfg) for part in parts])
    if len(t) == 0:
        return np.empty(0)
    key = "pos" if points.joints is None else "joints"
    coords = getattr(anchors, key)
    a, b = coords.take(src, axis=0), coords.take(dst, axis=0)
    span = b - a
    pts = getattr(points, key).take(t, axis=0)
    denom = _rowdot(span, span)
    degenerate = denom == 0.0
    # the clip to [0, 1] as np.clip computes it, in fewer calls
    u = np.minimum(np.maximum(0.0, _rowdot(pts - a, span) / np.where(degenerate, 1.0, denom)), 1.0)
    u = np.where(degenerate, 0.0, u)
    names = () if key == "joints" else ("quat", "grip") if cfg.include_gripper else ("quat",)
    start, end = {key: a}, {key: b}
    for name in names:
        column = getattr(anchors, name)
        start[name], end[name] = column.take(src, axis=0), column.take(dst, axis=0)
    ref = _interpolate_rows(start, end, u, {key: span})
    # gathering the points' rows only now, with fewer large temporaries
    # alive, measured 1-2% faster per 2,000-row call
    x = {key: pts}
    for name in names:
        x[name] = getattr(points, name).take(t, axis=0)
    return _distance_rows(x, ref, cfg)


def _batches(sizes: np.ndarray, cap: int):
    """Consecutive slices of sizes, each summing to at most cap unless it
    holds a single item."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + cap, side="right"))
        stop = max(start + 1, stop)
        yield slice(start, stop)
        start = stop


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """0 .. n-1 for each n in sizes, concatenated."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis, accurate near 0 and pi."""
    gap, total = a - b, a + b
    return 2.0 * np.arctan2(np.sqrt(_rowdot(gap, gap)), np.sqrt(_rowdot(total, total)))


# Narrowest cones _reach_horizon keeps per source.
_CONES = 4


def _reach_horizon(coords: np.ndarray, eta: float) -> np.ndarray:
    """horizon[i]: every chord (i, j) with j > horizon[i] has loss above eta.

    coords are the weighted position coordinates Y of the frames. For an
    interior frame k of chord (i, j) the kernel's loss is at least the
    distance from Y_k to the segment [Y_i, Y_j]: end-effector orientation
    and gripper terms are >= 0, and in joint space the weighted distance at
    the unweighted projection u* is >= its minimum over all u. That distance
    is at least the distance to the ray from Y_i through Y_j. So when
    |Y_k - Y_i| > r (r = eta before rounding), a fitting chord's direction
    Y_j - Y_i lies in the cone around Y_k - Y_i of half-angle
    asin(r / |Y_k - Y_i|), a cap on the sphere of directions; and
    Y_j = Y_i does not fit at all. Cones of half-angle pi/2 or more are
    skipped (dropping a constraint is sound), so every cone is convex and
    two cones are disjoint exactly when their axes are further apart than
    the sum of their half-angles. Scanning k = i+1, i+2, ..., the _CONES
    narrowest cones so far are kept; a new cone disjoint from a kept one
    ends the scan at k, since every chord (i, j) with j > k has both frames
    inside it, and its direction would have to lie in both. Otherwise the
    new cone replaces the widest kept one when it is narrower. This is the
    min-# wedge argument of Imai and Iri (1988) in d dimensions (Barequet
    et al., 2002), with pairwise tests against a few cones in place of the
    exact intersection, which loosens the bound but keeps it sound.

    Rounding, with u = 2**-53, d = coords.shape[1], M = max |Y_k| and
    tau = 512 (d + 16) u, is covered by one margin, the one in
    r = (eta + tau M)(1 + tau)**2. Its bounds are relative errors, which
    hold because nothing overflows: coords lie in state_space's numeric
    range (see _RANGE, which proves it for this scan and the kernel). The
    computed loss is within a few d u (dist + M) <= a few 3 d u M of the
    real distance, and Y itself within u M of the weights times the stored
    values, so every frame of a chord that fits lies within eta + tau M / 2
    of it in exact arithmetic. The (1 + tau) factors cover the rounding of
    |Y_k - Y_i| and of the quotient, and the other tau M / 2 of r widens
    every computed half-angle over the exact one by at least
    (tau M / 2) / |Y_k - Y_i| >= tau / 4 (asin has slope >= 1, and
    |Y_k - Y_i| <= 2 M). That is orders of magnitude more than the few ulps
    of the unit axes, of the atan2 angle between them and of arcsin. So a
    fitting chord's direction lies in every computed cone, and when the scan
    reads two computed cones as disjoint, the exact cones they stand for are
    disjoint too.
    """
    T, dim = coords.shape
    horizon = np.full(T, T - 1)
    tau = (dim + 16) * 2.0**-44
    r = (eta + tau * float(np.linalg.norm(coords, axis=1).max(initial=0.0))) * (1.0 + tau) ** 2
    if T < 4 or float(np.linalg.norm(np.ptp(coords, axis=0))) <= r:
        return horizon
    active = np.arange(T - 3)
    axes = np.zeros((T - 3, _CONES, dim))
    radii = np.full((T - 3, _CONES), np.inf)  # inf marks an empty slot
    offset = 0
    while active.size:
        offset += 1
        active = active[active + offset < T - 1]
        k = active + offset
        v = coords.take(k, axis=0) - coords.take(active, axis=0)
        dist = np.linalg.norm(v, axis=1)
        rows = np.flatnonzero(dist > r)
        r2 = np.arcsin(r / dist[rows])
        convex = r2 < 0.5 * np.pi
        rows, r2 = rows[convex], r2[convex]
        if rows.size == 0:
            continue
        src = active[rows]
        a2 = v.take(rows, axis=0) / dist[rows, None]
        kept = radii.take(src, axis=0)
        cut = np.any(_angle(axes.take(src, axis=0), a2[:, None, :]) > kept + r2[:, None], axis=1)
        horizon[src[cut]] = k[rows[cut]]
        widest = np.argmax(kept, axis=1)
        swap = r2 < kept[np.arange(src.size), widest]
        axes[src[swap], widest[swap]] = a2[swap]
        radii[src[swap], widest[swap]] = r2[swap]
        active = np.delete(active, rows[cut])
    return horizon


# Kernel rows per call, which keeps its temporaries near 1 MB.
_CHUNK_ROWS = 2048
# (point, chord) pairs built at once by _nearest_chord and chord_worst.
_PAIR_BLOCK = 2**14


def _check_metric(joints, cfg: MetricConfig) -> None:
    """Fail fast when cfg cannot score states whose joints column is joints
    (None for end effectors): a joint_mask that does not match the joint
    dimension, or an end-effector metric that weighs nothing (a joint_mask
    alone passes MetricConfig). The one owner of this rule, for solves,
    replays and relabel files alike."""
    if joints is not None:
        cfg.joint_weights(joints.shape[1])
    elif cfg.position_weight == cfg.orientation_weight == 0.0 and not (cfg.include_gripper and cfg.gripper_weight):
        raise ValueError("metric has no nonzero end-effector weight: position, orientation and "
                         "included gripper weights are all 0")


def _position_coords(columns, cfg: MetricConfig) -> np.ndarray:
    """The weighted coordinates Y the kernel's position term measures:
    position_weight * pos for end effectors, joint_mask * joints for joint
    space with zero-weight joints dropped."""
    if columns.joints is None:
        return cfg.position_weight * columns.pos
    weights = cfg.joint_weights(columns.joints.shape[1])
    return (columns.joints * weights)[:, weights > 0.0]


def _nearest_chord(points, anchors, chain, cfg: MetricConfig) -> np.ndarray:
    """Distance of each point to the nearest chord (chain[k], chain[k+1])
    of anchors: the minimum of _row_distances over all chords,
    the same floating-point value, without scoring far chords.

    Bound: with Y the weighted coordinates (_position_coords), the kernel's
    distance from point p to chord c = (a, b) is at least the distance from
    Y_p to the segment [Y_a, Y_b]: the end-effector orientation and gripper
    terms are >= 0 (adding a non-negative float never lowers a sum), and in
    joint space the weighted distance at the unweighted projection is >= its
    minimum over the segment. The segment lies in the ball of radius
    half_c = |Y_b - Y_a| / 2 around its midpoint mid_c, so
    LB_c = |Y_p - mid_c| - half_c is a lower bound. Points go in blocks of
    about _PAIR_BLOCK (point, chord) pairs. Per point, the chord with the
    nearest midpoint is scored exactly, giving an upper bound U of the
    minimum (any chord would do; the one of smallest LB is often a long one
    passing by), and of the other chords only those with LB_c - margin <= U
    are scored. A skipped chord's computed distance is above U, so the
    minimum is unchanged; and a row of _row_distances depends on its own
    inputs alone, so every scored row equals the unpruned one.

    Rounding, with u = 2**-53, d = Y.shape[1] and M = max |Y_k| over points
    and anchors: every distance above is at most 2 M. The bounds below are
    relative errors, which hold because nothing overflows: Y lies in
    state_space's numeric range (see _RANGE, which proves it for this pass
    and the kernel). The kernel's reference point is within 4 u (|a| + |b|)
    of a point of the chord, and the offset, its norm (a sum of d squares)
    and the weight product add a relative error of at most (d + 4) u, so the
    computed distance is at least the real one minus (2 d + 23) u M. Y, the
    midpoint, the half-length and LB carry at most (3 d + 20) u M together.
    margin = tau M + 2**-500 with tau = 512 (d + 16) u covers both sums
    with room to spare; 2**-500 covers squares that underflow, whose
    absolute error in a norm stays below sqrt(d) 2**-537. Without a position
    term (zero position weight) every LB is 0 and nothing is skipped.
    """
    chain = np.asarray(chain, dtype=np.intp)
    if chain.size < 2:
        raise ValueError(f"a polyline needs at least 2 indices, got {chain.size}")
    src, dst = _chord_indices(chain[:-1], chain[1:], len(anchors))
    yp = _position_coords(points, cfg)
    count = len(yp)
    ya = _position_coords(anchors, cfg)
    ys, yd = ya.take(src, axis=0), ya.take(dst, axis=0)
    span = yd - ys
    half = 0.5 * np.sqrt(_rowdot(span, span))
    # one coordinate per row, so each block sums d contiguous 2-D arrays
    mid = (0.5 * (ys + yd)).T.copy()
    yp_cols = yp.T.copy()
    size = max(np.sqrt(_rowdot(yp, yp)).max(initial=0.0), np.sqrt(_rowdot(ya, ya)).max(initial=0.0))
    margin = (yp.shape[1] + 16) * 2.0**-44 * size + 2.0**-500
    out = np.empty(count)
    step = max(1, _PAIR_BLOCK // src.size)
    for lo in range(0, count, step):
        t = np.arange(lo, min(lo + step, count))
        square = np.zeros((t.size, src.size))
        gap = np.empty_like(square)
        for coord, centre in zip(yp_cols[:, lo : lo + step], mid):
            np.subtract(coord[:, None], centre, out=gap)
            square += np.square(gap, out=gap)
        guess = np.argmin(square, axis=1)
        lb = np.sqrt(square, out=square) - half
        upper = _row_distances(points, anchors, t, src[guess], dst[guess], cfg)
        keep = lb - margin <= upper[:, None]
        keep[np.arange(t.size), guess] = False
        rows, cols = np.nonzero(keep)
        np.minimum.at(upper, rows, _row_distances(points, anchors, t[rows], src[cols], dst[cols], cfg))
        out[lo : lo + step] = upper
    return out


class SegmentScorer:
    """Chord losses of one trajectory under one metric.

    Every query goes through _row_distances, so losses from loss(),
    chord_losses(), chord_worst() and probe_pass() are the same
    floating-point numbers. Matches the scalar segment_loss up to
    floating-point reassociation. A chord is a pair src < dst of frames of
    the trajectory; any other pair is an IndexError.
    """

    def __init__(self, traj: Trajectory, cfg: MetricConfig = DEFAULT_METRIC):
        self.cfg = cfg
        self.traj = traj
        self.witness_rejects = 0
        _check_metric(traj.joints, cfg)

    def __len__(self) -> int:
        return len(self.traj)

    def _rows(self, t, src, dst) -> np.ndarray:
        return _row_distances(self.traj, self.traj, t, src, dst, self.cfg)

    def chord_losses(self, src, dst) -> np.ndarray:
        """Segment losses of the chords (src[k], dst[k]): the worst distance
        of each chord's interior frames, 0 for adjacent frames."""
        return self.chord_worst(src, dst)[0]

    def chord_worst(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """Segment losses of the chords (src[k], dst[k]) and, per chord, its
        worst frame: the first interior frame whose distance equals the loss
        (-1 for adjacent frames, which have none)."""
        src, dst = _chord_indices(src, dst, len(self))
        out = np.zeros(src.shape)
        worst = np.full(src.shape, -1)
        inner = np.flatnonzero(dst - src > 1)
        sizes = dst[inner] - src[inner] - 1
        for part in _batches(sizes, _PAIR_BLOCK):
            k, n = inner[part], sizes[part]
            starts = np.cumsum(n) - n
            s = np.repeat(src[k], n)
            t = s + 1 + _ranks(n)
            rows = self._rows(t, s, np.repeat(dst[k], n))
            out[k] = np.maximum.reduceat(rows, starts)
            hits = np.flatnonzero(rows == np.repeat(out[k], n))
            worst[k] = t[hits[np.searchsorted(hits, starts)]]
        return out, worst

    def loss(self, i: int, j: int) -> float:
        """Segment loss of chord (i, j)."""
        return float(self.chord_losses([i], [j])[0])

    def probe_pass(self, src, dst, eta: float, witness) -> np.ndarray:
        """False where chord (src[k], dst[k]) is certainly over eta.

        Two stages, each on the chords the one before kept. First the
        witness: when src[k] < witness[k] < dst[k], the distance of frame
        witness[k] to the chord; entries of -1 or outside the chord are
        ignored. Then three spread interior frames; three samples rather
        than one keep periodic paths from aliasing straight through. Every
        distance is a row of the chord's exact loss (_row_distances rows
        depend on their own inputs alone), so a rejected chord's loss is
        over eta too, with no slack. witness_rejects counts the chords the
        witness stage rejected, over all calls.
        """
        src, dst = _chord_indices(src, dst, len(self))
        witness = np.asarray(witness, dtype=np.intp)
        keep = np.ones(src.shape, dtype=bool)
        inside = np.flatnonzero((src < witness) & (witness < dst))
        keep[inside] = self._rows(witness[inside], src[inside], dst[inside]) <= eta
        self.witness_rejects += inside.size - int(np.count_nonzero(keep[inside]))
        wide = np.flatnonzero(keep & (dst - src > 1))
        s, d = src[wide], dst[wide]
        probes = np.clip(s + np.outer((1, 2, 3), d - s) // 4, s + 1, d - 1)
        rows = self._rows(probes.ravel(), np.tile(s, 3), np.tile(d, 3))
        keep[wide] = rows.reshape(3, -1).max(axis=0) <= eta
        return keep

    def horizon(self, eta: float) -> np.ndarray:
        """Per-frame reach bound under eta; see _reach_horizon. With zero
        position weight every frame reaches the end."""
        return _reach_horizon(_position_coords(self.traj, self.cfg), eta)

    def global_loss(self, indices: Sequence[int]) -> float:
        """Reconstruction loss of the polyline through two or more increasing frame indices."""
        return float(_nearest_chord(self.traj, self.traj, indices, self.cfg).max())


def min_distances_to_polyline(columns, anchors: Trajectory, cfg: MetricConfig = DEFAULT_METRIC) -> np.ndarray:
    """Per-row distance of state columns, keyed as Trajectory.state_columns
    (pos, quat and grip, or joints), to the nearest chord of the polyline
    through the frames of anchors."""
    arrays = _state_arrays(columns, len(next(iter(columns.values()), ())))
    _check_same_kind(arrays, anchors.state_columns)
    _check_metric(anchors.joints, cfg)
    return _nearest_chord(SimpleNamespace(**{"joints": None, **arrays}), anchors, range(len(anchors)), cfg)
