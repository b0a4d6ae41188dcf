"""The chord kernel and its interpolation against their frozen reference
forms (oracles.oracle_row_distances, oracle_interpolate_rows and
oracle_slerp_rows), byte for byte: gathering rows with take and folding the
slerp's sign into a weight must not move a single bit. Nor may the kernel's
slicing of a long call into calls of _CHUNK_ROWS rows."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import oracle_interpolate_rows, oracle_row_distances, oracle_slerp_rows
from waypoint_extraction import reconstruction
from waypoint_extraction.reconstruction import _CHUNK_ROWS, _row_distances
from waypoint_extraction.state_space import MetricConfig, _interpolate_rows, _slerp_rows

T = 90


def _same(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _unit(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def _quats(rng, family):
    """Unit quaternions whose neighbours are far apart, sign-flipped, nearly
    identical (both signs) or identical."""
    q = _unit(rng, T)
    if family == "random":
        return q
    base = np.repeat(q[::3], 3, axis=0)[:T]
    if family == "identical":
        return base
    flips = np.where(rng.random(T) < 0.5, -1.0, 1.0)[:, None]
    if family == "sign-flipped":
        return flips * base
    assert family == "near-identical"
    near = base + rng.normal(size=base.shape) * 10.0 ** rng.uniform(-16, -8, size=(T, 1))
    return flips * near / np.linalg.norm(near, axis=1)[:, None]


def _ee(rng, quats, shift=0.0):
    pos = rng.normal(scale=0.1, size=(T, 3))
    pos[10:20] = pos[10]  # a pause: degenerate chords
    return SimpleNamespace(pos=pos + shift, quat=_quats(rng, quats), grip=rng.random(T), joints=None)


def _joints(rng):
    joints = rng.normal(size=(T, 8))
    joints[30:40] = joints[30]
    return SimpleNamespace(pos=None, quat=None, grip=None, joints=joints)


def _chords(rng, n=400):
    """Rows at interior frames, at both ends, beyond either end (u clamps
    to 0 or 1) and on src == dst chords."""
    src = rng.integers(0, T - 20, n)
    dst = src + rng.integers(0, 20, n)
    t = src + (rng.random(n) * (dst - src + 1)).astype(int)
    kind = rng.integers(0, 5, n)
    t = np.where(kind == 0, src, np.where(kind == 1, dst, t))
    t = np.where(kind == 2, rng.integers(0, T, n), t)
    dst = np.where(kind == 3, src, dst)
    return t, src, dst


METRICS = {
    "ee": MetricConfig(),
    "ee-gripper": MetricConfig(include_gripper=True, gripper_weight=2.5),
    "orientation-only": MetricConfig(position_weight=0.0),
}
QUATS = ["random", "sign-flipped", "near-identical", "identical"]


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("quats", QUATS)
@pytest.mark.parametrize("metric", METRICS)
def test_row_distances_match_reference_bits(rng, metric, quats, shift):
    cfg = METRICS[metric]
    points, anchors = _ee(rng, quats, shift), _ee(rng, quats, shift)
    for cols in ((anchors, anchors), (points, anchors)):
        t, src, dst = _chords(rng)
        assert _same(_row_distances(*cols, t, src, dst, cfg), oracle_row_distances(*cols, t, src, dst, cfg))
        # scalar src and dst: many frames against one chord
        ts = np.arange(T)
        for a, b in ((5, 60), (12, 12), (10, 19), (0, 1)):
            assert _same(_row_distances(*cols, ts, a, b, cfg), oracle_row_distances(*cols, ts, a, b, cfg))


def test_row_distances_match_reference_bits_on_masked_joints(rng):
    cfg = MetricConfig(joint_mask=(1.0, 0.0, 2.0, 0.5, 0.0, 1.0, 3.0, 0.25))
    for cols in ((_joints(rng),) * 2, (_joints(rng), _joints(rng))):
        t, src, dst = _chords(rng)
        assert _same(_row_distances(*cols, t, src, dst, cfg), oracle_row_distances(*cols, t, src, dst, cfg))
        ts = np.arange(T)
        for a, b in ((3, 70), (33, 36), (31, 31)):
            assert _same(_row_distances(*cols, ts, a, b, cfg), oracle_row_distances(*cols, ts, a, b, cfg))


def _params(rng, n):
    """Parameters in (0, 1) with exact ends and values within an ulp of them."""
    u = rng.random(n)
    u[::7], u[1::7] = 0.0, 1.0
    u[2::7], u[3::7] = 2.0**-53, 1.0 - 2.0**-53
    return u


@pytest.mark.parametrize("quats", QUATS)
def test_slerp_rows_match_reference_bits(rng, quats):
    qa, qb = _quats(rng, quats), _quats(rng, quats)[::-1].copy()
    qb[::2] = qa[::2] * np.where(rng.random((T + 1) // 2) < 0.5, -1.0, 1.0)[:, None]
    u = _params(rng, T)
    cases = [(qa, qb), (qa[[4]], qb), (qa, qb[4]), (qa[4], qb[4]), (qa[[4]], -qa[[4]]), (qa[4], qa[[5]])]
    for a, b in cases:
        assert _same(_slerp_rows(a, b, u), oracle_slerp_rows(a, b, u))
    # one-row endpoints at one parameter, as the scalar interpolate calls it
    for k in range(T):
        a, b, w = qa[[k]], qb[[k]], u[[k]]
        assert _same(_slerp_rows(a, b, w), oracle_slerp_rows(a, b, w))


@pytest.mark.parametrize("quats", QUATS)
def test_interpolate_rows_match_reference_bits(rng, quats):
    a, b = _ee(rng, quats, 1e6), _ee(rng, quats)
    start = {"pos": a.pos, "quat": a.quat, "grip": a.grip}
    end = {"pos": b.pos, "quat": b.quat, "grip": b.grip}
    u = _params(rng, T)
    one = {name: column[[3]] for name, column in start.items()}
    joints = {"joints": _joints(rng).joints}
    for x, y in ((start, end), (one, end), (joints, {"joints": _joints(rng).joints})):
        got, want = _interpolate_rows(x, y, u), oracle_interpolate_rows(x, y, u)
        assert got.keys() == want.keys()
        assert all(_same(got[name], want[name]) for name in want)


@pytest.mark.parametrize("metric", ["ee", "ee-gripper"])
def test_a_long_call_is_its_slices_and_stays_small(rng, metric):
    cfg = METRICS[metric]
    cols = (_ee(rng, "sign-flipped"),) * 2
    n = 20_000
    t, src, dst = _chords(rng, n)
    # per-row chords, and one chord whose scalar ends broadcast past one slice
    for src, dst in ((src, dst), (5, 60)):
        tracemalloc.start()
        try:
            rows = _row_distances(*cols, t, src, dst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, n, _CHUNK_ROWS)]
        ends = [(src, dst) if np.ndim(src) == 0 else (src[k], dst[k]) for k in parts]
        slices = [_row_distances(*cols, t[k], *end, cfg) for k, end in zip(parts, ends)]
        assert _same(rows, np.concatenate(slices))
        # unsliced, the 20,000 rows trace 6.9 MB
        assert peak < 2 * 2**20


def test_no_rows_make_no_kernel_call(rng, monkeypatch):
    def unreachable(*args):
        raise AssertionError("kernel called on no rows")

    monkeypatch.setattr(reconstruction, "_interpolate_rows", unreachable)
    cols = (_ee(rng, "random"),) * 2
    for src, dst in ((np.array([], dtype=int),) * 2, (5, 60)):
        assert _same(_row_distances(*cols, np.array([], dtype=int), src, dst, MetricConfig()), np.empty(0))
