"""Synthetic demonstration generators for tests, benchmarks, and examples.

make_segmented_ee_trajectory builds reach-style demos: a handful of straight
segments between random pose anchors, slerped orientation, occasional
gripper toggles, and Gaussian jitter on every pose coordinate of every
frame. The jitter has marginal sigma = eta/5 per coordinate and is
band-limited with a short moving average, the way teleoperated motion
wobbles smoothly around its nominal path rather than flickering per frame.
make_random_walk_trajectory produces small unstructured trajectories in
either state space for solver cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .state_space import (
    StateKind,
    Trajectory,
    axis_angle_to_quaternion,
    canonicalize_quaternion,
    quaternion_multiply,
    quaternion_slerp,
    quaternion_to_axis_angle,
)

__all__ = [
    "make_segmented_ee_trajectory",
    "make_corpus",
    "make_random_walk_trajectory",
]

GRIPPER_OPEN = 0.06
GRIPPER_CLOSED = 0.01


def _random_unit(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


# Frames the jitter is moving-averaged over.
_NOISE_WINDOW = 3


def _band_limited_noise(rng: np.random.Generator, n: int, cols: int, sigma: float) -> np.ndarray:
    """Gaussian noise with marginal std sigma per column, smoothed by a
    moving average over _NOISE_WINDOW frames."""
    if sigma == 0.0:
        return np.zeros((n, cols))
    white = rng.normal(0.0, 1.0, size=(n + _NOISE_WINDOW - 1, cols))
    kernel = np.ones(_NOISE_WINDOW) / _NOISE_WINDOW
    smoothed = np.stack([np.convolve(white[:, c], kernel, mode="valid") for c in range(cols)], axis=1)
    # the box filter shrinks the variance by 1/window; rescale it back
    return sigma * math.sqrt(_NOISE_WINDOW) * smoothed


def make_segmented_ee_trajectory(
    rng: np.random.Generator,
    eta: float = 0.005,
    n_segments: int | None = None,
    frames_per_segment=None,
    name: str = "demo",
) -> Trajectory:
    """Piecewise-linear end-effector demo at 50 Hz with per-frame pose jitter.

    Defaults follow the synthetic benchmark recipe: 4 to 8 segments of 40 to
    80 frames each, anchors a few decimeters apart, and Gaussian jitter of
    marginal sigma = eta/5 on each position and axis-angle coordinate,
    band-limited over 3 frames. At the default budget this lands
    extractions in the recommended one-waypoint-per-5-to-15-frames band.
    """
    if n_segments is None:
        n_segments = int(rng.integers(4, 9))
    if frames_per_segment is None:
        frames_per_segment = [int(rng.integers(40, 81)) for _ in range(n_segments)]
    elif np.isscalar(frames_per_segment):
        frames_per_segment = [int(frames_per_segment)] * n_segments

    positions = [rng.uniform(-0.2, 0.2, size=3)]
    orientations = [_random_quaternion(rng)]
    grippers = [GRIPPER_OPEN]
    for _ in range(n_segments):
        positions.append(positions[-1] + rng.uniform(0.2, 0.5) * _random_unit(rng))
        turn = axis_angle_to_quaternion(rng.uniform(0.3, 0.9) * _random_unit(rng))
        orientations.append(quaternion_multiply(turn, orientations[-1]))
        if rng.random() < 0.35:
            grippers.append(GRIPPER_CLOSED if grippers[-1] == GRIPPER_OPEN else GRIPPER_OPEN)
        else:
            grippers.append(grippers[-1])

    pos, axis_angle, grip = [], [], []
    for seg in range(n_segments):
        m = frames_per_segment[seg]
        steps = m + 1 if seg == n_segments - 1 else m
        for s in range(steps):
            u = s / m
            pos.append((1.0 - u) * positions[seg] + u * positions[seg + 1])
            quat = quaternion_slerp(orientations[seg], orientations[seg + 1], u)
            axis_angle.append(quaternion_to_axis_angle(quat))
            grip.append(grippers[seg + 1] if u == 1.0 else grippers[seg])

    noise = _band_limited_noise(rng, len(grip), 6, eta / 5.0)
    return Trajectory.from_columns(
        name, StateKind.EE, 50.0, np.arange(len(grip)),
        pos=np.array(pos) + noise[:, :3], axis_angle=np.array(axis_angle) + noise[:, 3:], grip=grip,
    )


def make_corpus(rng: np.random.Generator, n: int, eta: float = 0.005) -> list[Trajectory]:
    """A batch of segmented demos named demo-000, demo-001, ..."""
    return [make_segmented_ee_trajectory(rng, eta=eta, name=f"demo-{i:03d}") for i in range(n)]


def make_random_walk_trajectory(
    rng: np.random.Generator,
    length: int,
    kind: StateKind = StateKind.EE,
    name: str = "walk",
    joint_dim: int = 7,
    pause_prob: float = 0.1,
) -> Trajectory:
    """Small unstructured trajectory: a random walk with occasional repeated
    frames so degenerate chords get exercised too."""
    if length < 2:
        raise ValueError("length must be >= 2")
    kind = StateKind(kind)
    times = np.arange(length)
    if kind is StateKind.EE:
        pos = rng.uniform(-0.5, 0.5, size=3)
        quat = _random_quaternion(rng)
        grip = float(rng.uniform(0.0, 0.08))
        rows = []
        for t in range(length):
            if t > 0 and rng.random() >= pause_prob:
                pos = pos + rng.normal(0.0, 0.25, size=3)
                turn = axis_angle_to_quaternion(abs(rng.normal(0.0, 0.3)) * _random_unit(rng))
                quat = quaternion_multiply(turn, quat)
                grip = float(np.clip(grip + rng.normal(0.0, 0.01), 0.0, 0.08))
            rows.append((pos, canonicalize_quaternion(quat), grip))
        positions, quats, grips = zip(*rows)
        axis_angles = [quaternion_to_axis_angle(q) for q in quats]
        return Trajectory.from_columns(name, kind, 50.0, times, pos=positions, quat=quats, grip=grips,
                                       axis_angle=axis_angles)
    joints = rng.uniform(-1.0, 1.0, size=joint_dim)
    rows = []
    for t in range(length):
        if t > 0 and rng.random() >= pause_prob:
            joints = joints + rng.normal(0.0, 0.4, size=joint_dim)
        rows.append(joints)
    return Trajectory.from_columns(name, kind, 50.0, times, joints=rows)
