"""Structured joint-space demonstrations for the long-extract workload.

The package's synthetic module builds structured demos only in end-effector
space; its joint-space generator is an unstructured random walk meant for
solver cross-checks. This module adds the joint-space counterpart of
make_segmented_ee_trajectory: a 7-joint arm moving piecewise-linearly between
random joint-space anchors, plus one gripper dimension that opens and closes
at anchors. Every coordinate carries band-limited Gaussian jitter, the way
teleoperated motion wobbles smoothly around its nominal path.

The gripper dimension is flagged in gripper_dims and is meant to be masked
out of the metric (weight 0 in joint_mask), which is the input property under
which position-based pruning bounds do not apply to joint space.
"""

from __future__ import annotations

import math

import numpy as np

from waypoint_extraction.state_space import Frame, JointState, StateKind, Trajectory

ARM_JOINTS = 7
GRIPPER_DIM = ARM_JOINTS
JOINT_DIM = ARM_JOINTS + 1
GRIPPER_OPEN = 0.04
GRIPPER_CLOSED = 0.0

# Jitter sigma per joint as a multiple of eta. The joint metric is a single
# L2 norm, where the end-effector metric adds a position norm and an angle,
# so the end-effector recipe of eta/5 per coordinate rarely pushes a frame
# past eta and extraction keeps little more than the anchors (about 1:40).
# At 0.3 * eta extraction lands near 1:9, inside the recommended 1:5 to 1:15
# waypoint-to-frame band; the ratio changes steeply around this value.
JITTER_PER_ETA = 0.3
JITTER_WINDOW = 3


def joint_metric_mask() -> list[float]:
    """joint_mask weights: every arm joint counts, the gripper does not."""
    mask = [1.0] * JOINT_DIM
    mask[GRIPPER_DIM] = 0.0
    return mask


def _smoothed_noise(rng: np.random.Generator, n: int, cols: int, sigma: float) -> np.ndarray:
    """Gaussian noise with marginal std sigma, moving-averaged over
    JITTER_WINDOW frames and rescaled back to sigma."""
    white = rng.normal(0.0, 1.0, size=(n + JITTER_WINDOW - 1, cols))
    kernel = np.ones(JITTER_WINDOW) / JITTER_WINDOW
    smoothed = np.stack([np.convolve(white[:, c], kernel, mode="valid") for c in range(cols)], axis=1)
    return sigma * math.sqrt(JITTER_WINDOW) * smoothed


def make_joint_demo(
    rng: np.random.Generator,
    n_segments: int,
    frames_per_segment: int = 62,
    eta: float = 0.005,
    name: str = "joint-demo",
) -> Trajectory:
    """Piecewise-linear 8-D joint demo of n_segments * frames_per_segment + 1
    frames: anchors 0.3 to 0.8 rad apart in the 7 arm joints, the gripper
    toggling at an anchor with probability 0.35."""
    if n_segments < 1 or frames_per_segment < 1:
        raise ValueError("need at least one segment of at least one frame")
    arm = [rng.uniform(-1.0, 1.0, size=ARM_JOINTS)]
    grip = [GRIPPER_OPEN]
    for _ in range(n_segments):
        step = rng.normal(size=ARM_JOINTS)
        arm.append(arm[-1] + rng.uniform(0.3, 0.8) * step / np.linalg.norm(step))
        toggle = rng.random() < 0.35
        grip.append((GRIPPER_CLOSED if grip[-1] == GRIPPER_OPEN else GRIPPER_OPEN) if toggle else grip[-1])

    nominal = []
    m = frames_per_segment
    for seg in range(n_segments):
        steps = m + 1 if seg == n_segments - 1 else m
        for s in range(steps):
            u = s / m
            g = grip[seg + 1] if u == 1.0 else grip[seg]
            nominal.append(np.append((1.0 - u) * arm[seg] + u * arm[seg + 1], g))
    values = np.asarray(nominal) + _smoothed_noise(rng, len(nominal), JOINT_DIM, JITTER_PER_ETA * eta)
    frames = tuple(Frame(t, JointState(v, (GRIPPER_DIM,))) for t, v in enumerate(values))
    return Trajectory(name, StateKind.JOINT, 50.0, frames)
