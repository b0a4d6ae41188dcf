"""Minimum-cardinality waypoint selection under a segment error budget.

A subsequence of frame indices is feasible when every consecutive pair, read
as a chord over the original frames between them, keeps its segment loss
within the budget. The solver returns the smallest feasible subsequence that
contains both endpoints, breaking ties toward the lexicographically smallest
index sequence so results are reproducible.

The search is a breadth-first minimum-node path over the chord feasibility
graph, which optimizes the same segment-decomposed objective as the
recursive split-and-merge formulation. A sound reach horizon per frame
(SegmentScorer.horizon) limits the chords a frame can start, so each BFS
layer screens and checks O(T W) chords rather than O(T^2) when the
weighted position term moves. extract_waypoints_bruteforce is the
independent check: it enumerates subsequences by cardinality and must
agree with the solver.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .reconstruction import SegmentScorer, _batches, _checked_indices, _ranks
from .state_space import DEFAULT_METRIC, MetricConfig, Trajectory

__all__ = [
    "ErrorBudget",
    "WaypointSet",
    "SolveStats",
    "extract_waypoints_dp",
    "extract_waypoints_bruteforce",
    "sweep_eta",
    "annotate_losses",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class ErrorBudget:
    """Scalar reconstruction budget plus the distance metric it is read in."""

    eta: float
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        eta = float(self.eta)
        if not (math.isfinite(eta) and eta > 0.0):
            raise ValueError("eta must be a positive finite scalar")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class WaypointSet:
    """Strictly increasing frame indices selected as waypoints.

    Extraction records the budget it ran with and the losses it achieved;
    heuristic selectors leave those as None.
    """

    indices: tuple[int, ...]
    eta_used: float | None = None
    achieved_segment_loss: float | None = None
    achieved_global_loss: float | None = None

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        if not indices:
            raise ValueError("waypoint set cannot be empty")
        if indices[0] != 0:
            raise ValueError("waypoint set must start at frame 0")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("waypoint indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        for name in ("eta_used", "achieved_segment_loss", "achieved_global_loss"):
            v = getattr(self, name)
            if v is not None:
                v = float(v)
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(f"{name} must be finite and >= 0")
                object.__setattr__(self, name, v)
        if self.eta_used is not None and self.achieved_segment_loss is not None:
            if self.achieved_segment_loss > self.eta_used:
                raise ValueError("achieved segment loss exceeds the budget it was solved under")

    def __len__(self) -> int:
        return len(self.indices)

    def validate_for(self, traj: Trajectory) -> None:
        if self.indices[-1] != len(traj) - 1:
            raise ValueError(
                f"waypoint set ends at {self.indices[-1]} but trajectory has {len(traj)} frames"
            )


@dataclass
class SolveStats:
    """Work counters for one extraction; all but wall_time are deterministic.

    subproblems_evaluated counts frames that received a hop count (the end
    frame included). chords_screened counts (source, frontier) pairs inside
    the reach horizon, segment_loss_evaluations the non-adjacent chords that
    survived the screen and were evaluated exactly. Each BFS layer checks
    every survivor rather than stopping at a source's first feasible chord,
    so segment_loss_evaluations is larger than a first-hit search would
    report.
    """

    subproblems_evaluated: int = 0
    segment_loss_evaluations: int = 0
    chords_screened: int = 0
    bfs_layers: int = 0
    wall_time: float = 0.0


# Most (source, frontier) pairs handled at once in a BFS layer.
_PAIR_BLOCK = 1 << 15


def _min_hop_successors(scorer: SegmentScorer, eta: float, stats: SolveStats):
    """Backward BFS over feasible chords, layer by layer from frame T-1.

    A frame first reached in layer L has L chords to go, and its successor
    is the smallest frame of layer L-1 it reaches: following successors
    from frame 0 gives the lexicographically smallest minimal path. A layer
    pairs every unassigned frame i with the previous layer's frames j in
    (i, horizon[i]], screens all pairs in one pass and evaluates the
    survivors exactly in another. Adjacent chords always fit, so each layer
    reaches at least the largest unassigned frame and the search ends.

    Returns successor indices and the loss of each frame's chord to its
    successor; frames the search never reached hold -1.
    """
    T = len(scorer)
    horizon = scorer.horizon(eta)
    succ = np.full(T, -1)
    succ_loss = np.zeros(T)
    unassigned = np.arange(T - 1)
    frontier = np.array([T - 1])
    stats.subproblems_evaluated = 1
    while succ[0] < 0:
        stats.bfs_layers += 1
        first = np.searchsorted(frontier, unassigned, side="right")
        counts = np.searchsorted(frontier, horizon[unassigned], side="right") - first
        for part in _batches(counts, _PAIR_BLOCK):
            n = counts[part]
            src = np.repeat(unassigned[part], n)
            dst = frontier[np.repeat(first[part], n) + _ranks(n)]
            stats.chords_screened += src.size
            keep = scorer.probe_pass(src, dst, eta)
            src, dst = src[keep], dst[keep]
            losses = scorer.chord_losses(src, dst)
            stats.segment_loss_evaluations += int(np.count_nonzero(dst - src > 1))
            fits = losses <= eta
            src, dst, losses = src[fits], dst[fits], losses[fits]
            # pairs run by source, then by ascending frontier frame
            _, head = np.unique(src, return_index=True)
            succ[src[head]] = dst[head]
            succ_loss[src[head]] = losses[head]
        reached = succ[unassigned] >= 0
        assert reached.any(), "BFS stalled; adjacent chords guarantee progress"
        frontier = unassigned[reached]
        unassigned = unassigned[~reached]
        stats.subproblems_evaluated += frontier.size
    return succ, succ_loss


def _solve(scorer: SegmentScorer, eta: float) -> tuple[WaypointSet, SolveStats]:
    stats = SolveStats()
    start = time.perf_counter()
    T = len(scorer)
    succ, succ_loss = _min_hop_successors(scorer, eta, stats)
    indices = [0]
    while indices[-1] != T - 1:
        indices.append(int(succ[indices[-1]]))
    seg = float(succ_loss[indices[:-1]].max())
    glob = scorer.global_loss(indices)
    stats.wall_time = time.perf_counter() - start
    wp = WaypointSet(tuple(indices), eta_used=eta, achieved_segment_loss=seg, achieved_global_loss=glob)
    return wp, stats


def extract_waypoints_dp(traj: Trajectory, budget: ErrorBudget) -> tuple[WaypointSet, SolveStats]:
    """Smallest endpoint-containing waypoint subsequence whose every chord
    stays within budget.eta; deterministic for identical inputs."""
    scorer = SegmentScorer(traj, budget.metric)
    return _solve(scorer, budget.eta)


def extract_waypoints_bruteforce(traj: Trajectory, budget: ErrorBudget) -> WaypointSet:
    """Exhaustive minimal search, the cross-check for extract_waypoints_dp.

    Enumerates endpoint-containing subsequences in order of increasing
    cardinality, lexicographic within a cardinality, and returns the first
    whose chords all fit the budget. Refuses trajectories longer than
    BRUTE_FORCE_LIMIT frames.
    """
    T = len(traj)
    if T > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_LIMIT} frames, got {T}")
    scorer = SegmentScorer(traj, budget.metric)
    src, dst = np.triu_indices(T, 1)
    loss = dict(zip(zip(src.tolist(), dst.tolist()), scorer.chord_losses(src, dst).tolist()))
    interior = range(1, T - 1)
    for k in range(0, T - 1):
        for combo in itertools.combinations(interior, k):
            seq = (0, *combo, T - 1)
            chords = list(itertools.pairwise(seq))
            if all(loss[c] <= budget.eta for c in chords):
                seg = max(loss[c] for c in chords)
                return WaypointSet(seq, budget.eta, seg, scorer.global_loss(seq))
    raise AssertionError("the full frame sequence is always feasible")


def sweep_eta(
    traj: Trajectory, etas, metric: MetricConfig = DEFAULT_METRIC
) -> list[tuple[float, WaypointSet]]:
    """One extraction per budget, returned in descending budget order."""
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("sweep needs at least one eta")
    if any(not (math.isfinite(e) and e > 0.0) for e in etas):
        raise ValueError("every eta must be a positive finite scalar")
    scorer = SegmentScorer(traj, metric)
    out = []
    for eta in sorted(etas, reverse=True):
        wp, _ = _solve(scorer, eta)
        out.append((eta, wp))
    return out


def annotate_losses(traj: Trajectory, waypoints, metric: MetricConfig = DEFAULT_METRIC) -> WaypointSet:
    """Attach achieved segment and global losses to an arbitrary index set,
    e.g. one produced by a heuristic selector."""
    indices = _checked_indices(traj, waypoints)
    scorer = SegmentScorer(traj, metric)
    seg = float(scorer.chord_losses(indices[:-1], indices[1:]).max())
    glob = scorer.global_loss(indices)
    return WaypointSet(indices, eta_used=None, achieved_segment_loss=seg, achieved_global_loss=glob)
