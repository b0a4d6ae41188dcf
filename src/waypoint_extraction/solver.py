"""Minimum-cardinality waypoint selection under a segment error budget.

A subsequence of frame indices is feasible when every consecutive pair, read
as a chord over the original frames between them, keeps its segment loss
within the budget. The solver returns the smallest feasible subsequence that
contains both endpoints, breaking ties toward the lexicographically smallest
index sequence so results are reproducible.

The search classifies chords in rounds from two fronts at once. A sound
reach horizon per frame (SegmentScorer.horizon) limits the chords a frame
can start, so O(T W) chords are candidates rather than O(T^2) when the
weighted position term moves. The span front takes them shortest first,
each first tried at the worst frame of a shorter failed chord from the same
source, which rejects most failing chords in one row when feasible spans
are short. The BFS front is a breadth-first search from the end that gives
frames their hop counts level by level and stops as soon as frame 0 has
one, which bounds the work when feasible chords are long and waypoints few.
When the span front finishes first, a backward DP over its feasible chords
gives the remaining frames their hop counts. Both optimize the same
segment-decomposed objective as the recursive split-and-merge formulation.
extract_waypoints_bruteforce is the independent check: it enumerates
subsequences by cardinality and must agree with the solver.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .reconstruction import _CHUNK_ROWS, SegmentScorer, _ranks
from .state_space import DEFAULT_METRIC, MetricConfig, Trajectory, _count, _finite_scalar

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
        object.__setattr__(self, "eta", _finite_scalar(self.eta, "eta", positive=True))


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
        indices = tuple(_count(i, "waypoint indices", least=0) for i in self.indices)
        if not indices:
            raise ValueError("waypoint set cannot be empty")
        if indices[0] != 0:
            raise ValueError("waypoint set must start at frame 0")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("waypoint indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        for name in ("eta_used", "achieved_segment_loss", "achieved_global_loss"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_scalar(getattr(self, name), name, positive=name == "eta_used"))
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

    chords_screened counts the non-adjacent chords classified, each at most
    once. witness_rejects counts those rejected by their source's witness
    row, segment_loss_evaluations those that passed the witness row and the
    three-probe screen and were evaluated exactly. subproblems_evaluated
    counts the frames given a hop count (the end frame included), and
    bfs_layers the chords of the minimal path, len(waypoints) - 1.
    """

    subproblems_evaluated: int = 0
    segment_loss_evaluations: int = 0
    chords_screened: int = 0
    witness_rejects: int = 0
    bfs_layers: int = 0
    wall_time: float = 0.0


def _classify(scorer: SegmentScorer, src, dst, eta: float, witness, stats: SolveStats) -> np.ndarray:
    """Positions k of the chords (src[k], dst[k]), none adjacent, within eta.

    probe_pass rejects a chord whose witness row or one of its three probe
    rows is over eta; every such row is a row of the chord's exact loss, so
    only chords over eta are rejected. The survivors are checked exactly
    (SegmentScorer.chord_worst). A failing chord's worst frame becomes its
    source's witness; of several failing chords of one source, the last one
    in the batch sets it.
    """
    stats.chords_screened += src.size
    kept = np.flatnonzero(scorer.probe_pass(src, dst, eta, witness[src]))
    stats.segment_loss_evaluations += kept.size
    losses, worst = scorer.chord_worst(src[kept], dst[kept])
    fits = losses <= eta
    failed, worst = src[kept[~fits]][::-1], worst[~fits][::-1]
    _, last = np.unique(failed, return_index=True)
    witness[failed[last]] = worst[last]
    return kept[fits]


def _min_hop_path(scorer: SegmentScorer, eta: float, stats: SolveStats) -> list[int]:
    """The lexicographically smallest minimum-hop path from frame 0 to frame
    T-1 over the chords within eta.

    Only chords (i, j) with j <= horizon[i] can fit, and adjacent chords
    always do. Rounds classify them from two fronts in shared kernel calls,
    each chord at most once:
    - the span front takes consecutive spans j - i, shortest first, a round
      holding at least _CHUNK_ROWS chords, between frames without a hop
      count. Shortest first, a source's witness (the worst frame of a chord
      of it that failed) is mostly interior to its next chords, and most
      chords that fail do so at that row;
    - the BFS front is a breadth-first search from frame T-1: round L gives
      hop count L to every frame with a chord within eta to the frontier
      (the frames given L - 1 in the round before), and the smallest such
      frame as its successor. Chords no longer than the span front's spans
      so far were classified already, while both ends had no hop count; the
      longer ones are checked per source in ascending order, in waves that
      give each source an equal share of _CHUNK_ROWS chords (at least one),
      and a source stops at its first fit.
    The search stops once frame 0 has a hop count, so inputs with few
    waypoints and long feasible chords take few rounds. Otherwise the span
    front runs out first: every chord from a frame without a hop count is
    classified by then, and a backward DP over them finishes the job.
    Either way this is the path the brute-force oracle finds first: a frame
    that gets hop count L steps to the smallest frame of hop count L - 1 it
    reaches, and the DP's successor is the smallest frame of minimal hop
    count, so following successors from frame 0 picks, at every step, the
    smallest frame that still completes a minimal path.
    """
    T = len(scorer)
    rejects = scorer.witness_rejects
    horizon = scorer.horizon(eta)
    reach = horizon - np.arange(T)
    # sources by decreasing reach: the counts[s - 2] reaching span s come first
    order = np.argsort(-reach, kind="stable")
    counts = np.cumsum(np.bincount(reach, minlength=2)[::-1])[::-1][2:]
    ends = np.cumsum(counts)
    hops = np.full(T, -1)
    hops[-1] = 0
    succ = np.arange(1, T + 1)
    witness = np.full(T, -1)
    # feasible span-front chords whose source has no hop count yet
    known_src = known_dst = np.empty(0, dtype=np.intp)
    frontier = np.array([T - 1])
    level = lo = 0
    while hops[0] < 0 and lo < counts.size:
        level += 1
        free = hops < 0
        # span front: spans lo + 2 .. hi + 2, the fewest that hold _CHUNK_ROWS chords
        hi = min(int(np.searchsorted(ends, ends[lo] - counts[lo] + _CHUNK_ROWS)), counts.size - 1)
        n = counts[lo : hi + 1]
        src = order[_ranks(n)]
        dst = src + np.repeat(np.arange(lo + 2, hi + 3), n)
        both = free[src] & free[dst]
        src, dst = src[both], dst[both]
        # BFS front: successors among the chords classified so far, then a
        # cursor per source over the frontier frames beyond span lo + 1
        sources = np.flatnonzero(free)
        on_frontier = np.zeros(T, dtype=bool)
        on_frontier[frontier] = True
        best = np.full(T, T)
        adjacent = sources[on_frontier[sources + 1]]
        best[adjacent] = adjacent + 1
        into = on_frontier[known_dst]
        np.minimum.at(best, known_src[into], known_dst[into])
        cursor = np.searchsorted(frontier, sources + lo + 1, side="right")
        stop = np.searchsorted(frontier, horizon[sources], side="right")
        pending = np.flatnonzero((best[sources] == T) & (cursor < stop))
        lo = hi + 1
        span_chords = src.size
        while span_chords or pending.size:
            take = np.minimum(max(1, _CHUNK_ROWS // max(pending.size, 1)), stop[pending] - cursor[pending])
            src = np.concatenate([src, np.repeat(sources[pending], take)])
            dst = np.concatenate([dst, frontier[np.repeat(cursor[pending], take) + _ranks(take)]])
            cursor[pending] += take
            fit = _classify(scorer, src, dst, eta, witness, stats)
            known_src = np.concatenate([known_src, src[fit[fit < span_chords]]])
            known_dst = np.concatenate([known_dst, dst[fit[fit < span_chords]]])
            fit = fit[fit >= span_chords]
            np.minimum.at(best, src[fit], dst[fit])
            pending = pending[(best[sources[pending]] == T) & (cursor[pending] < stop[pending])]
            src, dst, span_chords = src[:0], dst[:0], 0
        frontier = np.flatnonzero(best < T)
        hops[frontier] = level
        succ[frontier] = best[frontier]
        free = hops[known_src] < 0
        known_src, known_dst = known_src[free], known_dst[free]
    stats.witness_rejects = scorer.witness_rejects - rejects
    stats.subproblems_evaluated = int(np.count_nonzero(hops >= 0))
    succ = succ.tolist()
    if hops[0] < 0:
        _finish_backward(hops.tolist(), succ, known_src, known_dst, stats)
    path = [0]
    while path[-1] != T - 1:
        path.append(succ[path[-1]])
    stats.bfs_layers = len(path) - 1
    return path


def _finish_backward(hops: list[int], succ: list[int], src, dst, stats: SolveStats) -> None:
    """Give every frame without a hop count (hops[i] < 0) its hop count and
    successor, in place, from its feasible chords (src, dst) plus the
    adjacent chord: backward, hops[i] = 1 + min hops[j], and succ[i] the
    smallest such j. Every chord from these frames must be classified.
    """
    T = len(hops)
    order = np.lexsort((dst, src))
    first = np.searchsorted(src[order], np.arange(T + 1)).tolist()
    targets = dst[order].tolist()
    rest = [i for i in range(T - 2, -1, -1) if hops[i] < 0]
    for i in rest:
        # min keeps the first of equal hop counts, and targets ascend
        j = min([i + 1, *targets[first[i] : first[i + 1]]], key=hops.__getitem__)
        hops[i], succ[i] = hops[j] + 1, j
    stats.subproblems_evaluated += len(rest)


def _with_losses(scorer: SegmentScorer, indices, eta: float | None = None) -> WaypointSet:
    """The waypoint set of indices, solved under eta when given, with its
    achieved losses: the largest chord loss and the global loss."""
    indices = tuple(indices)
    seg = float(scorer.chord_losses(indices[:-1], indices[1:]).max())
    return WaypointSet(indices, eta, seg, scorer.global_loss(indices))


def _solve(scorer: SegmentScorer, eta: float) -> tuple[WaypointSet, SolveStats]:
    stats = SolveStats()
    start = time.perf_counter()
    wp = _with_losses(scorer, _min_hop_path(scorer, eta, stats), eta)
    stats.wall_time = time.perf_counter() - start
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
        raise ValueError(f"brute force is limited to T <= {BRUTE_FORCE_LIMIT} frames, got {T}")
    scorer = SegmentScorer(traj, budget.metric)
    src, dst = np.triu_indices(T, 1)
    loss = dict(zip(zip(src.tolist(), dst.tolist()), scorer.chord_losses(src, dst).tolist()))
    interior = range(1, T - 1)
    for k in range(0, T - 1):
        for combo in itertools.combinations(interior, k):
            seq = (0, *combo, T - 1)
            if all(loss[c] <= budget.eta for c in itertools.pairwise(seq)):
                return _with_losses(scorer, seq, budget.eta)
    raise AssertionError("the full frame sequence is always feasible")


def sweep_eta(
    traj: Trajectory, etas, metric: MetricConfig = DEFAULT_METRIC
) -> list[tuple[float, WaypointSet]]:
    """One extraction per budget, returned in descending budget order."""
    etas = [_finite_scalar(e, "every eta", positive=True) for e in etas]
    if not etas:
        raise ValueError("sweep needs at least one eta")
    scorer = SegmentScorer(traj, metric)
    out = []
    for eta in sorted(etas, reverse=True):
        wp, _ = _solve(scorer, eta)
        out.append((eta, wp))
    return out


def annotate_losses(traj: Trajectory, waypoints, metric: MetricConfig = DEFAULT_METRIC) -> WaypointSet:
    """Attach achieved segment and global losses to an arbitrary index set,
    e.g. one produced by a heuristic selector. The indices must run from 0
    to the trajectory's last frame, strictly increasing."""
    wp = WaypointSet(getattr(waypoints, "indices", waypoints))
    wp.validate_for(traj)
    return _with_losses(SegmentScorer(traj, metric), wp.indices)
