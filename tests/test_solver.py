import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ee_trajectory, joint_trajectory
from oracles import oracle_pairwise_horizon, oracle_reconstruction_loss
from waypoint_extraction import reconstruction, solver
from waypoint_extraction.reconstruction import SegmentScorer, _position_coords, _reach_horizon, segment_loss
from waypoint_extraction.solver import (
    BRUTE_FORCE_LIMIT,
    ErrorBudget,
    WaypointSet,
    annotate_losses,
    extract_waypoints_bruteforce,
    extract_waypoints_dp,
    sweep_eta,
)
from waypoint_extraction.state_space import EEState, Frame, MetricConfig, StateKind, Trajectory
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def l_path_trajectory():
    # unit steps along x then along y, corner at index 5
    pts = [(t, 0, 0) for t in range(6)] + [(5, t, 0) for t in range(1, 6)]
    return ee_trajectory(pts)


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_collinear_needs_endpoints_only():
    traj = ee_trajectory([(t, 0, 0) for t in range(10)])
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(1e-6))
    assert wp.indices == (0, 9)


def test_l_path_forces_corner():
    wp, _ = extract_waypoints_dp(l_path_trajectory(), ErrorBudget(0.1))
    assert wp.indices == (0, 5, 10)


def test_bruteforce_two_frames():
    traj = ee_trajectory([(0, 0, 0), (1, 0, 0)])
    assert extract_waypoints_bruteforce(traj, ErrorBudget(0.5)).indices == (0, 1)


def test_bruteforce_l_path_cardinality():
    assert len(extract_waypoints_bruteforce(l_path_trajectory(), ErrorBudget(0.1))) == 3


def test_bruteforce_refuses_long_input(rng):
    traj = make_random_walk_trajectory(rng, BRUTE_FORCE_LIMIT + 1)
    with pytest.raises(ValueError, match="limited"):
        extract_waypoints_bruteforce(traj, ErrorBudget(0.1))


# ---------------------------------------------------------------------------
# dp vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_dp_matches_bruteforce(rng, kind):
    for _ in range(50):
        T = int(rng.integers(3, 13))
        traj = make_random_walk_trajectory(rng, T, kind, joint_dim=int(rng.choice([2, 7])))
        eta = float(np.exp(rng.uniform(np.log(5e-4), np.log(3.0))))
        budget = ErrorBudget(eta)
        wp, _ = extract_waypoints_dp(traj, budget)
        brute = extract_waypoints_bruteforce(traj, budget)
        assert len(wp) == len(brute)
        # both use the same tie rule, so the index sequences agree too
        assert wp.indices == brute.indices


def test_dp_matches_bruteforce_at_knife_edge_budgets(rng):
    # a budget exactly equal to some chord's loss once made the screening
    # probe (different rounding than the exact kernel) drop a feasible edge
    for _ in range(60):
        T = int(rng.integers(3, 14))
        traj = make_random_walk_trajectory(rng, T)
        scorer = SegmentScorer(traj)
        a = int(rng.integers(0, T - 1))
        b = int(rng.integers(a + 1, T))
        eta = scorer.loss(a, b) or 1e-6
        budget = ErrorBudget(eta)
        wp, _ = extract_waypoints_dp(traj, budget)
        brute = extract_waypoints_bruteforce(traj, budget)
        assert wp.indices == brute.indices


# ---------------------------------------------------------------------------
# contracts and properties
# ---------------------------------------------------------------------------


def test_every_segment_within_budget(rng):
    for _ in range(20):
        traj = make_random_walk_trajectory(rng, int(rng.integers(6, 25)))
        eta = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta))
        for a, b in zip(wp.indices, wp.indices[1:]):
            assert segment_loss(traj, a, b) <= eta + 1e-12
        assert wp.achieved_segment_loss <= eta
        assert wp.achieved_global_loss <= wp.achieved_segment_loss + 1e-12


def test_endpoints_always_included(rng):
    for _ in range(10):
        T = int(rng.integers(3, 30))
        traj = make_random_walk_trajectory(rng, T)
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.5))
        assert wp.indices[0] == 0
        assert wp.indices[-1] == T - 1


def test_deterministic(rng):
    traj = make_random_walk_trajectory(rng, 25)
    a, _ = extract_waypoints_dp(traj, ErrorBudget(0.3))
    b, _ = extract_waypoints_dp(traj, ErrorBudget(0.3))
    assert a.indices == b.indices


def test_translation_invariance(rng):
    traj = make_random_walk_trajectory(rng, 20)
    shift = np.array([5.0, -3.0, 2.0])
    shifted = Trajectory(
        traj.name,
        StateKind.EE,
        traj.frequency_hz,
        tuple(
            Frame(f.t, EEState(f.state.position + shift, f.state.orientation, f.state.gripper))
            for f in traj.frames
        ),
    )
    budget = ErrorBudget(0.4)
    wp, _ = extract_waypoints_dp(traj, budget)
    wp2, _ = extract_waypoints_dp(shifted, budget)
    assert wp.indices == wp2.indices


def test_monotonicity_in_eta(rng):
    for _ in range(10):
        traj = make_random_walk_trajectory(rng, int(rng.integers(10, 30)))
        etas = np.exp(np.linspace(np.log(2.0), np.log(0.01), 6))
        counts = [len(extract_waypoints_dp(traj, ErrorBudget(e))[0]) for e in etas]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


def test_idempotence_on_resampled_waypoints(rng):
    from waypoint_extraction.state_space import interpolate

    traj = make_random_walk_trajectory(rng, 18)
    eta = 0.5
    wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta))
    dense = []
    for a, b in zip(wp.indices, wp.indices[1:]):
        sa, sb = traj.frames[a].state, traj.frames[b].state
        for s in range(10):
            dense.append(interpolate(sa, sb, s / 10))
    dense.append(traj.frames[wp.indices[-1]].state)
    resampled = Trajectory(
        "resampled", StateKind.EE, 50.0, tuple(Frame(t, s) for t, s in enumerate(dense))
    )
    wp2, _ = extract_waypoints_dp(resampled, ErrorBudget(eta))
    assert len(wp2) <= len(wp)


def test_sweep_orders_descending_and_counts_monotone(rng):
    traj = make_random_walk_trajectory(rng, 25)
    results = sweep_eta(traj, [0.01, 1.0, 0.1])
    etas = [e for e, _ in results]
    assert etas == sorted(etas, reverse=True)
    counts = [len(wp) for _, wp in results]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    for eta, wp in results:
        assert wp.achieved_segment_loss <= eta


def test_sweep_dominating_budget_returns_endpoints(rng):
    traj = make_random_walk_trajectory(rng, 15)
    (eta, wp), = sweep_eta(traj, [1e6])
    assert wp.indices == (0, 14)


def test_sweep_rejects_bad_etas(rng):
    traj = make_random_walk_trajectory(rng, 8)
    with pytest.raises(ValueError):
        sweep_eta(traj, [])
    with pytest.raises(ValueError):
        sweep_eta(traj, [0.1, -1.0])


def test_stats_populated(rng):
    traj = make_random_walk_trajectory(rng, 30)
    wp, stats = extract_waypoints_dp(traj, ErrorBudget(0.2))
    assert stats.segment_loss_evaluations > 0
    assert stats.subproblems_evaluated >= len(wp)
    assert stats.wall_time >= 0.0


def test_budget_validation():
    with pytest.raises(ValueError):
        ErrorBudget(0.0)
    with pytest.raises(ValueError):
        ErrorBudget(float("nan"))


def test_waypoint_set_invariants():
    with pytest.raises(ValueError, match="start at frame 0"):
        WaypointSet((1, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        WaypointSet((0, 3, 3))
    with pytest.raises(ValueError, match="exceeds the budget"):
        WaypointSet((0, 5), eta_used=0.1, achieved_segment_loss=0.2)
    wp = WaypointSet((0, 2, 5))
    assert len(wp) == 3
    assert wp.eta_used is None


def test_annotate_losses_matches_public_ops(rng):
    traj = make_random_walk_trajectory(rng, 15)
    wp = annotate_losses(traj, [0, 7, 14])
    seg = max(segment_loss(traj, 0, 7), segment_loss(traj, 7, 14))
    assert abs(wp.achieved_segment_loss - seg) < 1e-11
    assert abs(wp.achieved_global_loss - oracle_reconstruction_loss(traj, [0, 7, 14])) < 1e-6


# ---------------------------------------------------------------------------
# reach horizon and the span-ordered chord pass on adversarial families
# ---------------------------------------------------------------------------


def _shifted(traj, offset):
    return Trajectory(
        traj.name,
        StateKind.EE,
        traj.frequency_hz,
        tuple(Frame(f.t, EEState(f.state.position + offset, f.state.orientation, f.state.gripper)) for f in traj.frames),
    )


def _small_family(name, rng):
    """(trajectory, metric) pairs for the brute-force differential."""
    T = int(rng.integers(4, 15))
    if name == "walk":
        return make_random_walk_trajectory(rng, T), MetricConfig()
    if name == "orientation-only":
        return make_random_walk_trajectory(rng, T), MetricConfig(position_weight=0.0)
    if name == "masked-joints":
        traj = make_random_walk_trajectory(rng, T, StateKind.JOINT, joint_dim=5)
        return traj, MetricConfig(joint_mask=(1.0, 0.0, 2.0, 0.0, 0.5))
    if name == "bump":
        # a still pose with one smooth detour: few waypoints, long feasible chords
        return ee_trajectory(np.c_[np.zeros(T), 0.1 * np.exp(-((12 * s - 6) ** 2)), np.zeros(T)]), MetricConfig()
    if name == "far-from-origin":
        return _shifted(make_random_walk_trajectory(rng, T), np.array([1e6, -1e6, 1e6])), MetricConfig()
    assert name == "pauses"
    return make_random_walk_trajectory(rng, T, pause_prob=0.5), MetricConfig()


@pytest.mark.parametrize("family", ["walk", "orientation-only", "masked-joints", "far-from-origin", "pauses"])
def test_dp_matches_bruteforce_on_adversarial_families(rng, family):
    for _ in range(25):
        traj, metric = _small_family(family, rng)
        scorer = SegmentScorer(traj, metric)
        a = int(rng.integers(0, len(traj) - 1))
        b = int(rng.integers(a + 1, len(traj)))
        # a random budget and a knife-edge one, equal to some chord's loss
        for eta in (float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0)))), scorer.loss(a, b) or 1e-6):
            budget = ErrorBudget(eta, metric)
            wp, _ = extract_waypoints_dp(traj, budget)
            assert wp.indices == extract_waypoints_bruteforce(traj, budget).indices


def _ee_curve(points, rng, jitter=1e-4, turns=None):
    points = np.asarray(points) + rng.normal(0.0, jitter, size=np.shape(points))
    if turns is None:
        turns = [(0.0, 0.0, 0.3 * np.sin(0.05 * t)) for t in range(len(points))]
    return ee_trajectory(points, axis_angles=turns)


def _long_family(name, rng):
    T = int(rng.integers(100, 151))
    s = np.linspace(0.0, 1.0, T)
    if name == "loops":
        w = 2 * np.pi * 3
        return _ee_curve(np.c_[0.1 * np.cos(w * s), 0.1 * np.sin(w * s), np.zeros(T)], rng), MetricConfig()
    if name == "back-and-forth":
        sweep = 0.2 * np.abs(((4 * s) % 2) - 1)
        return _ee_curve(np.c_[sweep, 0.01 * s, np.zeros(T)], rng), MetricConfig()
    if name == "helix":
        w = 2 * np.pi * 2.5
        return _ee_curve(np.c_[0.1 * np.cos(w * s), 0.1 * np.sin(w * s), 0.15 * s], rng), MetricConfig()
    if name == "orientation-only":
        traj, _ = _long_family("loops", rng)
        return traj, MetricConfig(position_weight=0.0)
    if name == "pauses":
        # the helix with runs of repeated frames
        traj, metric = _long_family("helix", rng)
        keep = np.sort(rng.integers(0, len(traj), size=len(traj)))
        frames = tuple(Frame(t, traj.frames[k].state) for t, k in enumerate(keep.tolist()))
        return Trajectory("pauses", StateKind.EE, traj.frequency_hz, frames), metric
    if name == "sign-flips":
        # rotations oscillating about pi: canonical quaternions flip sign
        turns = [(0.05 * np.sin(0.1 * t), 0.0, np.pi + 0.2 * np.sin(0.07 * t)) for t in range(T)]
        return _ee_curve(np.c_[0.1 * s, 0.02 * np.sin(6 * s), np.zeros(T)], rng, turns=turns), MetricConfig()
    if name == "bump":
        # a still pose with one smooth detour: few waypoints, long feasible chords
        return ee_trajectory(np.c_[np.zeros(T), 0.1 * np.exp(-((12 * s - 6) ** 2)), np.zeros(T)]), MetricConfig()
    if name == "far-from-origin":
        traj, metric = _long_family("loops", rng)
        return _shifted(traj, np.array([1e6, -1e6, 1e6])), metric
    assert name == "joint-loops"
    w = 2 * np.pi * 3
    joints = np.c_[np.cos(w * s), np.sin(w * s), np.sin(2 * w * s), 0.3 * s, np.cos(5 * w * s)]
    joints = joints + rng.normal(0.0, 1e-3, size=joints.shape)
    return joint_trajectory(joints), MetricConfig(joint_mask=(1.0, 1.0, 0.5, 1.0, 0.0))


def _all_chord_losses(scorer):
    """loss[i, j] for every chord; chord_losses gives scorer.loss bit for bit
    (tested in test_reconstruction) in one call."""
    T = len(scorer)
    src, dst = np.triu_indices(T, 1)
    loss = np.zeros((T, T))
    loss[src, dst] = scorer.chord_losses(src, dst)
    return loss


def _plain_min_hop_path(loss, eta):
    """O(T^2) minimum-hop DP over all chord losses with no horizon and no
    screen, taking the smallest successor among equally short completions."""
    T = len(loss)
    hops = [0] * T
    succ = [None] * T
    for i in range(T - 2, -1, -1):
        hops[i] = T
        for j in range(i + 1, T):
            if hops[j] + 1 < hops[i] and loss[i, j] <= eta:
                hops[i], succ[i] = hops[j] + 1, j
    path = [0]
    while path[-1] != T - 1:
        path.append(succ[path[-1]])
    return tuple(path)


LONG_FAMILIES = ["loops", "back-and-forth", "helix", "joint-loops"]


@pytest.mark.parametrize("family", LONG_FAMILIES + ["orientation-only", "pauses", "sign-flips", "far-from-origin", "bump"])
def test_dp_matches_plain_dp_on_long_families(rng, family):
    traj, metric = _long_family(family, rng)
    loss = _all_chord_losses(SegmentScorer(traj, metric))
    for eta in (0.002, 0.005, 0.02):
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(eta, metric))
        assert wp.indices == _plain_min_hop_path(loss, eta)


@pytest.mark.parametrize("chunk", [16, 256])
@pytest.mark.parametrize("family", LONG_FAMILIES + ["orientation-only", "pauses"])
def test_dp_matches_plain_dp_in_small_rounds(rng, family, chunk, monkeypatch):
    # rounds of a few chords interleave many span-front rounds, BFS levels
    # and waves of per-source first fits before either front finishes
    monkeypatch.setattr(solver, "_CHUNK_ROWS", chunk)
    traj, metric = _long_family(family, rng)
    loss = _all_chord_losses(SegmentScorer(traj, metric))
    finished_by_bfs = []
    for eta in (0.002, 0.02, 0.1, 0.5):
        wp, stats = extract_waypoints_dp(traj, ErrorBudget(eta, metric))
        assert wp.indices == _plain_min_hop_path(loss, eta)
        # kernel calls of a few rows each, sliced by the kernel, change
        # neither the rounds nor anything they return
        with monkeypatch.context() as patch:
            patch.setattr(reconstruction, "_CHUNK_ROWS", 7)
            sliced, sliced_stats = extract_waypoints_dp(traj, ErrorBudget(eta, metric))
        assert sliced == wp
        assert replace(sliced_stats, wall_time=0.0) == replace(stats, wall_time=0.0)
        finished_by_bfs.append(stats.subproblems_evaluated < len(traj))
    # the backward DP finishes the small budgets; with three waypoints at
    # the largest, the BFS front reaches frame 0 first on these families
    assert not finished_by_bfs[0]
    assert finished_by_bfs[-1] == (family not in ("back-and-forth", "joint-loops"))


def test_static_demo_classifies_linearly_many_chords():
    T = 2000
    traj = ee_trajectory(np.zeros((T, 3)))
    wp, stats = extract_waypoints_dp(traj, ErrorBudget(0.005))
    assert wp.indices == (0, T - 1)
    # every chord fits: checking them all would be T^2 / 2 chords
    assert stats.chords_screened <= 3 * T
    assert stats.segment_loss_evaluations <= 3 * T


def test_static_demo_builds_bounded_pairs():
    # every source's chord to the last frame fits and goes to one exact
    # check: 3.1M (frame, chord) rows, 120 MB if chord_worst built them at once
    traj = ee_trajectory(np.zeros((2500, 3)))
    tracemalloc.start()
    try:
        wp, _ = extract_waypoints_dp(traj, ErrorBudget(0.005))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wp.indices == (0, 2499)
    assert peak < 16 * 2**20


def test_large_budget_few_waypoints_classifies_linearly_many_chords():
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), eta=0.005, n_segments=16, frames_per_segment=62)
    T = len(traj)
    wp, stats = extract_waypoints_dp(traj, ErrorBudget(2.0))
    assert len(wp) <= 3
    assert SegmentScorer(traj).horizon(2.0)[0] >= T // 4
    assert stats.chords_screened <= 10 * T


@pytest.mark.parametrize("family", LONG_FAMILIES + ["segmented"])
def test_horizon_is_sound(rng, family):
    if family == "segmented":
        traj = make_segmented_ee_trajectory(rng, eta=0.005, n_segments=3, frames_per_segment=45)
        metric = MetricConfig()
    else:
        traj, metric = _long_family(family, rng)
    scorer = SegmentScorer(traj, metric)
    loss = _all_chord_losses(scorer)
    T = len(traj)
    src, dst = np.triu_indices(T, 1)
    for eta in (0.002, 0.005, 0.02, 0.1, 0.5):
        horizon = scorer.horizon(eta)
        assert np.all(horizon[:-1] > np.arange(T - 1))
        beyond = dst > horizon[src]
        assert np.all(loss[src[beyond], dst[beyond]] > eta)
        if eta <= 0.02:
            assert beyond.any(), "the horizon should cut something on this family"


@pytest.mark.parametrize("family", LONG_FAMILIES + ["pauses", "sign-flips", "far-from-origin", "bump"])
def test_horizon_is_no_tighter_than_all_pairwise_cone_tests(rng, family):
    # the scan keeps a few cones of all those the oracle tests pairwise, so
    # its bound can only be looser; both must be sound
    traj, metric = _long_family(family, rng)
    coords = _position_coords(traj, metric)
    loss = _all_chord_losses(SegmentScorer(traj, metric))
    T = len(traj)
    src, dst = np.triu_indices(T, 1)
    for eta in (0.002, 0.005, 0.02, 0.1, 0.5):
        horizon = _reach_horizon(coords, eta)
        pairwise = oracle_pairwise_horizon(coords, eta)
        assert np.all(pairwise <= horizon)
        beyond = dst > pairwise[src]
        assert np.all(loss[src[beyond], dst[beyond]] > eta)


def test_horizon_stays_narrow():
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), eta=0.005, n_segments=8, frames_per_segment=62)
    T = len(traj)
    coords = _position_coords(traj, MetricConfig())

    def window(horizon):
        return np.mean(horizon[:-1] - np.arange(T - 1))

    # at the budget the demo was made for, four cones come close to all
    # pairwise tests (34.7 against 33.8 frames)
    assert window(_reach_horizon(coords, 0.005)) <= 1.1 * window(oracle_pairwise_horizon(coords, 0.005))
    # and at ten times that budget the window stays well inside the demo
    # (139 of 497 frames)
    assert window(_reach_horizon(coords, 0.05)) < T / 3


@pytest.mark.parametrize("exponent", [10, 20])
def test_horizon_is_sound_on_tangent_cones(exponent):
    # frames alternate exactly eta above and below the x axis, so the chord
    # from the first to the last frame has loss eta and the cones of a frame
    # above and a frame below touch along that chord: without rounding
    # margins the scan reads touching cones as disjoint
    T = 200
    eta = 2.0**-exponent
    y = np.where(np.arange(T) % 2, eta, -eta)
    y[[0, -1]] = 0.0
    traj = ee_trajectory(np.c_[np.arange(T, dtype=float), y, np.zeros(T)])
    scorer = SegmentScorer(traj)
    assert scorer.loss(0, T - 1) == eta
    assert scorer.horizon(eta)[0] == T - 1


def test_horizon_without_position_term_reaches_the_end(rng):
    traj = make_random_walk_trajectory(rng, 40)
    horizon = SegmentScorer(traj, MetricConfig(position_weight=0.0)).horizon(1e-3)
    assert np.all(horizon == 39)


def test_stats_counters_pinned():
    traj = make_segmented_ee_trajectory(np.random.default_rng(7), eta=0.01, n_segments=3, frames_per_segment=40)
    wp, stats = extract_waypoints_dp(traj, ErrorBudget(0.01))
    assert (len(traj), len(wp)) == PINNED_SIZES
    assert (
        stats.subproblems_evaluated,
        stats.segment_loss_evaluations,
        stats.chords_screened,
        stats.witness_rejects,
        stats.bfs_layers,
    ) == PINNED_COUNTERS
    assert stats.witness_rejects > 0
    assert stats.bfs_layers == len(wp) - 1


PINNED_SIZES = (121, 7)
PINNED_COUNTERS = (121, 1606, 2605, 255, 6)
