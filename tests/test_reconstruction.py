import numpy as np
import pytest

from conftest import ee_state, ee_trajectory
from oracles import oracle_projection_distance, oracle_reconstruction_loss, oracle_segment_loss
from waypoint_extraction.reconstruction import SegmentScorer, _row_distances, segment_loss
from waypoint_extraction.solver import annotate_losses
from waypoint_extraction.state_space import Frame, MetricConfig, Trajectory
from waypoint_extraction.synthetic import make_random_walk_trajectory, make_segmented_ee_trajectory


def _global_loss(traj, indices) -> float:
    return SegmentScorer(traj).global_loss(list(indices))


# ---------------------------------------------------------------------------
# chord projection: segment_loss of a three-frame trajectory (a, x, b)
# ---------------------------------------------------------------------------


def _projection(x, a, b) -> float:
    """Distance of x to the chord a -> b, as segment_loss projects it."""
    return segment_loss(Trajectory("p", x.kind, 10.0, [Frame(t, s) for t, s in enumerate((a, x, b))]), 0, 2)


def test_projection_perpendicular_foot():
    assert abs(_projection(ee_state((1, 1, 0)), ee_state((0, 0, 0)), ee_state((2, 0, 0))) - 1.0) < 1e-12


def test_projection_point_on_chord():
    assert _projection(ee_state((0.75, 0, 0)), ee_state((0, 0, 0)), ee_state((2, 0, 0))) < 1e-12


def test_projection_clamps_to_endpoint():
    # unclamped, u* = -0.5 would put the foot at the frame itself
    assert abs(_projection(ee_state((-1, 0, 0)), ee_state((0, 0, 0)), ee_state((2, 0, 0))) - 1.0) < 1e-12


def test_projection_degenerate_chord():
    # u* = 0 compares against a's orientation, which x shares; u* = 1 would add 0.6 rad
    a = ee_state((1, 1, 1), (0.3, 0, 0))
    b = ee_state((1, 1, 1), (0.9, 0, 0))
    x = ee_state((1, 2, 1), (0.3, 0, 0))
    assert abs(_projection(x, a, b) - 1.0) < 1e-12


def test_projection_uses_position_for_u_but_full_state_for_distance():
    # the frame sits at the chord midpoint but its orientation differs from
    # the slerped chord orientation there
    a = ee_state((0, 0, 0), (0, 0, 0))
    b = ee_state((2, 0, 0), (0, 0, 1.0))
    x = ee_state((1, 0, 0), (0, 0, 0))
    assert abs(_projection(x, a, b) - 0.5) < 1e-9


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_projection_matches_grid_oracle(rng, kind):
    for _ in range(25):
        traj = make_random_walk_trajectory(rng, 3, kind, joint_dim=5)
        a, x, b = (traj.state(k) for k in (0, 1, 2))
        assert abs(segment_loss(traj, 0, 2) - oracle_projection_distance(x, a, b)) < 1e-6


# ---------------------------------------------------------------------------
# segment_loss
# ---------------------------------------------------------------------------


def test_segment_loss_collinear_is_zero():
    traj = ee_trajectory([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert segment_loss(traj, 0, 2) < 1e-12


def test_segment_loss_apex():
    traj = ee_trajectory([(0, 0, 0), (1, 1, 0), (2, 0, 0)])
    assert abs(segment_loss(traj, 0, 2) - 1.0) < 1e-12


def test_segment_loss_adjacent_zero(rng):
    traj = make_random_walk_trajectory(rng, 6)
    for t in range(5):
        assert segment_loss(traj, t, t + 1) == 0.0


def test_segment_loss_index_errors():
    traj = ee_trajectory([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(IndexError):
        segment_loss(traj, 0, 2)
    with pytest.raises(IndexError):
        segment_loss(traj, 1, 1)


# (src, dst) pairs that are no chord of a 41-frame trajectory: backwards,
# empty, negative (which would wrap to chord (36, 40)) and past either end
NOT_CHORDS = [(5, 3), (30, 10), (7, 7), (-5, -1), (-1, 4), (0, 41), (40, 41)]


@pytest.mark.parametrize("src, dst", NOT_CHORDS)
def test_scorer_refuses_what_is_not_a_chord(src, dst):
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), n_segments=2, frames_per_segment=20)
    assert len(traj) == 41
    scorer = SegmentScorer(traj)
    message = f"segment \\({src}, {dst}\\) out of range for trajectory of length 41"
    with pytest.raises(IndexError, match=message):
        segment_loss(traj, src, dst)
    with pytest.raises(IndexError, match=message):
        scorer.loss(src, dst)
    # the first bad chord of a batch is the one named
    for call in (scorer.chord_losses, scorer.chord_worst, lambda s, d: scorer.probe_pass(s, d, 0.1, [-1] * 3)):
        with pytest.raises(IndexError, match=message):
            call([0, src, 2], [3, dst, 40])
    with pytest.raises(IndexError, match=message):
        scorer.global_loss([src, dst])


def test_global_loss_refuses_fewer_than_two_indices():
    traj = make_segmented_ee_trajectory(np.random.default_rng(0), n_segments=2, frames_per_segment=20)
    scorer = SegmentScorer(traj)
    for indices in ([0], [], [40]):
        with pytest.raises(ValueError, match=f"a polyline needs at least 2 indices, got {len(indices)}"):
            scorer.global_loss(indices)
    with pytest.raises(IndexError, match="segment \\(20, 20\\)"):
        scorer.global_loss([0, 20, 20, 40])


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_segment_loss_matches_exhaustive_oracle(rng, kind):
    for _ in range(10):
        traj = make_random_walk_trajectory(rng, 8, kind)
        assert abs(segment_loss(traj, 0, 7) - oracle_segment_loss(traj, 0, 7)) < 1e-6


def test_scorer_matches_scalar_segment_loss(rng):
    for kind in ("ee", "joint"):
        traj = make_random_walk_trajectory(rng, 30, kind)
        scorer = SegmentScorer(traj)
        for _ in range(20):
            i = int(rng.integers(0, 29))
            j = int(rng.integers(i + 1, 31 - 1))
            assert abs(scorer.loss(i, j) - segment_loss(traj, i, j)) < 1e-11


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_batched_losses_equal_single_chord_losses_bit_for_bit(rng, kind):
    traj = make_random_walk_trajectory(rng, 60, kind, joint_dim=8)
    cfg = MetricConfig(include_gripper=True) if kind == "ee" else MetricConfig(joint_mask=(1, 0, 2, 1, 1, 0, 1, 3))
    scorer = SegmentScorer(traj, cfg)
    src, dst = np.triu_indices(60, 1)
    pick = rng.permutation(src.size)[:400]
    batched = scorer.chord_losses(src[pick], dst[pick])
    assert batched.tolist() == [scorer.loss(int(a), int(b)) for a, b in zip(src[pick], dst[pick])]


def test_probe_pass_rejects_only_chords_over_budget(rng):
    traj = make_random_walk_trajectory(rng, 50)
    scorer = SegmentScorer(traj)
    src, dst = np.triu_indices(50, 1)
    exact = scorer.chord_losses(src, dst)
    for eta in np.quantile(exact, [0.1, 0.5, 0.9]):
        keep = scorer.probe_pass(src, dst, eta, np.full(src.size, -1))
        assert np.all(keep[exact <= eta])
        assert not keep.all()


WITNESS_CASES = {
    "walk": lambda rng: (make_random_walk_trajectory(rng, 50), MetricConfig()),
    "pauses": lambda rng: (make_random_walk_trajectory(rng, 50, pause_prob=0.5), MetricConfig(include_gripper=True)),
    "orientation-only": lambda rng: (make_random_walk_trajectory(rng, 50), MetricConfig(position_weight=0.0)),
}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_probe_pass_with_witnesses_rejects_only_chords_over_budget(rng, case):
    traj, cfg = WITNESS_CASES[case](rng)
    scorer = SegmentScorer(traj, cfg)
    src, dst = np.triu_indices(50, 1)
    exact, worst = scorer.chord_worst(src, dst)
    # knife-edge budgets, each equal to some chord's loss
    for eta in np.sort(exact)[[src.size // 10, src.size // 2, 9 * src.size // 10]]:
        # -1, frames inside and outside each chord, out of range
        witness = rng.integers(-1, 52, size=src.size)
        keep = scorer.probe_pass(src, dst, eta, witness)
        assert np.all(keep[exact <= eta])
        # a chord's own worst frame rejects exactly the chords over eta
        before = scorer.witness_rejects
        keep = scorer.probe_pass(src, dst, eta, worst)
        assert keep.tolist() == (exact <= eta).tolist()
        assert scorer.witness_rejects - before == np.count_nonzero(exact > eta)


def test_probe_pass_ignores_witnesses_outside_the_chord(rng):
    traj = make_random_walk_trajectory(rng, 40)
    scorer = SegmentScorer(traj)
    src, dst = np.triu_indices(40, 1)
    eta = float(np.median(scorer.chord_losses(src, dst)))
    outside = np.where(rng.random(src.size) < 0.5, src, dst)
    none = scorer.probe_pass(src, dst, eta, np.full(src.size, -1))
    for witness in (outside, np.where(outside == src, src - 1, dst + 1)):
        assert scorer.probe_pass(src, dst, eta, witness).tolist() == none.tolist()
    assert scorer.witness_rejects == 0


@pytest.mark.parametrize("case", sorted(WITNESS_CASES) + ["joint"])
def test_chord_worst_is_the_first_frame_at_the_loss(rng, case):
    if case == "joint":
        traj, cfg = make_random_walk_trajectory(rng, 50, "joint", joint_dim=5), MetricConfig(joint_mask=(1, 0, 2, 1, 1))
    else:
        traj, cfg = WITNESS_CASES[case](rng)
    scorer = SegmentScorer(traj, cfg)
    src, dst = np.triu_indices(50, 1)
    losses, worst = scorer.chord_worst(src, dst)
    assert losses.tolist() == scorer.chord_losses(src, dst).tolist()
    ties = 0
    for a, b, loss, w in zip(src.tolist(), dst.tolist(), losses.tolist(), worst.tolist()):
        if b - a == 1:
            assert (loss, w) == (0.0, -1)
            continue
        rows = scorer._rows(np.arange(a + 1, b), a, b)
        assert rows.max() == loss
        assert w == a + 1 + int(np.argmax(rows))
        ties += int(np.count_nonzero(rows == loss)) > 1
    if case == "pauses":
        assert ties, "repeated frames should tie some chords' worst rows"


# ---------------------------------------------------------------------------
# global reconstruction loss
# ---------------------------------------------------------------------------


def test_reconstruction_loss_all_frames_zero(rng):
    traj = make_random_walk_trajectory(rng, 12)
    assert _global_loss(traj, range(12)) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_all_frames_global_loss_is_exactly_zero(seed):
    traj = make_segmented_ee_trajectory(np.random.default_rng(seed))
    assert annotate_losses(traj, range(len(traj))).achieved_global_loss == 0.0


@pytest.mark.parametrize("kind, metric", [
    ("ee", MetricConfig(include_gripper=True, gripper_weight=3.0)),
    ("joint", MetricConfig()),
])
def test_kernel_distance_of_a_chord_end_is_exactly_zero(rng, kind, metric):
    # u clips to 0 or 1 there: the row is compared with the end frame itself,
    # not with a + 1.0 * (b - a) or a renormalized slerp
    traj = make_random_walk_trajectory(rng, 300, kind)
    for hop in (1, 2, 5):
        src = np.arange(len(traj) - hop)
        dst = src + hop
        assert not _row_distances(traj, traj, src, src, dst, metric).any()
        assert not _row_distances(traj, traj, dst, src, dst, metric).any()


def test_reconstruction_loss_straight_line_endpoints():
    traj = ee_trajectory([(t, 0, 0) for t in range(8)])
    assert _global_loss(traj, [0, 7]) < 1e-12


def test_reconstruction_loss_requires_endpoints(rng):
    traj = make_random_walk_trajectory(rng, 6)
    with pytest.raises(ValueError, match="ends at 3 but trajectory has 6 frames"):
        annotate_losses(traj, [0, 3])
    with pytest.raises(ValueError, match="must start at frame 0"):
        annotate_losses(traj, [1, 5])


@pytest.mark.parametrize("kind", ["ee", "joint"])
def test_reconstruction_loss_matches_double_loop_oracle(rng, kind):
    for _ in range(8):
        traj = make_random_walk_trajectory(rng, 10, kind)
        interior = sorted(rng.choice(np.arange(1, 9), size=int(rng.integers(0, 4)), replace=False).tolist())
        indices = [0] + interior + [9]
        ours = _global_loss(traj, indices)
        ref = oracle_reconstruction_loss(traj, indices)
        assert abs(ours - ref) < 1e-6


def test_global_loss_bounded_by_segment_losses(rng):
    for _ in range(15):
        traj = make_random_walk_trajectory(rng, 14)
        interior = sorted(rng.choice(np.arange(1, 13), size=3, replace=False).tolist())
        indices = [0] + interior + [13]
        glob = _global_loss(traj, indices)
        seg_max = max(segment_loss(traj, a, b) for a, b in zip(indices, indices[1:]))
        assert glob <= seg_max + 1e-9


def test_refining_to_all_frames_reaches_zero(rng):
    for _ in range(10):
        traj = make_random_walk_trajectory(rng, 14)
        assert _global_loss(traj, range(14)) < 1e-12


def test_waypoint_refinement_is_not_always_monotone(rng):
    # inserting a waypoint replaces a chord, and a frame that projected well
    # onto the removed chord can end up farther from both replacements; this
    # pins a concrete such case so the behavior stays intentional
    increased = False
    for _ in range(30):
        traj = make_random_walk_trajectory(rng, 14)
        base = [0, 6, 13]
        before = _global_loss(traj, base)
        extra = int(rng.integers(1, 13))
        after = _global_loss(traj, sorted(set(base) | {extra}))
        if after > before + 1e-9:
            increased = True
            ref_before = oracle_reconstruction_loss(traj, base)
            ref_after = oracle_reconstruction_loss(traj, sorted(set(base) | {extra}))
            assert ref_after > ref_before + 1e-9
            break
    assert increased


def test_losses_translation_invariant(rng):
    traj = make_random_walk_trajectory(rng, 12)
    shift = np.array([3.0, -2.0, 1.0])
    shifted = ee_trajectory(
        [f.state.position + shift for f in traj.frames],
        axis_angles=[f.state.axis_angle() for f in traj.frames],
    )
    assert abs(segment_loss(traj, 0, 11) - segment_loss(shifted, 0, 11)) < 1e-9
    assert abs(_global_loss(traj, [0, 5, 11]) - _global_loss(shifted, [0, 5, 11])) < 1e-9


def test_gripper_weight_affects_losses_when_enabled():
    traj = ee_trajectory(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        grippers=[0.0, 0.08, 0.0],
    )
    assert segment_loss(traj, 0, 2) < 1e-12
    cfg = MetricConfig(include_gripper=True)
    assert abs(segment_loss(traj, 0, 2, cfg) - 0.08) < 1e-12
