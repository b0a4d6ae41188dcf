"""Acceptance suite: one test per shipped criterion.

Every test prints a single "[acceptance] criterion N: PASS/FAIL" line with
the measured numbers; run with `pytest tests/test_acceptance.py -v -s` to see
them. Tolerances are pinned here, not configurable.
"""

import json
import re
import time

import numpy as np
import pytest

from oracles import oracle_next_waypoint
from waypoint_extraction.cli import EXIT_OK, compare_selectors, main
from waypoint_extraction.defaults import TASK_ETA_DEFAULTS, resolve_task_eta
from waypoint_extraction.reconstruction import reconstruction_loss, segment_loss
from waypoint_extraction.relabel import relabel_trajectory
from waypoint_extraction.solver import (
    ErrorBudget,
    WaypointSet,
    extract_waypoints_bruteforce,
    extract_waypoints_dp,
)
from waypoint_extraction.state_space import Frame, StateKind, Trajectory
from waypoint_extraction.synthetic import (
    make_corpus,
    make_random_walk_trajectory,
    make_segmented_ee_trajectory,
)
from waypoint_extraction.trajfile import load_trajectory, save_trajectory

CORPUS_ETA = 0.005
SLACK = 1e-12


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def random_instances():
    """500 tiny random trajectories in both state spaces with log-uniform
    budgets, solved by both the DP and the brute-force enumerator."""
    rng = np.random.default_rng(11)
    instances = []
    start = time.perf_counter()
    for i in range(500):
        kind = StateKind.EE if i % 2 == 0 else StateKind.JOINT
        length = int(rng.integers(3, 13))
        traj = make_random_walk_trajectory(
            rng, length, kind, name=f"inst-{i}", joint_dim=int(rng.choice([2, 7, 14]))
        )
        eta = float(np.exp(rng.uniform(np.log(5e-4), np.log(3.0))))
        budget = ErrorBudget(eta)
        wp, _ = extract_waypoints_dp(traj, budget)
        brute = extract_waypoints_bruteforce(traj, budget)
        instances.append((traj, eta, wp, brute))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(97)
    return make_corpus(rng, 50, eta=CORPUS_ETA)


@pytest.fixture(scope="module")
def corpus_extractions(corpus):
    budget = ErrorBudget(CORPUS_ETA)
    return [(traj, extract_waypoints_dp(traj, budget)[0]) for traj in corpus]


def test_criterion_1_dp_minimality(random_instances):
    instances, elapsed = random_instances
    mismatches = sum(1 for _, _, wp, brute in instances if len(wp) != len(brute))
    ok = mismatches == 0 and elapsed <= 60.0
    report(1, ok, f"{len(instances)} instances, {mismatches} cardinality mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed <= 60.0


def test_criterion_2_constraint_satisfaction(random_instances, corpus_extractions):
    instances, _ = random_instances
    checked = 0
    violations = 0
    for traj, eta, wp, _ in instances:
        for a, b in zip(wp.indices, wp.indices[1:]):
            checked += 1
            if segment_loss(traj, a, b) > eta + SLACK:
                violations += 1
        if reconstruction_loss(traj, wp) > eta + SLACK:
            violations += 1
    for traj, wp in corpus_extractions:
        for a, b in zip(wp.indices, wp.indices[1:]):
            checked += 1
            if segment_loss(traj, a, b) > CORPUS_ETA + SLACK:
                violations += 1
        if reconstruction_loss(traj, wp) > CORPUS_ETA + SLACK:
            violations += 1
    ok = violations == 0
    report(2, ok, f"{checked} segments checked, {violations} violations at eta+1e-12")
    assert violations == 0


def test_criterion_3_eta_monotonicity():
    rng = np.random.default_rng(23)
    violations = 0
    for i in range(50):
        traj = make_random_walk_trajectory(rng, int(rng.integers(20, 51)), name=f"mono-{i}")
        etas = np.exp(np.linspace(np.log(3.0), np.log(0.03), 8))
        counts = [len(extract_waypoints_dp(traj, ErrorBudget(float(e)))[0]) for e in etas]
        violations += sum(1 for a, b in zip(counts, counts[1:]) if b < a)
    ok = violations == 0
    report(3, ok, "50 trajectories x 8 descending budgets, "
                  f"{violations} count decreases")
    assert violations == 0


def test_criterion_4_compression_band(corpus_extractions):
    ratios = np.array([len(wp) / len(traj) for traj, wp in corpus_extractions])
    in_band = float(np.mean((ratios >= 1 / 15) & (ratios <= 1 / 5)))
    compression = float(np.mean([len(traj) / len(wp) for traj, wp in corpus_extractions]))
    mean_ratio = float(ratios.mean())
    ok = in_band >= 0.90 and compression >= 5.0 and 1 / 15 <= mean_ratio <= 1 / 5
    report(
        4,
        ok,
        f"{in_band:.0%} of ratios in [1:15, 1:5], mean ratio 1:{1 / mean_ratio:.1f}, "
        f"mean compression {compression:.1f}x",
    )
    assert in_band >= 0.90
    assert compression >= 5.0
    assert 1 / 15 <= mean_ratio <= 1 / 5


def test_criterion_5_heuristic_comparison(corpus_extractions):
    wins = {"zero-vel": {"global": 0, "replay": 0, "n": 0}, "fixed": {"global": 0, "replay": 0, "n": 0}}
    unmatched = 0
    for traj, awe in corpus_extractions:
        rows = compare_selectors(traj, awe, list(wins))
        awe_dev = rows["awe"][1]
        for method in wins:
            heur, heur_dev = rows[method]
            if abs(len(heur) - len(awe)) > 2:
                unmatched += 1
                continue
            wins[method]["n"] += 1
            wins[method]["global"] += awe.achieved_global_loss <= heur.achieved_global_loss
            wins[method]["replay"] += awe_dev <= heur_dev
    ok = True
    parts = []
    for method, tally in wins.items():
        assert tally["n"] >= 40, f"{method}: only {tally['n']} matched comparisons"
        g = tally["global"] / tally["n"]
        r = tally["replay"] / tally["n"]
        parts.append(f"{method}: global {g:.0%}, replay {r:.0%} of n={tally['n']}")
        ok = ok and g >= 0.95 and r >= 0.90
    report(5, ok, "; ".join(parts) + f"; {unmatched} unmatched")
    for method, tally in wins.items():
        assert tally["global"] / tally["n"] >= 0.95
        assert tally["replay"] / tally["n"] >= 0.90


def test_criterion_6_performance_envelope(tmp_path, capsys):
    rng = np.random.default_rng(41)
    frames = [62, 62, 62, 62, 62, 62, 62, 65]  # sums to 499, so T = 500
    traj = make_segmented_ee_trajectory(
        rng, eta=CORPUS_ETA, n_segments=8, frames_per_segment=frames, name="perf-500"
    )
    assert len(traj) == 500
    path = tmp_path / "perf.json"
    save_trajectory(path, traj)
    code = main(["stats", "--input", str(path), "--eta", str(CORPUS_ETA)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    match = re.search(r"wall_time=([0-9.]+)", out)
    assert match, out
    wall = float(match.group(1))
    ok = wall <= 2.0
    report(6, ok, f"T=500 extraction via stats subcommand: {wall:.3f}s (budget 2.0s)")
    assert wall <= 2.0


def test_criterion_7_relabeling_correctness(tmp_path):
    rng = np.random.default_rng(57)
    violations = 0
    trajs = []
    for i in range(100):
        length = int(rng.integers(3, 40))
        kind = StateKind.EE if i % 2 == 0 else StateKind.JOINT
        traj = make_random_walk_trajectory(rng, length, kind, name=f"rel-{i}")
        trajs.append(traj)
        if i % 2 == 0:
            wp, _ = extract_waypoints_dp(traj, ErrorBudget(float(rng.uniform(0.05, 2.0))))
        else:
            interior = sorted(
                rng.choice(np.arange(1, length - 1), size=int(rng.integers(0, min(4, length - 2))), replace=False).tolist()
            ) if length > 2 else []
            wp = WaypointSet(tuple([0] + interior + [length - 1]))
        ds = relabel_trajectory(traj, wp)
        if len(ds) != length - 1:
            violations += 1
        for row in ds.frames:
            if row.target_index != oracle_next_waypoint(row.t, wp.indices):
                violations += 1
    # the whole corpus through the batch command: one written row per frame but the last
    (tmp_path / "in").mkdir()
    for traj in trajs:
        save_trajectory(tmp_path / "in" / f"{traj.name}.json", traj)
    code = main(["relabel", "--input", str(tmp_path / "in"), "--eta", "0.5", "--output", str(tmp_path / "out")])
    expected_rows = sum(len(t) - 1 for t in trajs)
    total_rows = sum(len(f.read_text().splitlines()) for f in (tmp_path / "out").iterdir())
    size_ok = total_rows == expected_rows and code == EXIT_OK
    ok = violations == 0 and size_ok
    report(7, ok, f"100 pairs scanned, {violations} violations; corpus rows {total_rows}/{expected_rows}")
    assert violations == 0
    assert size_ok


def test_criterion_8_defaults_fidelity(tmp_path):
    golden = {
        "lift": 0.005,
        "can": 0.005,
        "square": 0.005,
        "cube-transfer": 0.01,
        "bimanual-insertion": 0.01,
        "screwdriver-handover": 0.01,
        "wiping-table": 0.01,
        "coffee-making": 0.008,
    }
    assert TASK_ETA_DEFAULTS == golden
    mismatches = []
    rng = np.random.default_rng(3)
    demo = tmp_path / "demo.json"
    save_trajectory(demo, make_random_walk_trajectory(rng, 6, name="golden"))
    for task, eta in golden.items():
        if resolve_task_eta(task) != eta:
            mismatches.append(task)
            continue
        out = tmp_path / f"{task}.json"
        code = main(["extract", "--input", str(demo), "--task", task, "--output", str(out), "--no-timestamp"])
        if code != EXIT_OK or json.loads(out.read_text())["eta"] != eta:
            mismatches.append(task)
    ok = not mismatches
    report(8, ok, f"8 task names resolved via `extract --task`; mismatches: {mismatches or 'none'}")
    assert not mismatches


def test_criterion_9_io_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    failures = 0
    for i in range(200):
        kind = StateKind.EE if i % 2 == 0 else StateKind.JOINT
        traj = make_random_walk_trajectory(
            rng, int(rng.integers(2, 25)), kind, name=f"rt-{i}", joint_dim=int(rng.choice([3, 7]))
        )
        if i % 3 == 0:
            traj = Trajectory(
                traj.name,
                traj.state_space,
                float(rng.uniform(10.0, 100.0)),
                tuple(Frame(f.t, f.state, obs_ref=f"obs/{i}/{f.t}") for f in traj.frames),
            )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_trajectory(first, traj)
        save_trajectory(second, load_trajectory(first))
        if first.read_bytes() != second.read_bytes():
            failures += 1
    ok = failures == 0
    report(9, ok, f"200 trajectories saved-loaded-saved, {failures} byte mismatches")
    assert failures == 0
