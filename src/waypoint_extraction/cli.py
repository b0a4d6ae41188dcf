"""Command-line interface.

Subcommands:
  extract       select waypoints for one trajectory file
  relabel       batch-extract a directory and write next-waypoint datasets
  stats         extraction statistics (counts, ratios, losses, wall time)
  compare       budgeted selector vs calibrated heuristics at matched counts
  replay-check  kinematic follow-the-waypoints check against a trajectory
  sweep         extractions across several budgets plus plot data
  oracle        brute-force cross-check of the solver (short files only)

Exit codes: 0 success, 1 failed check, 2 usage, 3 missing file or I/O
failure, 4 parse error, 5 schema error, 6 validation error, 7 domain error
(bad budget, malformed waypoint set, oversized oracle input, ...). relabel,
stats and compare report each failed file and go on; they exit with the code
of the first failed file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .baselines import METHOD_FIXED_INTERVAL, METHOD_ZERO_VELOCITY, calibrate_to_count
from .defaults import resolve_task_eta
from .reconstruction import SegmentScorer
from .relabel import relabel_trajectory
from .replay import default_follower_config, replay_waypoints
from .solver import (
    BRUTE_FORCE_LIMIT,
    ErrorBudget,
    WaypointSet,
    annotate_losses,
    extract_waypoints_bruteforce,
    extract_waypoints_dp,
    sweep_eta,
)
from .state_space import DEFAULT_METRIC, MetricConfig
from .trajfile import (
    TrajectoryFileError,
    TrajectoryParseError,
    TrajectorySchemaError,
    TrajectoryValidationError,
    emit_plot_data,
    load_metric_config,
    load_trajectory,
    load_waypoints,
    metric_from_dict,
    save_relabeled,
    save_waypoints,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_SCHEMA = 5
EXIT_VALIDATION = 6
EXIT_DOMAIN = 7

# error class -> exit code; an error takes the code of its nearest class here
_EXIT_CODES = {
    TrajectoryParseError: EXIT_PARSE,
    TrajectorySchemaError: EXIT_SCHEMA,
    TrajectoryValidationError: EXIT_VALIDATION,
    OSError: EXIT_IO,
    ValueError: EXIT_DOMAIN,
}

RATIO_LOW = 1.0 / 15.0
RATIO_HIGH = 1.0 / 5.0


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _resolve_eta(args, parser: argparse.ArgumentParser) -> float:
    if args.eta is not None and args.task is not None:
        parser.error("--eta and --task are mutually exclusive")
    if args.eta is None and args.task is None:
        parser.error("one of --eta or --task is required")
    return float(args.eta) if args.eta is not None else resolve_task_eta(args.task)


def _metric(args) -> MetricConfig:
    if getattr(args, "metric_config", None):
        return load_metric_config(args.metric_config)
    return MetricConfig()


def _exit_code(exc: Exception) -> int:
    return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def _each_input(path_str: str, work) -> tuple[int, int]:
    """Call work(path, trajectory) on each .json file of a directory, in name
    order, or on the one file named. A file whose load or work raises a
    TrajectoryFileError or ValueError is reported after the batch as FAILED
    <name>: <message> on stderr and does not stop the rest. Returns (files,
    exit code of the first failed file or EXIT_OK)."""
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(str(path))
    files = sorted(p for p in path.iterdir() if p.suffix == ".json" and p.is_file()) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"{path}: no .json trajectory files")
    failures = []
    for f in files:
        try:
            work(f, load_trajectory(f))
        except (TrajectoryFileError, ValueError) as exc:
            failures.append((f"FAILED {f.name}: {exc}", _exit_code(exc)))
    for line, _ in failures:
        print(line, file=sys.stderr)
    return len(files), failures[0][1] if failures else EXIT_OK


def _multiplier(text: str) -> int:
    """argparse type of --control-multiplier: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _ratio_str(count: int, length: int) -> str:
    return f"1:{length / count:.1f}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_extract(args, parser) -> int:
    eta = _resolve_eta(args, parser)
    metric = _metric(args)
    traj = load_trajectory(args.input)
    wp, stats = extract_waypoints_dp(traj, ErrorBudget(eta, metric))
    provenance = {"source_name": traj.name, "metric": metric}
    if not args.no_timestamp:
        provenance["created_at"] = _timestamp()
    save_waypoints(args.output, wp, provenance)
    print(
        f"{traj.name}: T={len(traj)} waypoints={len(wp)} ratio={_ratio_str(len(wp), len(traj))} "
        f"eta={eta!r} segment_loss={wp.achieved_segment_loss:.6g} "
        f"global_loss={wp.achieved_global_loss:.6g} wall_time={stats.wall_time:.3f}"
    )
    return EXIT_OK


def _cmd_relabel(args, parser) -> int:
    metric = _metric(args)
    budget = ErrorBudget(float(args.eta), metric)
    out_dir = Path(args.output)
    created_at = None if args.no_timestamp else _timestamp()
    done = rows = 0

    def work(f, traj):
        nonlocal done, rows
        wp, _ = extract_waypoints_dp(traj, budget)
        ds = relabel_trajectory(traj, wp)
        out = out_dir / (f.stem + ".relabeled.jsonl")
        out_dir.mkdir(parents=True, exist_ok=True)  # here, so a missing or empty input writes nothing
        save_relabeled(out, ds, metric=metric, created_at=created_at)
        done, rows = done + 1, rows + len(ds)
        print(f"{f.name}: {len(ds)} rows, {len(wp)} waypoints -> {out}")

    files, code = _each_input(args.input, work)
    print(f"relabeled {done}/{files} trajectories, {rows} rows total")
    return code


def _cmd_stats(args, parser) -> int:
    if not 0.0 < args.ratio_low <= args.ratio_high < math.inf:
        parser.error(f"need 0 < --ratio-low <= --ratio-high, both finite; got {args.ratio_low!r}, {args.ratio_high!r}")
    eta = _resolve_eta(args, parser)
    metric = _metric(args)
    budget = ErrorBudget(eta, metric)
    warned = False

    def work(f, traj):
        nonlocal warned
        wp, stats = extract_waypoints_dp(traj, budget)
        ratio = len(wp) / len(traj)
        chords = SegmentScorer(traj, metric).chord_losses(wp.indices[:-1], wp.indices[1:])
        losses = " ".join(f"{l:.6g}" for l in chords.tolist())
        print(
            f"{traj.name}: T={len(traj)} waypoints={len(wp)} ratio={_ratio_str(len(wp), len(traj))} "
            f"segment_loss={wp.achieved_segment_loss:.6g} global_loss={wp.achieved_global_loss:.6g} "
            f"evaluations={stats.segment_loss_evaluations} wall_time={stats.wall_time:.3f}"
        )
        print(f"{traj.name}: per-segment losses: {losses}")
        if not (args.ratio_low <= ratio <= args.ratio_high):
            warned = True
            print(
                f"WARNING {traj.name}: ratio {_ratio_str(len(wp), len(traj))} outside "
                f"[1:{1 / args.ratio_low:.0f}, 1:{1 / args.ratio_high:.0f}]; consider adjusting eta",
                file=sys.stderr,
            )

    _, code = _each_input(args.input, work)
    return code or (EXIT_CHECK_FAILED if warned and args.strict_ratio else EXIT_OK)


def compare_selectors(traj, awe: WaypointSet, methods, metric: MetricConfig = DEFAULT_METRIC,
                      control_multiplier: int = 10) -> dict[str, tuple[WaypointSet, float]]:
    """Per method: its waypoint set, with achieved losses, and its replay
    deviation. "awe" is the budgeted solver's set awe, always included; each
    heuristic in methods is calibrated to its count."""
    follower = default_follower_config(traj, awe.eta_used, control_multiplier=control_multiplier, metric=metric)
    rows = {"awe": (awe, replay_waypoints(traj, awe, follower).max_tracking_deviation)}
    for method in methods:
        if method != "awe":
            wp = annotate_losses(traj, calibrate_to_count(traj, method, len(awe)).waypoints, metric)
            rows[method] = (wp, replay_waypoints(traj, wp, follower).max_tracking_deviation)
    return rows


def _cmd_compare(args, parser) -> int:
    eta = _resolve_eta(args, parser)
    metric = _metric(args)
    budget = ErrorBudget(eta, metric)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    known = {"awe", METHOD_ZERO_VELOCITY, METHOD_FIXED_INTERVAL}
    if not methods or not known.issuperset(methods):
        parser.error(f"--methods must name one or more of {sorted(known)}; got {args.methods!r}")
    print(f"{'trajectory':<24} {'method':<10} {'count':>5} {'segment':>12} {'global':>12} {'replay_dev':>12}")
    wins = {m: {"global": 0, "replay": 0, "n": 0} for m in methods if m != "awe"}

    def work(f, traj):
        awe_wp, _ = extract_waypoints_dp(traj, budget)
        rows = compare_selectors(traj, awe_wp, methods, metric, args.control_multiplier)
        for method in methods:
            wp, deviation = rows[method]
            print(
                f"{traj.name:<24} {method:<10} {len(wp):>5} {wp.achieved_segment_loss:>12.6f} "
                f"{wp.achieved_global_loss:>12.6f} {deviation:>12.6f}"
            )
        for method, tally in wins.items():
            wp, deviation = rows[method]
            tally["n"] += 1
            tally["global"] += awe_wp.achieved_global_loss <= wp.achieved_global_loss
            tally["replay"] += rows["awe"][1] <= deviation

    _, code = _each_input(args.input, work)
    for method, tally in wins.items():
        if tally["n"]:
            print(
                f"awe <= {method}: global loss {tally['global']}/{tally['n']}, "
                f"replay deviation {tally['replay']}/{tally['n']}"
            )
    return code


def _cmd_replay_check(args, parser) -> int:
    traj = load_trajectory(args.input)
    wp, provenance = load_waypoints(args.waypoints)
    wp.validate_for(traj)
    # follow and score under the metric the waypoints were extracted with
    metric = provenance.get("metric")
    if metric is None:
        metric = DEFAULT_METRIC
    else:
        metric = metric_from_dict(metric, where=f"{args.waypoints}.provenance.metric")
    follower = default_follower_config(
        traj,
        wp.eta_used,
        control_multiplier=args.control_multiplier,
        blocking=args.blocking,
        metric=metric,
    )
    overrides = {}
    if args.max_step is not None:
        overrides["max_step"] = args.max_step
    if args.reach_tolerance is not None:
        overrides["reach_tolerance"] = args.reach_tolerance
    if overrides:
        follower = dataclasses.replace(follower, **overrides)
    report = replay_waypoints(traj, wp, follower)
    reached = sum(report.per_waypoint_reached)
    print(
        f"{traj.name}: waypoints_reached={reached}/{len(report.per_waypoint_reached)} "
        f"reached_final={report.reached_final} ticks={report.ticks_used} "
        f"max_tracking_deviation={report.max_tracking_deviation:.6g}"
    )
    return EXIT_OK if report.reached_final else EXIT_CHECK_FAILED


def _cmd_sweep(args, parser) -> int:
    try:
        etas = [float(x) for x in args.etas.split(",") if x.strip()]
    except ValueError:
        parser.error(f"--etas must be a comma-separated list of numbers, got {args.etas!r}")
    traj = load_trajectory(args.input)
    metric = _metric(args)
    results = sweep_eta(traj, etas, metric)
    for eta, wp in results:
        print(f"eta={eta!r}: waypoints={len(wp)} ratio={_ratio_str(len(wp), len(traj))}")
    if args.plot_out:
        emit_plot_data(traj, results, args.plot_out)
        print(f"plot data -> {args.plot_out}")
    return EXIT_OK


def _cmd_oracle(args, parser) -> int:
    traj = load_trajectory(args.input)
    if len(traj) > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"oracle requires T <= {BRUTE_FORCE_LIMIT}, got {len(traj)}; "
            "the brute-force enumeration would blow up"
        )
    metric = _metric(args)
    budget = ErrorBudget(float(args.eta), metric)
    wp, _ = extract_waypoints_dp(traj, budget)
    brute = extract_waypoints_bruteforce(traj, budget)
    verdict = "MATCH" if len(wp) == len(brute) else "MISMATCH"
    print(f"dp={len(wp)} brute={len(brute)} {verdict}")
    print(f"dp indices:    {list(wp.indices)}")
    print(f"brute indices: {list(brute.indices)}")
    return EXIT_OK if verdict == "MATCH" else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpx",
        description="Minimal-waypoint decomposition of robot demonstrations, "
        "with relabeling, baselines, and replay checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eta_task(p):
        p.add_argument("--eta", type=float, default=None, help="error budget")
        p.add_argument("--task", default=None, help="resolve eta from the task defaults table")

    p = sub.add_parser("extract", help="select waypoints for one trajectory file")
    p.add_argument("--input", required=True)
    add_eta_task(p)
    p.add_argument("--output", required=True)
    p.add_argument("--metric-config", default=None, help="JSON file of metric weights")
    p.add_argument("--no-timestamp", action="store_true", help="omit created_at for byte-stable output")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("relabel", help="batch-extract a directory and write relabeled datasets")
    p.add_argument("--input", required=True, help="directory of trajectory files")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--metric-config", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=_cmd_relabel)

    p = sub.add_parser("stats", help="extraction statistics for a file or directory")
    p.add_argument("--input", required=True)
    add_eta_task(p)
    p.add_argument("--metric-config", default=None)
    p.add_argument("--ratio-low", type=float, default=RATIO_LOW, help="lower waypoint:length ratio bound")
    p.add_argument("--ratio-high", type=float, default=RATIO_HIGH, help="upper waypoint:length ratio bound")
    p.add_argument("--strict-ratio", action="store_true", help="nonzero exit when a ratio falls outside the band")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="selector comparison at matched waypoint counts")
    p.add_argument("--input", required=True)
    add_eta_task(p)
    p.add_argument("--methods", default="awe,zero-vel,fixed")
    p.add_argument("--metric-config", default=None)
    p.add_argument("--control-multiplier", type=_multiplier, default=10)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("replay-check", help="kinematic replay of a saved waypoint set")
    p.add_argument("--input", required=True)
    p.add_argument("--waypoints", required=True)
    p.add_argument("--control-multiplier", type=_multiplier, default=10)
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--reach-tolerance", type=float, default=None)
    p.add_argument("--blocking", action="store_true", help="advance only on reach, never on budget expiry")
    p.set_defaults(func=_cmd_replay_check)

    p = sub.add_parser("sweep", help="extractions across several budgets")
    p.add_argument("--input", required=True)
    p.add_argument("--etas", required=True, help="comma-separated budgets")
    p.add_argument("--plot-out", default=None, help="write long-format CSV plot data here")
    p.add_argument("--metric-config", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="brute-force cross-check of the solver (short files)")
    p.add_argument("--input", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--metric-config", default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except tuple(_EXIT_CODES) as exc:
        missing = "file not found: " if isinstance(exc, FileNotFoundError) else ""
        print(f"error: {missing}{exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
