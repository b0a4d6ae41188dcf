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
(bad budget, malformed waypoint set, oversized oracle input, ...). Flags and
the budget are read before any input, so a bad budget exits 7 even when the
input is missing. relabel, stats and compare report each failed file and go
on; they exit with the code of the first failed file. A metric that cannot
score a file's states stops them as an error of the run.
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
from .reconstruction import SegmentScorer, _check_metric
from .relabel import relabel_trajectory
from .replay import default_follower_config, replay_waypoints
from .solver import (
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


def _metric(args) -> MetricConfig:
    return load_metric_config(args.metric_config) if args.metric_config else MetricConfig()


def _budget(args) -> ErrorBudget:
    """The run's one budget, from --eta or --task and --metric-config. Every
    command that takes one budget builds it first, so a bad budget fails
    ahead of a missing input."""
    return ErrorBudget(resolve_task_eta(args.task) if args.eta is None else args.eta, _metric(args))


def _exit_code(exc: Exception) -> int:
    return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def _input_files(path_str: str) -> list[Path]:
    """The .json files of a directory, in name order, or the one file named;
    FileNotFoundError when the path is missing or names no file."""
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(str(path))
    files = sorted(p for p in path.iterdir() if p.suffix == ".json" and p.is_file()) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"{path}: no .json trajectory files")
    return files


def _each_input(files: list[Path], metric: MetricConfig, work) -> tuple[list, int]:
    """Call work(path, trajectory) on each file in order. work returns its
    stdout lines, its stderr lines and one value; a file's lines are printed
    before the next file starts. A file whose load or work raises a
    TrajectoryFileError or ValueError is reported after the batch as FAILED
    <name>: <message> on stderr and does not stop the rest. A metric that
    cannot score a file's states is a fault of the run, not of the file: its
    ValueError ends the batch, once, after the FAILED lines so far, and the
    files already done keep their outputs. Returns the values of the files
    done, in order, and the exit code of the first failed file, or EXIT_OK."""
    values, failures = [], []
    try:
        for f in files:
            try:
                traj = load_trajectory(f)
            except (TrajectoryFileError, ValueError) as exc:
                failures.append((f"FAILED {f.name}: {exc}", _exit_code(exc)))
                continue
            _check_metric(traj.joints, metric)
            try:
                out, err, value = work(f, traj)
            except (TrajectoryFileError, ValueError) as exc:
                failures.append((f"FAILED {f.name}: {exc}", _exit_code(exc)))
                continue
            for line in out:
                print(line)
            for line in err:
                print(line, file=sys.stderr)
            values.append(value)
    finally:
        for line, _ in failures:
            print(line, file=sys.stderr)
    return values, failures[0][1] if failures else EXIT_OK


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
    budget = _budget(args)
    traj = load_trajectory(args.input)
    wp, stats = extract_waypoints_dp(traj, budget)
    provenance = {"source_name": traj.name, "metric": budget.metric}
    if not args.no_timestamp:
        provenance["created_at"] = _timestamp()
    save_waypoints(args.output, wp, provenance)
    print(
        f"{traj.name}: T={len(traj)} waypoints={len(wp)} ratio={_ratio_str(len(wp), len(traj))} "
        f"eta={budget.eta!r} segment_loss={wp.achieved_segment_loss:.6g} "
        f"global_loss={wp.achieved_global_loss:.6g} wall_time={stats.wall_time:.3f}"
    )
    return EXIT_OK


def _cmd_relabel(args, parser) -> int:
    budget = _budget(args)
    out_dir = Path(args.output)
    created_at = None if args.no_timestamp else _timestamp()

    def work(f, traj):
        wp, _ = extract_waypoints_dp(traj, budget)
        ds = relabel_trajectory(traj, wp)
        out = out_dir / (f.stem + ".relabeled.jsonl")
        out_dir.mkdir(parents=True, exist_ok=True)  # here, so a missing or empty input writes nothing
        save_relabeled(out, ds, metric=budget.metric, created_at=created_at)
        return [f"{f.name}: {len(ds)} rows, {len(wp)} waypoints -> {out}"], [], len(ds)

    files = _input_files(args.input)
    rows, code = _each_input(files, budget.metric, work)
    print(f"relabeled {len(rows)}/{len(files)} trajectories, {sum(rows)} rows total")
    return code


def _cmd_stats(args, parser) -> int:
    if not 0.0 < args.ratio_low <= args.ratio_high < math.inf:
        parser.error(f"need 0 < --ratio-low <= --ratio-high, both finite; got {args.ratio_low!r}, {args.ratio_high!r}")
    budget = _budget(args)

    def work(f, traj):
        wp, stats = extract_waypoints_dp(traj, budget)
        ratio = _ratio_str(len(wp), len(traj))
        chords = SegmentScorer(traj, budget.metric).chord_losses(wp.indices[:-1], wp.indices[1:])
        losses = " ".join(f"{l:.6g}" for l in chords.tolist())
        out = [
            f"{traj.name}: T={len(traj)} waypoints={len(wp)} ratio={ratio} "
            f"segment_loss={wp.achieved_segment_loss:.6g} global_loss={wp.achieved_global_loss:.6g} "
            f"evaluations={stats.segment_loss_evaluations} wall_time={stats.wall_time:.3f}",
            f"{traj.name}: per-segment losses: {losses}",
        ]
        if args.ratio_low <= len(wp) / len(traj) <= args.ratio_high:
            return out, [], True
        band = f"[1:{1 / args.ratio_low:.0f}, 1:{1 / args.ratio_high:.0f}]"
        return out, [f"WARNING {traj.name}: ratio {ratio} outside {band}; consider adjusting eta"], False

    in_band, code = _each_input(_input_files(args.input), budget.metric, work)
    return code or (EXIT_CHECK_FAILED if args.strict_ratio and not all(in_band) else EXIT_OK)


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
    budget = _budget(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    known = {"awe", METHOD_ZERO_VELOCITY, METHOD_FIXED_INTERVAL}
    if not methods or not known.issuperset(methods) or len(set(methods)) < len(methods):
        parser.error(f"--methods must name one or more of {sorted(known)}, each once; got {args.methods!r}")
    files = _input_files(args.input)
    print(f"{'trajectory':<24} {'method':<10} {'count':>5} {'segment':>12} {'global':>12} {'replay_dev':>12}")

    def work(f, traj):
        awe_wp, _ = extract_waypoints_dp(traj, budget)
        rows = compare_selectors(traj, awe_wp, methods, budget.metric, args.control_multiplier)
        lines = [
            f"{traj.name:<24} {method:<10} {len(wp):>5} {wp.achieved_segment_loss:>12.6f} "
            f"{wp.achieved_global_loss:>12.6f} {deviation:>12.6f}"
            for method, (wp, deviation) in zip(methods, map(rows.get, methods))
        ]
        # per method: does awe do at least as well on global loss and on replay deviation
        wins = {method: (awe_wp.achieved_global_loss <= wp.achieved_global_loss, rows["awe"][1] <= deviation)
                for method, (wp, deviation) in rows.items()}
        return lines, [], wins

    done, code = _each_input(files, budget.metric, work)
    for method in methods:
        if method != "awe" and done:
            print(f"awe <= {method}: global loss {sum(w[method][0] for w in done)}/{len(done)}, "
                  f"replay deviation {sum(w[method][1] for w in done)}/{len(done)}")
    return code


def _cmd_replay_check(args, parser) -> int:
    traj = load_trajectory(args.input)
    wp, provenance = load_waypoints(args.waypoints)
    wp.validate_for(traj)
    # follow and score under the metric the waypoints were extracted with
    follower = default_follower_config(
        traj,
        wp.eta_used,
        control_multiplier=args.control_multiplier,
        blocking=args.blocking,
        metric=provenance.get("metric") or DEFAULT_METRIC,
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
        etas = []
    if not etas:
        parser.error(f"--etas must be a comma-separated list of one or more numbers, got {args.etas!r}")
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
    budget = _budget(args)
    traj = load_trajectory(args.input)
    brute = extract_waypoints_bruteforce(traj, budget)
    wp, _ = extract_waypoints_dp(traj, budget)
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

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring one flag shared by several commands."""
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(*names, **kwargs)
        return shared

    trajectory = flag("--input", required=True,
                      help="trajectory file; relabel, stats and compare also take a directory of them")
    metric = flag("--metric-config", default=None, help="JSON file of metric weights")
    stamp = flag("--no-timestamp", action="store_true", help="omit created_at for byte-stable output")
    multiplier = flag("--control-multiplier", type=_multiplier, default=10)
    eta = flag("--eta", type=float, required=True, help="error budget")
    eta_or_task = argparse.ArgumentParser(add_help=False)
    budget = eta_or_task.add_mutually_exclusive_group(required=True)
    budget.add_argument("--eta", type=float, help="error budget")
    budget.add_argument("--task", help="resolve eta from the task defaults table")

    def command(name, func, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[trajectory, *parents])
        p.set_defaults(func=func)
        return p

    p = command("extract", _cmd_extract, "select waypoints for one trajectory file", eta_or_task, metric, stamp)
    p.add_argument("--output", required=True)

    p = command("relabel", _cmd_relabel, "batch-extract a directory and write relabeled datasets", eta, metric, stamp)
    p.add_argument("--output", required=True, help="output directory")

    p = command("stats", _cmd_stats, "extraction statistics for a file or directory", eta_or_task, metric)
    p.add_argument("--ratio-low", type=float, default=RATIO_LOW, help="lower waypoint:length ratio bound")
    p.add_argument("--ratio-high", type=float, default=RATIO_HIGH, help="upper waypoint:length ratio bound")
    p.add_argument("--strict-ratio", action="store_true", help="nonzero exit when a ratio falls outside the band")

    p = command("compare", _cmd_compare, "selector comparison at matched waypoint counts", eta_or_task, metric,
                multiplier)
    p.add_argument("--methods", default="awe,zero-vel,fixed")

    p = command("replay-check", _cmd_replay_check, "kinematic replay of a saved waypoint set", multiplier)
    p.add_argument("--waypoints", required=True)
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--reach-tolerance", type=float, default=None)
    p.add_argument("--blocking", action="store_true", help="advance only on reach, never on budget expiry")

    p = command("sweep", _cmd_sweep, "extractions across several budgets", metric)
    p.add_argument("--etas", required=True, help="comma-separated budgets")
    p.add_argument("--plot-out", default=None, help="write long-format CSV plot data here")

    command("oracle", _cmd_oracle, "brute-force cross-check of the solver (short files)", eta, metric)
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
