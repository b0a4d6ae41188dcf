"""Span tracing for the traced benchmark run, from outside the program.

The program is not instrumented. For the traced passes only, Tracer.install
replaces public functions at the names their callers resolve (for example
cli.extract_waypoints_dp, which the CLI imported by name, and methods of
SegmentScorer) with wrappers that record a span per call; Tracer.restore
puts the originals back. A hook whose target is gone from the program is
listed in Tracer.absent and its metrics read 0 instead of failing the run.

A span is [name, start, end, parent, request]: perf_counter seconds, the
index of the enclosing span (-1 for the root) and a request id that
advances with every trajectory file the CLI loads, so all spans of one
input file share it. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

# (metric, unit, how) for every per-layer metric. how is ("total", span),
# ("self", span), ("count", key) or ("ratio", numerator key, denominator key).
LAYER_METRICS = [
    ("cli.self_s", "s", ("self", "cli")),
    ("trajfile.load_s", "s", ("total", "trajfile.load")),
    ("trajfile.decode_s", "s", ("total", "trajfile.decode")),
    ("trajfile.write_s", "s", ("total", "trajfile.write")),
    ("trajfile.bytes_read", "bytes", ("count", "trajfile.bytes_read")),
    ("trajfile.bytes_written", "bytes", ("count", "trajfile.bytes_written")),
    ("state_space.interpolate_calls", "count", ("count", "state_space.interpolate_calls")),
    ("state_space.distance_calls", "count", ("count", "state_space.distance_calls")),
    ("reconstruction.scorer_build_s", "s", ("total", "reconstruction.scorer_build")),
    ("reconstruction.screen_s", "s", ("total", "reconstruction.screen")),
    ("reconstruction.screen_chords", "count", ("count", "reconstruction.screen_chords")),
    ("reconstruction.screen_pass_ratio", "ratio", ("ratio", "reconstruction.screen_kept", "reconstruction.screen_chords")),
    ("reconstruction.exact_s", "s", ("total", "reconstruction.exact")),
    ("reconstruction.exact_calls", "count", ("count", "reconstruction.exact_calls")),
    ("reconstruction.exact_feasible_ratio", "ratio", ("ratio", "reconstruction.exact_feasible", "reconstruction.exact_checks")),
    ("reconstruction.global_loss_s", "s", ("total", "reconstruction.global_loss")),
    ("reconstruction.polyline_s", "s", ("total", "reconstruction.polyline")),
    ("solver.extract_s", "s", ("total", "solver.extract")),
    ("solver.self_s", "s", ("self", "solver.extract")),
    ("solver.segment_loss_evaluations", "count", ("count", "solver.segment_loss_evaluations")),
    ("solver.subproblems_evaluated", "count", ("count", "solver.subproblems_evaluated")),
    ("solver.waypoints", "count", ("count", "solver.waypoints")),
    ("solver.annotate_s", "s", ("total", "solver.annotate")),
    ("baselines.calibrate_s", "s", ("total", "baselines.calibrate")),
    ("baselines.exact_ratio", "ratio", ("ratio", "baselines.exact", "baselines.calibrations")),
    ("relabel.relabel_s", "s", ("total", "relabel.relabel")),
    ("relabel.rows", "count", ("count", "relabel.rows")),
    ("replay.replay_s", "s", ("total", "replay.replay")),
    ("replay.tick_s", "s", ("self", "replay.replay")),
    ("replay.deviation_s", "s", ("total", "replay.deviation")),
    ("replay.follower_config_s", "s", ("total", "replay.follower_config")),
    ("replay.ticks", "count", ("count", "replay.ticks")),
    ("replay.reached_final_ratio", "ratio", ("ratio", "replay.reached_final", "replay.replays")),
]


def _stop_above(args, kwargs):
    return kwargs.get("stop_above", args[3] if len(args) > 3 else None)


def _count_load(counts, args, kwargs, result):
    counts["trajfile.bytes_read"] += os.path.getsize(args[0])


def _count_write(counts, args, kwargs, result):
    counts["trajfile.bytes_written"] += os.path.getsize(args[0])


def _count_solve(counts, args, kwargs, result):
    wp, stats = result
    counts["solver.segment_loss_evaluations"] += stats.segment_loss_evaluations
    counts["solver.subproblems_evaluated"] += stats.subproblems_evaluated
    counts["solver.waypoints"] += len(wp)


def _count_screen(counts, args, kwargs, result):
    counts["reconstruction.screen_chords"] += len(args[1])
    counts["reconstruction.screen_kept"] += int(result.sum())


def _count_exact(counts, args, kwargs, result):
    counts["reconstruction.exact_calls"] += 1
    bound = _stop_above(args, kwargs)
    if bound is not None:
        counts["reconstruction.exact_checks"] += 1
        counts["reconstruction.exact_feasible"] += result <= bound


def _count_calibrate(counts, args, kwargs, result):
    counts["baselines.calibrations"] += 1
    counts["baselines.exact"] += bool(result.exact)


def _count_relabel(counts, args, kwargs, result):
    counts["relabel.rows"] += len(result)


def _count_replay(counts, args, kwargs, result):
    counts["replay.replays"] += 1
    counts["replay.ticks"] += result.ticks_used
    counts["replay.reached_final"] += bool(result.reached_final)


# (target, span name, result counter). A target is "module.attribute" or
# "module.Class.method", named where the callers look it up.
SPAN_HOOKS = [
    ("cli.load_trajectory", "trajfile.load", _count_load),
    ("trajfile.trajectory_from_dict", "trajfile.decode", None),
    ("cli.save_relabeled", "trajfile.write", _count_write),
    ("cli.save_waypoints", "trajfile.write", _count_write),
    ("cli.extract_waypoints_dp", "solver.extract", _count_solve),
    ("cli.annotate_losses", "solver.annotate", None),
    ("reconstruction.SegmentScorer.__init__", "reconstruction.scorer_build", None),
    ("reconstruction.SegmentScorer.probe_pass", "reconstruction.screen", _count_screen),
    ("reconstruction.SegmentScorer.loss", "reconstruction.exact", _count_exact),
    ("reconstruction.SegmentScorer.global_loss", "reconstruction.global_loss", None),
    ("cli.relabel_trajectory", "relabel.relabel", _count_relabel),
    ("cli.calibrate_to_count", "baselines.calibrate", _count_calibrate),
    ("cli.default_follower_config", "replay.follower_config", None),
    ("cli.replay_waypoints", "replay.replay", _count_replay),
    ("replay.max_deviation_from_polyline", "replay.deviation", None),
    ("replay.min_distances_to_polyline", "reconstruction.polyline", None),
]

# Calls counted without a span (too many and too short to time one by one),
# and only while the innermost open span is the replay tick loop.
TICK_COUNTERS = [
    ("replay.interpolate", "state_space.interpolate_calls"),
    ("replay.state_distance", "state_space.distance_calls"),
]
TICK_SPAN = "replay.replay"

# A file load starts a new request.
REQUEST_SPAN = "trajfile.load"


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if name == REQUEST_SPAN:
            self._request += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- hooks -------------------------------------------------------------

    def _patch(self, target: str, wrapper_for) -> None:
        module, *path = target.split(".")
        owner = importlib.import_module(f"waypoint_extraction.{module}")
        for name in path[:-1]:
            owner = getattr(owner, name, None)
        attr = path[-1]
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(target)
            return
        own = attr in vars(owner)
        setattr(owner, attr, functools.wraps(original)(wrapper_for(original)))
        self._patches.append((owner, attr, original, own))

    def install(self) -> None:
        for target, name, counter in SPAN_HOOKS:
            def wrapper_for(original, name=name, counter=counter):
                def wrapper(*args, **kwargs):
                    result = self.call(name, original, *args, **kwargs)
                    if counter is not None:
                        counter(self.counts, args, kwargs, result)
                    return result
                return wrapper
            self._patch(target, wrapper_for)
        for target, key in TICK_COUNTERS:
            def wrapper_for(original, key=key):
                def wrapper(*args, **kwargs):
                    if self._innermost() == TICK_SPAN:
                        self.counts[key] += 1
                    return original(*args, **kwargs)
                return wrapper
            self._patch(target, wrapper_for)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values of this pass. Self time is a span's
        duration minus the durations of its direct children; spans nest
        without overlap because the program runs on one thread."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        out = {}
        for metric, _, how in LAYER_METRICS:
            if how[0] == "total":
                out[metric] = total[how[1]]
            elif how[0] == "self":
                out[metric] = self_time[how[1]]
            elif how[0] == "count":
                out[metric] = self.counts[how[1]]
            else:
                den = self.counts[how[2]]
                out[metric] = self.counts[how[1]] / den if den else 0.0
        return out
