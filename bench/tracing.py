"""Spans around the calls into soundcue's modules, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper at the
place its caller looks it up (`cli` calls `load_wav` and `detect` through
its own globals, `detect` calls `normalized_cross_correlate` through
its own, and so on), so nothing in the package changes. A span is
(name, start, end, parent span index, pass id); spans stay in memory
and the worker writes them out when its pass ends.

`layer_metrics()` turns one pass's spans into the per-layer numbers.
Counts marked "computed" below are derived from call arguments and
results, not measured inside soundcue:
  correlate.normalized_cross_correlate.fft_points  sum of the FFT lengths
      `_sliding_dot` picks: 2**bit_length(n + m - 1) per call;
  animate.squash_evals  squash bumps created for an object times the
      frames its curves are sampled at (every bump is evaluated on every
      frame).
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("soundcue.cli", "load_wav", "audio.load_wav"),
    ("soundcue.detect", "resample", "audio.resample"),
    ("soundcue.detect", "normalized_cross_correlate", "correlate.normalized_cross_correlate"),
    ("soundcue.detect", "find_local_maxima", "correlate.find_local_maxima"),
    ("soundcue.detect", "moving_average", "correlate.moving_average"),
    ("soundcue.cli", "detect", "detect.detect"),
    ("soundcue.detect", "suppress", "detect.suppress"),
    ("soundcue.detect", "strength", "detect.strength"),
    ("soundcue.timeline", "write_timeline", "timeline.write_timeline"),
    ("soundcue.timeline", "read_timeline", "timeline.read_timeline"),
    ("soundcue.scene", "parse_scene", "scene.parse_scene"),
    ("soundcue.scene", "build_animation", "scene.build_animation"),
    ("soundcue.scene", "solve_bounce", "animate.solve_bounce"),
    ("soundcue.scene", "squash_profile", "animate.squash_profile"),
    ("soundcue.scene", "spawn_from_impulses", "animate.spawn_from_impulses"),
    ("soundcue.scene", "steer_vertical", "animate.steer_vertical"),
    ("soundcue.scene", "sample", "animate.sample"),
    ("soundcue.animate", "curves_to_csv", "animate.curves_to_csv"),
)

LAYERS = ("audio", "correlate", "detect", "timeline", "scene", "animate")

# Per-layer metrics in print order, with their units. A name ending in
# ".s" is the total duration of that span, ".calls" its number, and
# "<layer>.self_s" the layer's self time; the rest are counters.
METRICS = {
    "audio.load_wav.s": "s",
    "audio.load_wav.bytes": "bytes",
    "audio.resample.s": "s",
    "audio.resample.calls": "count",
    "correlate.normalized_cross_correlate.s": "s",
    "correlate.normalized_cross_correlate.calls": "count",
    "correlate.normalized_cross_correlate.fft_points": "points",
    "correlate.normalized_cross_correlate.peak_mb": "MB",
    "correlate.find_local_maxima.s": "s",
    "correlate.find_local_maxima.candidates": "count",
    "correlate.moving_average.s": "s",
    "detect.suppress.s": "s",
    "detect.suppress.candidates_in": "count",
    "detect.suppress.kept": "count",
    "detect.suppress.kept_ratio": "ratio",
    "detect.strength.s": "s",
    "detect.strength.calls": "count",
    "detect.detect.self_s": "s",
    "timeline.write_timeline.s": "s",
    "timeline.read_timeline.s": "s",
    "timeline.bytes": "bytes",
    "scene.parse_scene.s": "s",
    "scene.build_animation.self_s": "s",
    "animate.sample.s": "s",
    "animate.sample.frames": "count",
    "animate.squash_evals": "count",
    "animate.solve_bounce.s": "s",
    "animate.spawn_from_impulses.s": "s",
    "animate.steer_vertical.s": "s",
    "animate.curves_to_csv.s": "s",
    "animate.csv_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("correlate.normalized_cross_correlate.fft_points", "animate.squash_evals")


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._squash_since_sample = 0

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[module_name]
            setattr(module, attr, self._wrap(getattr(module, attr), span_name))

    def _wrap(self, fn, name: str):
        count = getattr(self, "_count_" + name.split(".", 1)[1], None)
        measure_memory = name == "correlate.normalized_cross_correlate"

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            if measure_memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters["correlate.normalized_cross_correlate.peak_mb"] = max(
                        self.counters["correlate.normalized_cross_correlate.peak_mb"], peak / 2**20
                    )
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.pass_id)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_load_wav(self, args, result):
        self.counters["audio.load_wav.bytes"] += os.path.getsize(args[0])

    def _count_normalized_cross_correlate(self, args, result):
        s, p = args[:2]
        self.counters["correlate.normalized_cross_correlate.fft_points"] += 1 << (len(s) + len(p) - 1).bit_length()

    def _count_find_local_maxima(self, args, result):
        self.counters["correlate.find_local_maxima.candidates"] += len(result)

    def _count_suppress(self, args, result):
        self.counters["detect.suppress.candidates_in"] += len(args[0])
        self.counters["detect.suppress.kept"] += len(result)

    def _count_write_timeline(self, args, result):
        self.counters["timeline.bytes"] += os.path.getsize(args[1])

    def _count_read_timeline(self, args, result):
        self.counters["timeline.bytes"] += os.path.getsize(args[0])

    def _count_squash_profile(self, args, result):
        self._squash_since_sample += 1

    def _count_sample(self, args, result):
        frames = result.times.size
        self.counters["animate.sample.frames"] += frames
        self.counters["animate.squash_evals"] += self._squash_since_sample * frames
        self._squash_since_sample = 0

    def _count_curves_to_csv(self, args, result):
        self.counters["animate.csv_bytes"] += len(result)  # ASCII: one byte per character


def layer_metrics(spans: list, counters: dict, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass of `wall_s` seconds.

    A span's self time is its duration minus its children's; the layer
    self times plus `cli.self_s` (the pass minus its top-level spans) add
    up to `trace.wall_s`.
    """
    total, calls, self_time, top = Counter(), Counter(), Counter(), 0.0
    for name, start, end, parent, _ in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        self_time[name] += duration
        if parent is None:
            top += duration
        else:
            self_time[spans[parent][0]] -= duration
    out = {}
    for metric in METRICS:
        if metric.endswith(".s"):
            value = total[metric[:-2]]
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        elif metric in ("detect.detect.self_s", "scene.build_animation.self_s"):
            value = self_time[metric[: -len(".self_s")]]
        elif metric.split(".")[0] in LAYERS and metric.endswith(".self_s"):
            layer = metric.split(".")[0]
            value = sum(v for name, v in self_time.items() if name.split(".")[0] == layer)
        else:
            value = counters.get(metric, 0)
        out[metric] = value
    candidates = out["detect.suppress.candidates_in"]
    out["detect.suppress.kept_ratio"] = out["detect.suppress.kept"] / candidates if candidates else 0.0
    out["cli.self_s"] = wall_s - top
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out
