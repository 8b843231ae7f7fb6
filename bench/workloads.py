"""Seeded inputs for the benchmark workloads.

`prepare(name, seed, work_dir, smoke)` writes everything one workload
needs into `work_dir` and returns a `Prepared`: the soundcue argv of one
pass (with an OUT placeholder for the output directory), the files the
set-up probe loads, and the ground truth the correctness gate compares
against. The program under test only ever sees the written files.

What the seed draws: the take (cue order, onset jitter, amplitudes and
noise) or, for `synth_timeline`, the event list. What it does not draw:
the pattern dictionary. Each workload uses a fixed dictionary, like a
user who records new takes against the same cue sounds. A tonal
pattern's carrier frequency sets how many correlation ripples become
candidates, so drawing the dictionary from the seed would change the
amount of work per pass by tens of percent between seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from soundcue import (
    EventInstance,
    GroundTruth,
    PatternKind,
    PlantedInstance,
    Timeline,
    Track,
    make_pattern,
    place_instances,
    resample,
    save_wav,
    serialize,
)

SR = 44100
NOISE_RMS = 0.03
OUT = "{out}"
TRACK = "take"
SCENE_SEED = 7

WORKLOADS = ("impulse_dense", "long_take", "synth_timeline")


@dataclass
class Prepared:
    """One workload's files plus the facts the correctness gate needs."""

    argv: list  # soundcue argv; OUT marks the output directory
    manifest: str | None  # pattern manifest the set-up probe loads (None: synth)
    scene: str
    audio_s: float  # seconds of take behind the outputs
    fps: float
    objects: list  # object ids, one curve CSV each
    planted: list = field(default_factory=list)  # dicts: pattern, kind, t (+ amplitude) | t_begin, t_end
    durations: dict = field(default_factory=dict)  # pattern id -> duration at the take's rate (s)
    noise_energy: dict = field(default_factory=dict)  # pattern id -> expected noise/pattern energy in its window
    spawn_patterns: dict = field(default_factory=dict)  # pattern id -> entity kind of its spawn binding

    @property
    def frames(self) -> int:
        """Curve rows per object: floor(duration * fps) + 1."""
        return math.floor(self.audio_s * self.fps + 1e-9) + 1


def _rng(name: str, seed: int) -> np.random.Generator:
    salt = sum(ord(c) for c in name)
    return np.random.default_rng((int(seed) & ((1 << 63) - 1), salt))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def _scene(objects: list, fps: float) -> dict:
    return {"fps": fps, "seed": SCENE_SEED, "gravity": 9.81, "objects": objects}


def _spawn_patterns(scene: dict) -> dict:
    spawns = {}
    for obj in scene["objects"]:
        for pattern_id, action in obj["bindings"].items():
            if action["kind"].startswith("spawn_"):
                spawns[pattern_id] = action["kind"][len("spawn_"):]
    return spawns


def _write_patterns(work_dir: Path, clips: dict, kinds: dict) -> tuple[str, dict]:
    """Save each pattern (optionally at another rate) and its manifest.

    Returns the manifest path and the clips as the take contains them:
    a pattern stored at another rate is planted the way `detect` will see
    it, resampled back to the take's rate.
    """
    pattern_dir = work_dir / "patterns"
    pattern_dir.mkdir(parents=True, exist_ok=True)
    manifest, planted_clips = [], {}
    for pattern_id, clip in clips.items():
        save_wav(clip, pattern_dir / f"{pattern_id}.wav", sample_format="float32")
        manifest.append({"id": pattern_id, "kind": kinds[pattern_id].value, "path": f"patterns/{pattern_id}.wav"})
        planted_clips[pattern_id] = resample(clip, SR) if clip.sample_rate_hz != SR else clip
    return _write_json(work_dir / "patterns.json", manifest), planted_clips


def _render_take(work_dir: Path, clips: dict, planted: list, duration_s: float, seed: int) -> str:
    truth = GroundTruth(duration_s=duration_s, sample_rate_hz=SR, seed=seed, noise_rms=NOISE_RMS, planted=planted)
    path = work_dir / "take.wav"
    save_wav(place_instances(clips, truth), path, sample_format="float32")
    return str(path)


def _noise_energy(clips: dict) -> dict:
    """Expected background-noise energy in an instance window over the pattern's energy.

    `strength` measures the whole window, noise included, so an instance
    planted at amplitude a is expected to read sqrt(a**2 + this ratio).
    """
    return {pid: NOISE_RMS**2 * len(c) / float(np.dot(c.samples, c.samples)) for pid, c in clips.items()}


def _planted_dicts(planted: list) -> list:
    out = []
    for inst in planted:
        if inst.kind is PatternKind.IMPULSE:
            out.append({"pattern": inst.pattern_id, "kind": "impulse", "t": inst.onset_s, "amplitude": inst.amplitude})
        else:
            out.append({"pattern": inst.pattern_id, "kind": "continuous", "t_begin": inst.t_begin_s, "t_end": inst.t_end_s})
    return out


def _run_argv(take: str, manifest: str, scene: str) -> list:
    return ["run", "--track", f"{TRACK}={take}", "--patterns", manifest, "--scene", scene, "--out-dir", OUT]


# impulse_dense: 8 tonal 0.12 s impulse patterns, one cue every 0.25 s.
# Carriers spread over 383-2633 Hz (fixed pattern seeds below).
_DENSE_SEEDS = (23, 11, 21, 24, 16, 12, 4, 26)


def _impulse_dense(rng, seed: int, work_dir: Path, duration_s: float) -> Prepared:
    ids = [f"cue{i}" for i in range(len(_DENSE_SEEDS))]
    clips = {pid: make_pattern("tonal_burst", 0.12, s, SR) for pid, s in zip(ids, _DENSE_SEEDS)}
    kinds = {pid: PatternKind.IMPULSE for pid in ids}
    manifest, planted_clips = _write_patterns(work_dir, clips, kinds)

    slots = int(round(duration_s / 0.25))
    order = np.resize(np.arange(len(ids)), slots)  # every pattern equally often
    rng.shuffle(order)
    planted = [
        PlantedInstance(
            ids[k],
            onset_s=round(i * 0.25 + float(rng.uniform(0.02, 0.10)), 4),
            amplitude=round(float(rng.uniform(0.5, 1.0)), 3),
        )
        for i, k in enumerate(order)
    ]
    take = _render_take(work_dir, planted_clips, planted, duration_s, seed)

    objects = [
        {
            "object_id": f"ball{j}",
            "track_id": TRACK,
            "bindings": {ids[2 * j]: {"kind": "bounce_soft"}, ids[2 * j + 1]: {"kind": "spawn_dart"}},
        }
        for j in range(4)
    ]
    scene_doc = _scene(objects, 60.0)
    scene = _write_json(work_dir / "scene.json", scene_doc)
    return Prepared(
        argv=_run_argv(take, manifest, scene),
        manifest=manifest,
        scene=scene,
        audio_s=duration_s,
        fps=60.0,
        objects=[o["object_id"] for o in objects],
        planted=_planted_dicts(planted),
        durations={pid: c.duration_s for pid, c in planted_clips.items()},
        noise_energy=_noise_energy(planted_clips),
        spawn_patterns=_spawn_patterns(scene_doc),
    )


# long_take: 2 noise-burst impulse patterns plus 2 tonal continuous
# patterns, one of them stored at 22.05 kHz so `detect` resamples it.
def _long_take(rng, seed: int, work_dir: Path, duration_s: float) -> Prepared:
    clips = {
        "knock": make_pattern("noise_burst", 0.12, 31, SR),
        "clap": make_pattern("noise_burst", 0.12, 32, SR),
        "whoosh": make_pattern("tonal_burst", 0.2, 33, SR),
        "rise": make_pattern("tonal_burst", 0.2, 34, 22050),
    }
    kinds = {
        "knock": PatternKind.IMPULSE,
        "clap": PatternKind.IMPULSE,
        "whoosh": PatternKind.CONTINUOUS,
        "rise": PatternKind.CONTINUOUS,
    }
    manifest, planted_clips = _write_patterns(work_dir, clips, kinds)

    # every fourth slot is a 1 s continuous segment (then 0.5 s of quiet),
    # the other three hold one impulse each: 3 s per group of four
    planted, t, group = [], 0.1, 0
    while t + 1.1 <= duration_s:
        cont = ("whoosh", "rise")[group % 2]
        planted.append(PlantedInstance(cont, t_begin_s=round(t, 4), t_end_s=round(t + 1.0, 4), amplitude=0.8))
        t += 1.5
        for _ in range(3):
            if t + 0.3 > duration_s:
                break
            planted.append(
                PlantedInstance(
                    ("knock", "clap")[int(rng.integers(2))],
                    onset_s=round(t + float(rng.uniform(0.02, 0.15)), 4),
                    amplitude=round(float(rng.uniform(0.5, 1.0)), 3),
                )
            )
            t += 0.5
        group += 1
    take = _render_take(work_dir, planted_clips, planted, duration_s, seed)

    objects = [
        {"object_id": "ball", "track_id": TRACK, "bindings": {"knock": {"kind": "bounce_hard"}, "whoosh": {"kind": "slide"}}},
        {"object_id": "lift", "track_id": TRACK, "bindings": {"rise": {"kind": "move_up"}}},
        {"object_id": "gun", "track_id": TRACK, "bindings": {"clap": {"kind": "spawn_laser_low"}}},
    ]
    scene_doc = _scene(objects, 60.0)
    scene = _write_json(work_dir / "scene.json", scene_doc)
    return Prepared(
        argv=_run_argv(take, manifest, scene),
        manifest=manifest,
        scene=scene,
        audio_s=duration_s,
        fps=60.0,
        objects=[o["object_id"] for o in objects],
        planted=_planted_dicts(planted),
        durations={pid: c.duration_s for pid, c in planted_clips.items()},
        noise_energy=_noise_energy(planted_clips),
        spawn_patterns=_spawn_patterns(scene_doc),
    )


# synth_timeline: a timeline written directly, no audio; impulses every
# 0.25 s and a 1 s continuous event in every tenth slot.
def _synth_timeline(rng, seed: int, work_dir: Path, duration_s: float) -> Prepared:
    impulses = ("tick", "pop", "tack", "drop")
    continuous = ("chhh", "vroom", "fall")
    events, t, slot = [], 0.1, 0
    while t + 1.1 < duration_s:
        if slot % 10 == 9:
            events.append(
                EventInstance(
                    pattern_id=continuous[int(rng.integers(len(continuous)))],
                    kind=PatternKind.CONTINUOUS,
                    t_begin_s=round(t, 4),
                    t_end_s=round(t + 1.0, 4),
                    strength=round(float(rng.uniform(0.5, 1.5)), 3),
                    peak_correlation=round(float(rng.uniform(0.6, 1.0)), 3),
                )
            )
            t += 1.25
        else:
            events.append(
                EventInstance(
                    pattern_id=impulses[int(rng.integers(len(impulses)))],
                    kind=PatternKind.IMPULSE,
                    t_s=round(t + float(rng.uniform(0.0, 0.1)), 4),
                    strength=round(float(rng.uniform(0.5, 1.5)), 3),
                    peak_correlation=round(float(rng.uniform(0.6, 1.0)), 3),
                )
            )
            t += 0.25
        slot += 1
    tl_path = work_dir / "timeline.json"
    tl_path.write_text(serialize(Timeline((Track(TRACK, tuple(events)),), duration_s)), encoding="utf-8")

    objects = [
        {
            "object_id": "soft",
            "track_id": TRACK,
            "bindings": {"tick": {"kind": "bounce_soft"}, "chhh": {"kind": "slide"}},
        },
        {
            "object_id": "hard",
            "track_id": TRACK,
            "bindings": {"pop": {"kind": "bounce_hard"}, "vroom": {"kind": "move_up"}, "fall": {"kind": "move_down"}},
        },
        {"object_id": "laser", "track_id": TRACK, "bindings": {"tack": {"kind": "spawn_laser_high"}}},
        {"object_id": "rain", "track_id": TRACK, "bindings": {"drop": {"kind": "spawn_raindrop"}}},
    ]
    scene_doc = _scene(objects, 120.0)
    scene = _write_json(work_dir / "scene.json", scene_doc)
    planted = [
        {"pattern": e.pattern_id, "kind": "impulse", "t": e.t_s} for e in events if e.kind is PatternKind.IMPULSE
    ]
    return Prepared(
        argv=["synth", str(tl_path), "--scene", scene, "--out-dir", OUT],
        manifest=None,
        scene=scene,
        audio_s=duration_s,
        fps=120.0,
        objects=[o["object_id"] for o in objects],
        planted=planted,
        spawn_patterns=_spawn_patterns(scene_doc),
    )


_BUILDERS = {
    # name: (builder, full-size duration s, smoke duration s)
    "impulse_dense": (_impulse_dense, 60.0, 2.0),
    "long_take": (_long_take, 120.0, 2.0),
    "synth_timeline": (_synth_timeline, 600.0, 5.0),
}


def prepare(name: str, seed: int, work_dir: Path, smoke: bool = False) -> Prepared:
    builder, full_s, smoke_s = _BUILDERS[name]
    work_dir.mkdir(parents=True, exist_ok=True)
    return builder(_rng(name, seed), seed, work_dir, smoke_s if smoke else full_s)
