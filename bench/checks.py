"""Correctness gate for the outputs of one benchmark pass.

Reads the files a pass wrote with plain `json`, never through soundcue,
so a defect in soundcue's own readers cannot hide one in its writers.

Tolerances are those of acceptance criterion 01: an impulse is recovered
when an event of the same pattern lies within 10 ms of its planted onset,
and a continuous segment when both ends lie within one pattern duration.
A recovered impulse must also report a strength within 5 % of its
planted amplitude a, corrected for the background noise that `strength`
measures along with the instance: sqrt(a**2 + r), with r the noise's
expected energy in the window over the pattern's energy (0.007 for the
tonal and 0.035 for the noise-burst patterns at -30 dB noise).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

IMPULSE_TOL_S = 0.010
STRENGTH_RTOL = 0.05
CSV_HEADER = b"t,px,py,pz,sx,sy,sz\n"


def digest(out_dir: Path) -> dict:
    """sha256 of every file a pass wrote, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def _events(timeline_path: Path) -> list:
    doc = json.loads(timeline_path.read_text(encoding="utf-8"))
    return [e for track in doc["tracks"] for e in track["events"]]


def _match(planted: list, events: list, durations: dict) -> tuple[int, list]:
    """One-to-one matches at the acceptance-01 tolerances.

    Returns the number of matched events and the (planted, event) pairs.
    """
    pairs, used = [], set()
    for want in planted:
        for j, got in enumerate(events):
            if j in used or got["pattern"] != want["pattern"] or got["kind"] != want["kind"]:
                continue
            if want["kind"] == "impulse":
                hit = abs(got["t"] - want["t"]) <= IMPULSE_TOL_S
            else:
                d = durations[want["pattern"]]
                hit = abs(got["t_begin"] - want["t_begin"]) <= d and abs(got["t_end"] - want["t_end"]) <= d
            if hit:
                used.add(j)
                pairs.append((want, got))
                break
    return len(used), pairs


def _check_spawns(events: list, spawn_patterns: dict, spawns: list) -> tuple[list, float, float]:
    """Every impulse bound to a spawn action yields one spawn at its time."""
    expected = sorted(
        (e["t"], spawn_patterns[e["pattern"]])
        for e in events
        if e["kind"] == "impulse" and e["pattern"] in spawn_patterns
    )
    got = sorted((s["t"], s["kind"]) for s in spawns)
    remaining = list(got)
    for item in expected:
        if item in remaining:
            remaining.remove(item)
    matched = len(got) - len(remaining)
    problems = []
    if len(got) != len(expected):
        problems.append(f"{len(got)} spawns for {len(expected)} spawn-bound impulse events")
    elif matched != len(expected):
        problems.append(f"{len(expected) - matched} spawns differ from their events in time or kind")
    recall = matched / len(expected) if expected else 1.0
    precision = matched / len(got) if got else 1.0
    return problems, recall, precision


def _check_curves(out_dir: Path, objects: list, frames: int) -> list:
    problems = []
    for object_id in objects:
        data = (out_dir / f"{object_id}_curves.csv").read_bytes()
        if not data.startswith(CSV_HEADER):
            problems.append(f"{object_id}_curves.csv: unexpected header")
        rows = data.count(b"\n") - 1
        if rows != frames:
            problems.append(f"{object_id}_curves.csv: {rows} frames, expected {frames}")
    return problems


def check_outputs(prep, out_dir: Path) -> tuple[list, float, float]:
    """Problems found in one pass's outputs, plus its recall and precision.

    A `run` pass is scored on the events it detected against the planted
    instances. A `synth` pass is scored on its spawns against the impulse
    events of its input timeline that the scene binds to spawn actions.
    """
    problems = []
    animation = json.loads((out_dir / "animation.json").read_text(encoding="utf-8"))
    problems += _check_curves(out_dir, prep.objects, prep.frames)
    if prep.argv[0] == "run":
        events = _events(out_dir / "timeline.json")
        matched, pairs = _match(prep.planted, events, prep.durations)
        recall = matched / len(prep.planted)
        precision = matched / len(events) if events else 0.0
        if matched < len(prep.planted):
            problems.append(f"{len(prep.planted) - matched} of {len(prep.planted)} planted instances missed")
        if matched < len(events):
            problems.append(f"{len(events) - matched} of {len(events)} detected events match nothing planted")
        off = []
        for want, got in pairs:
            if want["kind"] == "impulse":
                expected = math.sqrt(want["amplitude"] ** 2 + prep.noise_energy[want["pattern"]])
                if abs(got["strength"] - expected) > STRENGTH_RTOL * expected:
                    off.append((want["t"], got["strength"], expected))
        if off:
            t, got, want = off[0]
            problems.append(f"{len(off)} impulse strengths off by more than {STRENGTH_RTOL:.0%}, e.g. {got:.4f} for {want:.4f} at {t} s")
        spawn_problems, _, _ = _check_spawns(events, prep.spawn_patterns, animation["spawns"])
    else:
        spawn_problems, recall, precision = _check_spawns(prep.planted, prep.spawn_patterns, animation["spawns"])
    return problems + spawn_problems, recall, precision
