"""Deterministic synthetic patterns and sequences with exact ground truth.

These stand in for voiced recordings in tests and fixtures: every
generated sample is a pure function of integer seeds (PCG64 streams), so
fixtures are byte-identical across runs and platforms.

Patterns are triangle-enveloped bursts. Tonal bursts lock their carrier
to a whole number of cycles per half pattern, which matters for
continuous instances: tiling copies at 50% overlap then crossfades
linearly into a constant-amplitude, phase-coherent sustained tone,
exactly the kind of signal the continuous detection rule expects.

A plan can also degrade an instance ("distort") by blending in an
equal-energy unrelated noise burst; that lowers the correlation peak a
planted instance scores without changing its strength, which is how
threshold-behavior fixtures are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import docio
from .audio import MAX_WAV_RATE_HZ, AudioClip
from .errors import PlanError, SchemaError
from .timeline import PatternKind

_SEED_MASK = (1 << 63) - 1

PATTERN_PEAK = 0.9


@dataclass(frozen=True)
class PlantedInstance:
    """One planned occurrence: an onset (impulse) or an interval (continuous)."""

    pattern_id: str
    onset_s: Optional[float] = None
    t_begin_s: Optional[float] = None
    t_end_s: Optional[float] = None
    amplitude: float = 1.0
    distort: float = 0.0
    distort_seed: int = 0

    def __post_init__(self):
        is_impulse = self.onset_s is not None
        is_interval = self.t_begin_s is not None or self.t_end_s is not None
        if is_impulse == is_interval:
            raise ValueError("a planted instance carries either onset_s or t_begin_s/t_end_s")
        if is_interval and (self.t_begin_s is None or self.t_end_s is None or not self.t_begin_s < self.t_end_s):
            raise ValueError(f"planted interval needs t_begin_s < t_end_s, got [{self.t_begin_s}, {self.t_end_s}]")
        if self.amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not 0.0 <= self.distort < 1.0:
            raise ValueError(f"distort must lie in [0, 1), got {self.distort}")

    @property
    def kind(self) -> PatternKind:
        return PatternKind.IMPULSE if self.onset_s is not None else PatternKind.CONTINUOUS


@dataclass(frozen=True)
class GroundTruth:
    """The full construction plan; doubles as the expected detection output."""

    duration_s: float
    sample_rate_hz: int
    seed: int
    noise_rms: float
    planted: tuple
    allow_overlap: bool = False

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.noise_rms < 0:
            raise ValueError(f"noise_rms must be >= 0, got {self.noise_rms}")
        object.__setattr__(self, "planted", tuple(self.planted))


def _triangle_window(n: int) -> np.ndarray:
    """Linear fade up then down; halves are exact complements, so copies
    overlap-added at hop n/2 sum to 1."""
    half = n // 2
    up = np.arange(half) / half
    return np.concatenate((up, 1.0 - up))


def pattern_length(duration_s: float, sample_rate_hz: int) -> int:
    """Samples in a generated pattern: the duration's, rounded down to an even count of at least 4."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    n = int(round(duration_s * sample_rate_hz))
    n -= n % 2
    if n < 4:
        raise ValueError(f"pattern too short: {duration_s} s at {sample_rate_hz} Hz")
    return n


def make_pattern(shape: str, duration_s: float, seed: int, sample_rate_hz: int = 44100) -> AudioClip:
    """A short deterministic burst usable as a dictionary pattern.

    tonal_burst: enveloped sine whose frequency (roughly 300-3000 Hz,
    snapped to whole cycles per half pattern) and phase derive from the
    seed. noise_burst: enveloped Gaussian noise. Both peak at 0.9.
    """
    n = pattern_length(duration_s, sample_rate_hz)
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    window = _triangle_window(n)
    if shape == "tonal_burst":
        hop_s = (n // 2) / sample_rate_hz
        lo = max(2, int(np.ceil(300.0 * hop_s)))
        hi = max(lo + 1, int(np.floor(3000.0 * hop_s)))
        cycles_per_hop = int(rng.integers(lo, hi + 1))
        freq = cycles_per_hop / hop_s
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n) / sample_rate_hz
        x = window * np.sin(2.0 * np.pi * freq * t + phase)
    elif shape == "noise_burst":
        x = window * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown pattern shape {shape!r}")
    x *= PATTERN_PEAK / np.max(np.abs(x))
    return AudioClip(x, sample_rate_hz)


def _distortion_noise(n: int, seed: int, reference: np.ndarray) -> np.ndarray:
    """Same-envelope noise scaled to the reference's energy."""
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    q = _triangle_window(n) * rng.standard_normal(n)
    return q * (np.linalg.norm(reference) / np.linalg.norm(q))


def _instance_signal(p: np.ndarray, inst: PlantedInstance) -> np.ndarray:
    if inst.distort <= 0:
        return p
    q = _distortion_noise(p.size, inst.distort_seed, p)
    x = (1.0 - inst.distort) * p + inst.distort * q
    # correlation against p ~ (1-d)/hypot(1-d, d), invariant to this rescale;
    # peak-normalize like a pattern so the mix can never clip the whole take
    return x * (PATTERN_PEAK / np.max(np.abs(x)))


def _support(inst: PlantedInstance, pattern_duration: float) -> tuple[float, float]:
    if inst.kind is PatternKind.IMPULSE:
        return inst.onset_s, inst.onset_s + pattern_duration
    return inst.t_begin_s, inst.t_end_s


def place_instances(patterns: Mapping[str, AudioClip], plan: GroundTruth) -> AudioClip:
    """Render the plan: shifted scaled pattern copies plus background noise.

    Continuous instances tile their pattern at 50% overlap; the triangle
    envelopes cross-fade linearly, so a coherent tonal pattern sustains at
    constant amplitude. The mix is rescaled only if it would clip, which
    the non-overlap check makes rare; keep planted amplitudes modest when
    absolute strengths matter.
    """
    sr = plan.sample_rate_hz
    n = int(round(plan.duration_s * sr))
    out = np.zeros(n)

    supports = []
    for inst in plan.planted:
        if inst.pattern_id not in patterns:
            raise PlanError(f"planted pattern {inst.pattern_id!r} is not defined")
        clip = patterns[inst.pattern_id]
        if clip.sample_rate_hz != sr:
            raise PlanError(f"pattern {inst.pattern_id!r} rate {clip.sample_rate_hz} != plan rate {sr}")
        begin, end = _support(inst, clip.duration_s)
        if begin < 0 or end > plan.duration_s:
            raise PlanError(
                f"instance of {inst.pattern_id!r} spans [{begin:.3f}, {end:.3f}] s, "
                f"outside the {plan.duration_s} s sequence"
            )
        supports.append((begin, end, inst.pattern_id))

    if not plan.allow_overlap:
        ordered = sorted(supports)
        for (b0, e0, id0), (b1, e1, id1) in zip(ordered, ordered[1:]):
            if b1 < e0:
                raise PlanError(
                    f"instances of {id0!r} and {id1!r} overlap around {b1:.3f} s "
                    "(set allow_overlap for collision fixtures)"
                )

    for inst in plan.planted:
        p = _instance_signal(patterns[inst.pattern_id].samples, inst)
        m = p.size
        if inst.kind is PatternKind.IMPULSE:
            i = int(round(inst.onset_s * sr))
            out[i : i + m] += inst.amplitude * p
        else:
            b = int(round(inst.t_begin_s * sr))
            e = int(round(inst.t_end_s * sr))
            hop = m // 2
            start = b
            placed = False
            while start + m <= e:
                out[start : start + m] += inst.amplitude * p
                start += hop
                placed = True
            if not placed:  # interval shorter than the pattern: truncate one copy
                out[b:e] += inst.amplitude * p[: e - b]

    if plan.noise_rms > 0:
        rng = np.random.default_rng(int(plan.seed) & _SEED_MASK)
        out += plan.noise_rms * rng.standard_normal(n)

    peak = float(np.max(np.abs(out))) if n else 0.0
    if peak > 1.0:
        out /= peak
    return AudioClip(out, sr)


@dataclass(frozen=True)
class PatternDef:
    id: str
    kind: PatternKind
    shape: str
    duration_s: float
    seed: int

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")


@dataclass(frozen=True, kw_only=True)
class FixturePlan(GroundTruth):
    """A serializable plan: the ground truth plus its pattern definitions."""

    patterns: tuple


def realize(plan: FixturePlan) -> tuple[AudioClip, dict]:
    """Generate the sequence and the pattern clips a plan describes."""
    clips = {
        d.id: make_pattern(d.shape, d.duration_s, d.seed, plan.sample_rate_hz) for d in plan.patterns
    }
    sequence = place_instances(clips, plan)
    return sequence, clips


def _shape(value, path: str) -> str:
    shape = docio.as_string(value, path)
    if shape not in ("tonal_burst", "noise_burst"):
        raise SchemaError(path, f"unknown pattern shape {shape!r}")
    return shape


def _parse_pattern(obj, path: str, rate: int) -> PatternDef:
    with docio.Fields(obj, path) as f:
        fields = dict(
            kind=f.enum("kind", PatternKind, "pattern kind"),
            shape=f.read("shape", _shape, "tonal_burst"),
            id=f.read("id", docio.as_file_name),
            duration_s=f.read("duration_s", docio.as_number),
            seed=f.read("seed", docio.as_integer),
        )
        try:
            definition = PatternDef(**fields)
            pattern_length(fields["duration_s"], rate)
        except ValueError as exc:
            raise SchemaError(f.at("duration_s"), str(exc)) from exc
    return definition


def _parse_planted(obj, path: str, ids) -> PlantedInstance:
    with docio.Fields(obj, path) as f:
        pattern_id = f.read("pattern", docio.as_string)
        if pattern_id not in ids:
            raise SchemaError(f.at("pattern"), f"pattern {pattern_id!r} is not defined")
        fields = dict(
            amplitude=f.read("amplitude", docio.as_number, 1.0),
            distort=f.read("distort", docio.as_number, 0.0),
            distort_seed=f.read("distort_seed", docio.as_integer, 0),
            onset_s=f.read("t", docio.as_number, None),
        )
        if "t_begin" in f.obj or "t_end" in f.obj:
            fields["t_begin_s"] = f.read("t_begin", docio.as_number)
            fields["t_end_s"] = f.read("t_end", docio.as_number)
    try:
        return PlantedInstance(pattern_id=pattern_id, **fields)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_plan(text: str) -> FixturePlan:
    with docio.Fields(docio.parse_json(text, "plan")) as f:
        duration = f.read("duration_s", docio.as_number)
        rate = f.read("sample_rate_hz", docio.as_integer)
        seed = f.read("seed", docio.as_integer, 0)
        noise_rms = f.read("noise_rms", docio.as_number, 0.0)
        allow_overlap = f.read("allow_overlap", docio.as_boolean, False)
        if not duration > 0:
            raise SchemaError(f.at("duration_s"), f"must be positive, got {duration}")
        if not 0 < rate <= MAX_WAV_RATE_HZ:
            raise SchemaError(f.at("sample_rate_hz"), f"must lie in [1, {MAX_WAV_RATE_HZ}], got {rate}")
        if noise_rms < 0:
            raise SchemaError(f.at("noise_rms"), f"must be >= 0, got {noise_rms}")
        defs = f.read("patterns", docio.array_of(lambda obj, path: _parse_pattern(obj, path, rate)))
        ids = [d.id for d in defs]
        if len(set(ids)) != len(ids):
            raise SchemaError(f.at("patterns"), "pattern ids must be unique")
        planted = f.read("planted", docio.array_of(lambda obj, path: _parse_planted(obj, path, ids)))
    try:
        return FixturePlan(
            duration_s=duration,
            sample_rate_hz=rate,
            seed=seed,
            noise_rms=noise_rms,
            patterns=tuple(defs),
            planted=tuple(planted),
            allow_overlap=allow_overlap,
        )
    except ValueError as exc:
        raise SchemaError("", str(exc)) from exc


def serialize_plan(plan: FixturePlan) -> str:
    planted = []
    for inst in plan.planted:
        obj = {
            "pattern": inst.pattern_id,
            "amplitude": float(inst.amplitude),
            "distort": float(inst.distort),
            "distort_seed": int(inst.distort_seed),
        }
        if inst.kind is PatternKind.IMPULSE:
            obj["t"] = float(inst.onset_s)
        else:
            obj["t_begin"] = float(inst.t_begin_s)
            obj["t_end"] = float(inst.t_end_s)
        planted.append(obj)
    return docio.dump_json(
        {
            "duration_s": float(plan.duration_s),
            "sample_rate_hz": int(plan.sample_rate_hz),
            "seed": int(plan.seed),
            "noise_rms": float(plan.noise_rms),
            "allow_overlap": plan.allow_overlap,
            "patterns": [
                {
                    "id": d.id,
                    "kind": d.kind.value,
                    "shape": d.shape,
                    "duration_s": float(d.duration_s),
                    "seed": int(d.seed),
                }
                for d in plan.patterns
            ],
            "planted": planted,
        }
    )
