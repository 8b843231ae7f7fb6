"""Procedural animation primitives driven by event times.

Trajectories are closed-form, not simulated. A bounce is a chain of
parabolas pinned to hit the floor exactly at its event times: between
consecutive impacts t_k and t_k+1 the take-off speed is g*(t_k+1-t_k)/2,
which lands the next hit on the beat. Squash is a volume-preserving
cosine bump around each impact, evaluated only on the frames inside its
window, so sampling costs frames plus bumps times the frames per bump,
not bumps times all frames; slides translate at constant speed while
holding the squash, which is likewise evaluated only inside the slide's
interval; vertical steering integrates a signed speed over the
continuous intervals, saturating at its bounds.

All randomness (spawn placement) flows from explicit integer seeds with
one independent stream per spawned entity, so outputs are bit-identical
across runs and inserting an event does not reshuffle the others.

Curve tables export to CSV with each value's shortest round-trip `repr`,
formatted a block of rows at a time: `csv_blocks` yields the text block
by block, so each writer process holds one block of it, and
`curves_to_csv` joins the blocks. `sample` can sample a range of frames
only, whose rows are bit for bit those of all frames, so writer
processes can each format their own range of one table. Within a block,
`repr` runs once per distinct value of a column (distinct by bits, so
-0.0 stays -0.0); curve columns repeat values a lot, and a constant one
costs one `repr` per block. All objects of a scene share one time grid:
its formatted column is kept, one string per block, and reused while
the next table's grid has the very same bytes.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import docio
from .errors import AnimationError
from .timeline import EventInstance

PositionProvider = Callable[[np.ndarray], np.ndarray]  # (n,) times -> (n, 3) meters
ScaleProvider = Callable[[np.ndarray], np.ndarray]  # (n,) times -> (n, 3) factors

_SEED_MASK = (1 << 63) - 1
# No array of more frames can exist: its (n, 3) float64 table would
# outgrow the largest size numpy can index.
_MAX_FRAMES = sys.maxsize // 24


class TailMode(Enum):
    REST = "rest"
    REPEAT_LAST_INTERVAL = "repeat_last"


@dataclass(frozen=True)
class BallisticParams:
    g: float = 9.81
    tail_mode: TailMode = TailMode.REST

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError(f"g must be positive, got {self.g}")


@dataclass(frozen=True)
class SquashParams:
    amplitude: float = 0.3
    duration_s: float = 0.15
    strength_scaling: bool = True
    strength_clamp: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must lie in [0, 1), got {self.amplitude}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.strength_clamp < 0:
            raise ValueError(f"strength_clamp must be >= 0, got {self.strength_clamp}")
        if self.amplitude * self.strength_clamp >= 1.0:
            raise ValueError(
                f"amplitude*strength_clamp must stay below 1, got {self.amplitude * self.strength_clamp}"
            )


@dataclass(frozen=True)
class AnimationCurves:
    """Uniformly sampled position and scale for one object."""

    object_id: str
    fps: float
    times: np.ndarray  # (n,)
    positions: np.ndarray  # (n, 3)
    scales: np.ndarray  # (n, 3)

    def __post_init__(self):
        for name in ("times", "positions", "scales"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SpawnEvent:
    t_s: float
    entity_kind: str
    size: float
    position: tuple

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"spawn size must be positive, got {self.size}")
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))


@dataclass(frozen=True)
class FixedPlacement:
    position: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class LanePlacement:
    height: float = 0.0  # spawns at (0, 0, height)


@dataclass(frozen=True)
class UniformRectPlacement:
    x_range: tuple = (-5.0, 5.0)
    y_range: tuple = (-5.0, 5.0)  # spawns on the floor, z = 0


PlacementRule = Union[FixedPlacement, LanePlacement, UniformRectPlacement]


class BounceTrajectory:
    """Piecewise-parabolic height curve hitting zero at every event time."""

    def __init__(self, event_times: Sequence[float], params: BallisticParams):
        times = [float(t) for t in event_times]
        if any(t < 0 for t in times):
            raise AnimationError("bounce event times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise AnimationError("bounce event times must be strictly increasing")
        self.event_times = tuple(times)
        self.params = params
        seg_times = list(times)
        seg_speeds = [0.5 * params.g * (b - a) for a, b in zip(times, times[1:])]
        if params.tail_mode is TailMode.REPEAT_LAST_INTERVAL and len(times) >= 2:
            last = times[-1] - times[-2]
            seg_times.append(times[-1] + last)
            seg_speeds.append(0.5 * params.g * last)
        self._seg_times = np.asarray(seg_times)
        self._seg_speeds = np.asarray(seg_speeds + [0.0])  # rest after the final segment

    def height(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if not self.event_times:
            return np.zeros_like(t)
        g = self.params.g
        z = np.zeros_like(t)
        first = self._seg_times[0]
        before = t < first
        # drop from rest, positioned so the first impact lands on the beat
        z[before] = 0.5 * g * (first - t[before]) * (first + t[before])
        k = np.searchsorted(self._seg_times, t, side="right")
        inside = (k >= 1) & (k < self._seg_times.size)
        ki = k[inside] - 1
        tau = t[inside] - self._seg_times[ki]
        z[inside] = tau * (self._seg_speeds[ki] - 0.5 * g * tau)
        return z

    def position(self, t) -> np.ndarray:
        z = self.height(t)
        return np.column_stack((np.zeros_like(z), np.zeros_like(z), z))


def solve_bounce(event_times: Sequence[float], params: Optional[BallisticParams] = None) -> BounceTrajectory:
    return BounceTrajectory(event_times, params or BallisticParams())


def _volume_preserving(scale_z: np.ndarray) -> np.ndarray:
    lateral = 1.0 / np.sqrt(scale_z)
    return np.column_stack((lateral, lateral, scale_z))


class SquashProfile:
    """Cosine squash bump around one impact; identity outside its window.

    Calling a profile is calling `scale`. Its `support` is the window
    [impact - duration/2, impact + duration/2]; `sample` evaluates the
    profile only on the frames inside it.
    """

    def __init__(self, impact_t: float, strength: float, params: SquashParams):
        if strength < 0:
            raise AnimationError(f"strength must be >= 0, got {strength}")
        self.impact_t = float(impact_t)
        self.params = params
        half = params.duration_s / 2
        self.support = (self.impact_t - half, self.impact_t + half)
        if params.strength_scaling:
            self.depth = params.amplitude * min(strength, params.strength_clamp)
        else:
            self.depth = params.amplitude
        if self.depth >= 1.0:
            raise AnimationError(f"squash depth {self.depth} would flatten the object")

    def scale(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        half = self.params.duration_s / 2
        offset = t - self.impact_t
        bump = np.where(
            np.abs(offset) <= half,
            0.5 * (1.0 + np.cos(np.pi * offset / half)),
            0.0,
        )
        return _volume_preserving(1.0 - self.depth * bump)

    __call__ = scale


def squash_profile(impact_t: float, strength: float, params: Optional[SquashParams] = None) -> SquashProfile:
    return SquashProfile(impact_t, strength, params or SquashParams())


class SlideSegment:
    """Constant-speed translation plus a held squash over one interval.

    Calling a segment is calling `scale`. The squash eases in from and out
    to exactly `_volume_preserving(1.0)`, the identity, at the interval's
    ends and stays there outside it, so its `support` is the interval and
    `sample` evaluates it only on the frames inside.
    """

    def __init__(self, interval, speed: float, squash: SquashParams):
        t_begin, t_end = float(interval[0]), float(interval[1])
        if not t_begin < t_end:
            raise AnimationError(f"slide interval needs t_begin < t_end, got [{t_begin}, {t_end}]")
        self.t_begin = t_begin
        self.t_end = t_end
        self.support = (t_begin, t_end)
        self.speed = float(speed)
        self.squash = squash
        self.ease_s = min(0.05, (t_end - t_begin) / 4)

    def displacement(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return self.speed * np.clip(t - self.t_begin, 0.0, self.t_end - self.t_begin)

    def position(self, t) -> np.ndarray:
        x = self.displacement(t)
        return np.column_stack((x, np.zeros_like(x), np.zeros_like(x)))

    def scale(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        up = np.clip((t - self.t_begin) / self.ease_s, 0.0, 1.0)
        down = np.clip((self.t_end - t) / self.ease_s, 0.0, 1.0)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.minimum(up, down)))
        return _volume_preserving(1.0 - self.squash.amplitude * ramp)

    __call__ = scale


def slide_segment(interval, speed: float, squash: Optional[SquashParams] = None) -> SlideSegment:
    return SlideSegment(interval, speed, squash or SquashParams())


def _check_disjoint(intervals, label_a: str, others, label_b: str) -> None:
    for a in intervals:
        for b in others:
            if a is b:
                continue
            if a[0] < b[1] and b[0] < a[1]:
                raise AnimationError(
                    f"{label_a} interval [{a[0]}, {a[1]}] overlaps {label_b} interval [{b[0]}, {b[1]}]"
                )


class SteerCurve:
    """Piecewise-linear height: integrates +/- speed over its intervals, clamped."""

    def __init__(self, intervals_up, intervals_down, speed: float, bounds, start_height: float = 0.0):
        if speed < 0:
            raise AnimationError(f"steer speed must be >= 0, got {speed}")
        z_min, z_max = float(bounds[0]), float(bounds[1])
        if not z_min < z_max:
            raise AnimationError(f"bounds need z_min < z_max, got ({z_min}, {z_max})")
        ups = sorted((float(a), float(b)) for a, b in intervals_up)
        downs = sorted((float(a), float(b)) for a, b in intervals_down)
        for a, b in ups + downs:
            if not a < b:
                raise AnimationError(f"steer interval needs t_begin < t_end, got [{a}, {b}]")
        _check_disjoint(ups, "up", ups, "up")
        _check_disjoint(downs, "down", downs, "down")
        _check_disjoint(ups, "up", downs, "down")

        segments = sorted(
            [(a, b, speed) for a, b in ups] + [(a, b, -speed) for a, b in downs]
        )
        z = min(max(float(start_height), z_min), z_max)
        knot_t, knot_z = [0.0], [z]
        cursor = 0.0
        for a, b, rate in segments:
            if a > cursor:
                knot_t.append(a)
                knot_z.append(z)
            target = z + rate * (b - a)
            if target > z_max:
                hit = a + (z_max - z) / rate
                knot_t.extend((hit, b))
                knot_z.extend((z_max, z_max))
                z = z_max
            elif target < z_min:
                hit = a + (z_min - z) / rate
                knot_t.extend((hit, b))
                knot_z.extend((z_min, z_min))
                z = z_min
            else:
                knot_t.append(b)
                knot_z.append(target)
                z = target
            cursor = b
        self._knot_t = np.asarray(knot_t)
        self._knot_z = np.asarray(knot_z)

    def height(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return np.interp(t, self._knot_t, self._knot_z)

    def position(self, t) -> np.ndarray:
        z = self.height(t)
        return np.column_stack((np.zeros_like(z), np.zeros_like(z), z))


def steer_vertical(
    intervals_up,
    intervals_down,
    speed: float,
    bounds,
    start_height: float = 0.0,
) -> SteerCurve:
    return SteerCurve(intervals_up, intervals_down, speed, bounds, start_height)


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """One independent stream per spawned entity, keyed by (seed, index)."""
    return np.random.default_rng((int(seed) & _SEED_MASK, int(index)))


def spawn_from_impulses(
    events: Sequence[EventInstance],
    entity_kind: str,
    size_base: float,
    size_per_strength: float,
    placement: PlacementRule,
    seed: int,
) -> list[SpawnEvent]:
    """One spawn per impulse event; size grows linearly with event strength.

    Set size_per_strength to 0 to ignore how loud the sound was (hand
    knocks on a table carry rhythm but not meaningful magnitude).
    """
    if size_base <= 0:
        raise AnimationError(f"size_base must be positive, got {size_base}")
    spawns = []
    for index, event in enumerate(sorted(events, key=lambda e: (e.onset_s, e.pattern_id))):
        if isinstance(placement, FixedPlacement):
            position = placement.position
        elif isinstance(placement, LanePlacement):
            position = (0.0, 0.0, placement.height)
        elif isinstance(placement, UniformRectPlacement):
            rng = spawn_rng(seed, index)
            position = (
                rng.uniform(*placement.x_range),
                rng.uniform(*placement.y_range),
                0.0,
            )
        else:
            raise AnimationError(f"unknown placement rule {placement!r}")
        size = size_base + size_per_strength * event.strength
        if not 0 < size < math.inf:
            raise AnimationError(
                f"spawn size must be positive and finite, got {size} for the event at {event.onset_s} s "
                f"(strength {event.strength})"
            )
        spawns.append(SpawnEvent(t_s=event.onset_s, entity_kind=entity_kind, size=size, position=position))
    return spawns


def _frames_within(times: np.ndarray, support) -> slice:
    """The frames of the sorted `times` in `support` = (t_begin, t_end), all of them for None.

    The interval is widened by a few ulps, so no frame that a provider's
    own test on t - t_center could place inside it is left out by rounding.
    """
    if support is None:
        return slice(None)
    t_begin, t_end = support
    slack = 4 * math.ulp(max(abs(t_begin), abs(t_end)))
    i0 = np.searchsorted(times, t_begin - slack, side="left")
    i1 = np.searchsorted(times, t_end + slack, side="right")
    return slice(int(i0), int(i1))


def frame_count(duration_s: float, fps: float) -> int:
    """The number of frames `sample` takes from t=0 through duration_s, or an
    AnimationError when there is no such sampling."""
    if fps <= 0:
        raise AnimationError(f"fps must be positive, got {fps}")
    if duration_s < 0:
        raise AnimationError(f"duration_s must be >= 0, got {duration_s}")
    if not duration_s * fps < _MAX_FRAMES:
        raise AnimationError(f"{duration_s} s at fps {fps} is more frames than an array can hold")
    return int(math.floor(duration_s * fps + 1e-9)) + 1


def sample(
    position_providers: Sequence[PositionProvider],
    scale_providers: Sequence[ScaleProvider],
    duration_s: float,
    fps: float,
    object_id: str = "object",
    frames: Optional[range] = None,
) -> AnimationCurves:
    """Sample the composed motion uniformly from t=0 through duration_s,
    on the frames of the range `frames` only if it is given.

    Positions of all providers sum; scales multiply componentwise, in
    provider order. A scale provider with a `support` (t_begin, t_end),
    such as a `SquashProfile` or a `SlideSegment`, is the identity outside
    that interval and is evaluated only on the frames inside it: a factor
    of exactly 1 elsewhere changes no bit of the product. Every provider
    is pointwise in t, so the curves of a range of frames are bit for bit
    those rows of the curves of all frames.
    """
    n = frame_count(duration_s, fps)
    if frames is None:
        frames = range(n)
    elif frames.step != 1 or not 0 <= frames.start <= frames.stop <= n:
        raise ValueError(f"frames must be a contiguous range within range({n}), got {frames}")
    times = np.arange(frames.start, frames.stop) / fps
    positions = np.zeros((times.size, 3))
    for provider in position_providers:
        positions = positions + provider(times)
    scales = np.ones((times.size, 3))
    for provider in scale_providers:
        inside = _frames_within(times, getattr(provider, "support", None))
        scales[inside] *= provider(times[inside])
    return AnimationCurves(object_id=object_id, fps=float(fps), times=times, positions=positions, scales=scales)


def on_axis(axis: int, values_fn: Callable[[np.ndarray], np.ndarray]) -> PositionProvider:
    """Lift a scalar curve onto one axis of a 3-vector position provider."""

    def provider(t: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(np.asarray(values_fn(t), dtype=np.float64))
        out = np.zeros((values.size, 3))
        out[:, axis] = values
        return out

    return provider


def csv_blocks(curves: AnimationCurves, header: bool = True) -> Iterator[str]:
    """Tabular export, one row per frame: the header `t,px,py,pz,sx,sy,sz`
    unless `header` is False, then the rows a block of
    `docio.CSV_BLOCK_ROWS` at a time.

    Each value is its `repr`, called once per distinct value of a column
    in each block of rows (`docio.format_floats`). The time column comes
    formatted from `_time_blocks`, which keeps the last grid it formatted.
    """
    if header:
        yield "t,px,py,pz,sx,sy,sz\n"
    values = (*curves.positions.T, *curves.scales.T)
    step = docio.CSV_BLOCK_ROWS
    starts = range(0, curves.times.size, step)
    for start, times in zip(starts, _time_blocks(curves.times.tobytes())):
        rows = slice(start, start + step)
        yield docio.csv_block([times.split(","), *(docio.format_floats(v[rows]) for v in values)])


def curves_to_csv(curves: AnimationCurves) -> str:
    """The whole CSV of `csv_blocks` as one string."""
    return "".join(csv_blocks(curves))


@functools.lru_cache(maxsize=1)
def _time_blocks(grid: bytes) -> tuple[str, ...]:
    """The float64 time grid, given as its bytes, formatted one comma-joined
    string per block of rows.

    Every object of a scene is sampled on the same grid, so the grid is
    formatted once for all of them. The key is the exact bytes: a grid
    that differs in one bit, even the sign of a zero, is formatted afresh.
    """
    times = np.frombuffer(grid)
    step = docio.CSV_BLOCK_ROWS
    return tuple(
        ",".join(docio.format_floats(times[start : start + step])) for start in range(0, times.size, step)
    )
