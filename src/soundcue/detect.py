"""Turn a recording plus a pattern dictionary into a timeline of events.

Detection runs in two stages over one pass. `pattern_traces`, the one
place a trace is computed, yields the traces one pattern at a time;
`detect_from_traces` only decides which peaks and runs are events, and
drops each pattern's traces before it asks for the next, so only one
length's window energy and one pattern's traces are alive at a time.
`soundcue detect --report` writes the very traces the decisions read.

Impulse patterns: local maxima of the normalized cross-correlation above
the impulse threshold become candidates; candidates of all patterns then
go through greedy non-maximum suppression so that near-simultaneous,
sound-alike patterns cannot both fire.

Continuous patterns: the correlation of a sustained sound against its
short pattern swings through the full +/- range as the alignment phase
drifts, so the trace is rectified before the boxcar average; an event
spans every maximal stretch where that averaged magnitude stays above
the continuous threshold for at least the minimum duration.

Each surviving event gets a strength: the square root of the energy
ratio between its instance window and its reference pattern, so a
louder "Tick" yields a proportionally stronger event. The instance
window of an impulse is [onset, onset + pattern duration], the samples
its correlation scored; a continuous event's is its interval. Windows
are clamped to the recording.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .audio import AudioClip, resample
from .correlate import (
    CorrelationTrace,
    energy,
    find_local_maxima,
    moving_average,
    normalized_cross_correlate,
    window_energy,
)
from .errors import DetectionError
from .timeline import EventInstance, PatternKind, Timeline, Track


@dataclass(frozen=True)
class SoundPattern:
    """A dictionary entry: one short template sound bound to an action id."""

    id: str
    clip: AudioClip
    kind: PatternKind

    def __post_init__(self):
        if not self.id:
            raise ValueError("pattern id must be non-empty")
        if len(self.clip) == 0 or float(np.dot(self.clip.samples, self.clip.samples)) <= 0.0:
            raise ValueError(f"pattern {self.id!r} has zero energy")

    @property
    def duration_s(self) -> float:
        return self.clip.duration_s


@dataclass(frozen=True)
class DetectorConfig:
    impulse_threshold: float = 0.5
    continuous_threshold: float = 0.5
    continuous_min_duration_s: float = 0.15
    suppression: bool = True

    def __post_init__(self):
        for name in ("impulse_threshold", "continuous_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if not self.continuous_min_duration_s >= 0:
            raise ValueError(f"continuous_min_duration_s must be >= 0, got {self.continuous_min_duration_s}")


@dataclass(frozen=True)
class Candidate:
    pattern_id: str
    lag_time_s: float
    correlation_value: float


def suppress(candidates: Sequence[Candidate], patterns: Mapping[str, SoundPattern]) -> list[Candidate]:
    """Greedy cross-pattern non-maximum suppression.

    Candidates are visited by descending correlation value (ties: earlier
    time, then pattern id). One is kept only if no already-kept candidate
    lies within half the kept candidate's own pattern duration of it.
    Returns the survivors sorted by time.

    Only kept candidates within the largest half duration can reject one,
    so the kept times are held sorted and each candidate is tested against
    the neighbours a bisection finds there, not against all kept ones. The
    window is widened by a few ulps so that rounding at its edges cannot
    leave out a neighbour the exact test would count.
    """
    ordered = sorted(candidates, key=lambda c: (-c.correlation_value, c.lag_time_s, c.pattern_id))
    if not ordered:
        return []
    half = {pid: patterns[pid].duration_s / 2 for pid in {c.pattern_id for c in ordered}}
    reach = max(half.values())
    reach += 4 * math.ulp(reach + max(abs(c.lag_time_s) for c in ordered))
    kept_times: list[float] = []  # sorted
    kept_halves: list[float] = []  # beside kept_times
    kept: list[Candidate] = []
    for cand in ordered:
        t = cand.lag_time_s
        lo = bisect_left(kept_times, t - reach)
        hi = bisect_right(kept_times, t + reach, lo)
        if all(abs(t - kept_times[i]) > kept_halves[i] for i in range(lo, hi)):
            at = bisect_right(kept_times, t, lo, hi)
            kept_times.insert(at, t)
            kept_halves.insert(at, half[cand.pattern_id])
            kept.append(cand)
    return sorted(kept, key=lambda c: (c.lag_time_s, c.pattern_id))


def _continuous_intervals(
    averaged: CorrelationTrace, pattern: SoundPattern, cfg: DetectorConfig, duration_s: float
) -> list[tuple[float, float, float]]:
    """(t_begin, t_end, peak averaged magnitude) per detected interval.

    The correlation at lag tau scores the window [tau, tau+dt], so lags
    stay high only while a whole pattern still fits inside the sound:
    onsets of a segment [b, e] span [b, e-dt]. The reported interval adds
    the pattern duration back to the run's end so it describes when the
    sound is playing; runs whose supports then touch are merged.
    """
    above = averaged.values > cfg.continuous_threshold
    if not above.any():
        return []
    sr = averaged.sample_rate_hz
    flat = np.flatnonzero(above)
    breaks = np.flatnonzero(np.diff(flat) > 1)
    run_starts = np.concatenate(([flat[0]], flat[breaks + 1]))
    run_ends = np.concatenate((flat[breaks], [flat[-1]]))  # inclusive
    intervals: list[list[float]] = []
    for i0, i1 in zip(run_starts, run_ends):
        begin = i0 / sr
        end = min((i1 + 1) / sr + pattern.duration_s, duration_s)
        peak = float(np.max(averaged.values[i0 : i1 + 1]))
        if intervals and begin <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], end)
            intervals[-1][2] = max(intervals[-1][2], peak)
        else:
            intervals.append([begin, end, peak])
    return [
        (b, e, peak)
        for b, e, peak in intervals
        if e - b >= cfg.continuous_min_duration_s - 1e-12
    ]


def strength(instance: AudioClip, pattern: SoundPattern) -> float:
    """sqrt of the instance/pattern energy ratio; 1.0 means voiced as loud as the reference."""
    reference = energy(pattern.clip)
    if reference <= 0.0:
        raise DetectionError(f"pattern {pattern.id!r} has zero energy")
    return math.sqrt(energy(instance) / reference)


def _event(s: AudioClip, pattern: SoundPattern, t0: float, t1: float, peak: float) -> EventInstance:
    """The event for one instance of `pattern` whose window is [t0, t1].

    An impulse event is timed at t0; a continuous event spans [t0, t1].
    Its strength is measured on the window, clamped to the recording.
    """
    sr, n = s.sample_rate_hz, len(s)
    i0, i1 = (min(max(int(round(t * sr)), 0), n) for t in (t0, t1))
    instance = AudioClip(s.samples[i0:i1], sr)
    times = {"t_s": t0} if pattern.kind is PatternKind.IMPULSE else {"t_begin_s": t0, "t_end_s": t1}
    return EventInstance(pattern.id, pattern.kind, strength(instance, pattern), peak, **times)


def _aligned(pattern: SoundPattern, rate: int) -> SoundPattern:
    if pattern.clip.sample_rate_hz == rate:
        return pattern
    try:
        return replace(pattern, clip=resample(pattern.clip, rate))
    except ValueError as exc:  # resampling can miss every nonzero sample of a sparse pattern
        raise DetectionError(f"{exc} at {rate} Hz") from exc


TracedPattern = tuple[SoundPattern, CorrelationTrace, Optional[CorrelationTrace]]


def pattern_traces(s: AudioClip, patterns: Sequence[SoundPattern]) -> Iterator[TracedPattern]:
    """(pattern, trace, averaged) per pattern, the pattern aligned to `s`'s rate.

    `trace` is the normalized cross-correlation against `s`; `averaged`, for
    a continuous pattern, is the rectified trace box-averaged over one
    pattern duration (None for an impulse one). The dictionary is checked
    and aligned at the call; the traces come lazily, grouped by pattern
    length, so each length's window energy is computed once and dropped
    before the next length's is computed.
    """
    if not patterns:
        raise DetectionError("pattern dictionary is empty")
    ids = [p.id for p in patterns]
    if len(set(ids)) != len(ids):
        raise DetectionError("pattern ids must be unique")
    by_length: dict[int, list[SoundPattern]] = {}
    for pattern in (_aligned(p, s.sample_rate_hz) for p in patterns):
        by_length.setdefault(len(pattern.clip), []).append(pattern)
    return _traces_by_length(s, by_length)


def _traces_by_length(s: AudioClip, by_length: dict[int, list[SoundPattern]]) -> Iterator[TracedPattern]:
    for m, group in by_length.items():
        take_energy = window_energy(s, m)
        for pattern in group:
            # As returned: a local here would keep the traces alive past the yield.
            yield _traced(s, pattern, take_energy)
        del take_energy  # before the next length's is computed


def _traced(s: AudioClip, pattern: SoundPattern, take_energy: np.ndarray) -> TracedPattern:
    trace = normalized_cross_correlate(s, pattern.clip, take_energy)
    if pattern.kind is PatternKind.IMPULSE:
        return pattern, trace, None
    return pattern, trace, moving_average(trace, pattern.duration_s, rectify=True)


def detect_from_traces(
    s: AudioClip,
    traced: Iterable[TracedPattern],
    cfg: Optional[DetectorConfig] = None,
    track_id: str = "main",
    source_audio: Optional[str] = None,
) -> Timeline:
    """Decide the events of the recording `s` from its `pattern_traces`.

    Events do not depend on the order the patterns come in: suppression
    and `Track` sort them.
    """
    cfg = cfg or DetectorConfig()
    impulses: dict[str, SoundPattern] = {}
    candidates: list[Candidate] = []
    events = []
    for pattern, trace, averaged in traced:
        if averaged is None:
            impulses[pattern.id] = pattern
            candidates.extend(
                Candidate(pattern.id, lag / trace.sample_rate_hz, value)
                for lag, value in find_local_maxima(trace, cfg.impulse_threshold)
            )
        else:
            intervals = _continuous_intervals(averaged, pattern, cfg, s.duration_s)
            events.extend(_event(s, pattern, b, e, peak) for b, e, peak in intervals)
        del trace, averaged  # before the next pattern's are computed
    for cand in suppress(candidates, impulses) if cfg.suppression else candidates:
        pattern = impulses[cand.pattern_id]
        onset = cand.lag_time_s
        events.append(_event(s, pattern, onset, onset + pattern.duration_s, cand.correlation_value))

    track = Track(track_id=track_id, events=tuple(events), source_audio=source_audio)
    return Timeline(tracks=(track,), duration_s=s.duration_s)


def detect(
    s: AudioClip,
    patterns: Sequence[SoundPattern],
    cfg: Optional[DetectorConfig] = None,
    track_id: str = "main",
    source_audio: Optional[str] = None,
) -> Timeline:
    """Run the full pipeline over one recording; returns a one-track timeline.

    Patterns recorded at a different rate are resampled to the sequence's
    rate first so all lags share one time base. Event times are onsets:
    the instant the instance starts inside the recording.
    """
    return detect_from_traces(s, pattern_traces(s, patterns), cfg, track_id, source_audio)
