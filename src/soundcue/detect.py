"""Turn a recording plus a pattern dictionary into a timeline of events.

One pass correlates and decides. `detect` makes one engine call per
take (`scan_group`) for the whole dictionary, whatever its patterns'
lengths: they share one block layout, each block's forward FFT and each
block's prefix sum of squares, which gives each length its window
energies; the impulse patterns' peaks are picked batch by batch from
the lags above the threshold, and the continuous patterns' box averages
and the runs above their threshold are found block by block in the
worker threads, from a prefix sum of each block's rectified lags. Both
kinds skip the blocks whose spectral bound cannot reach their threshold
(tonal patterns only; see `correlate`). Each
impulse pattern's peaks become `Candidates` arrays that suppression and
strength measurement decide; each continuous pattern's runs become
intervals. `detect` holds the take, the batches in flight and what it
has found, and no other take-length array. Given a `record` callback,
the same pass also hands it every trace it reads, batch by batch: what
`soundcue detect --report` writes as it goes. Nothing is then
screened, and the peaks and runs are found the same way as without it.

Impulse patterns: local maxima of the normalized cross-correlation above
the impulse threshold become candidates; candidates of all patterns then
go through greedy non-maximum suppression (Neubeck & Van Gool 2006) so
that near-simultaneous, sound-alike patterns cannot both fire.

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
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .audio import AudioClip, resample
from .correlate import (  # noqa: F401  (bench/tracing.py looks the correlation names up in this module)
    Runs, energy, find_local_maxima, moving_average, normalized_cross_correlate, scan_group, sum_of_squares,
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
        if len(self.clip) == 0 or sum_of_squares(self.clip.samples) <= 0.0:
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


@dataclass(frozen=True, eq=False)
class Candidates:
    """Impulse candidates as three read-only arrays of one length.

    Candidate i is of pattern `pattern_ids[pattern_index[i]]`, at
    `lag_time_s[i]` with `correlation_value[i]`. Its length is the number
    of candidates; iterating it yields `Candidate`s, which are built only
    then.
    """

    pattern_ids: tuple
    pattern_index: np.ndarray
    lag_time_s: np.ndarray
    correlation_value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pattern_ids", tuple(self.pattern_ids))
        for name, dtype in (("pattern_index", np.int64), ("lag_time_s", np.float64), ("correlation_value", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)  # a copy nobody else can write to
            if arr.shape != (len(self),):
                raise ValueError(f"{name} must have shape ({len(self)},), got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self) and not 0 <= self.pattern_index.min() <= self.pattern_index.max() < len(self.pattern_ids):
            raise ValueError(f"pattern_index must index pattern_ids ({len(self.pattern_ids)} ids)")

    def __len__(self) -> int:
        return np.size(self.pattern_index)

    def __iter__(self) -> Iterator[Candidate]:
        ids = self.pattern_ids
        for i, t, v in zip(self.pattern_index.tolist(), self.lag_time_s.tolist(), self.correlation_value.tolist()):
            yield Candidate(ids[i], t, v)

    def take(self, index: np.ndarray) -> "Candidates":
        """The candidates at `index`, in its order."""
        return Candidates(self.pattern_ids, self.pattern_index[index], self.lag_time_s[index], self.correlation_value[index])


def suppress(candidates: Candidates, patterns: Mapping[str, SoundPattern]) -> Candidates:
    """Greedy cross-pattern non-maximum suppression.

    Candidates are visited by descending correlation value (ties: earlier
    time, then pattern id). One is kept only if no already-kept candidate
    lies within half the kept candidate's own pattern duration of it.
    Returns the survivors sorted by time, then pattern id.

    The same decisions, made in another order: the best live candidate is
    kept, and every live candidate within its half duration is marked dead.
    A candidate that becomes the best live one can only have been rejected
    by a better kept one, which would already have marked it dead. Only
    candidates within the largest half duration, `reach`, can cover each
    other, so a candidate with no other within `reach` is kept outright,
    and the loop runs once per kept candidate of a cluster. Each window of
    `reach` is found by bisection over the time-sorted candidates, widened
    by a few ulps so that rounding at its edges cannot leave out a
    candidate the exact test would count.
    """
    n = len(candidates)
    if n == 0:
        return candidates
    ids, pattern = candidates.pattern_ids, candidates.pattern_index
    t, value = candidates.lag_time_s, candidates.correlation_value
    used = np.unique(pattern).tolist()
    half_of = np.zeros(len(ids))
    half_of[used] = [patterns[ids[i]].duration_s / 2 for i in used]
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    reach = float(half_of[used].max())
    reach += 4 * math.ulp(reach + float(np.abs(t).max()))

    order = np.lexsort((id_rank[pattern], t, -value))  # priority: value down, then time, then pattern id
    t_ranked, half = t[order], half_of[pattern[order]]  # by rank, from here on
    by_time = np.argsort(t_ranked, kind="stable")  # the ranks in time order
    times = t_ranked[by_time]
    window_lo = np.searchsorted(times, times - reach, "left")
    window_hi = np.searchsorted(times, times + reach, "right")
    position = np.empty(n, dtype=np.int64)  # of each rank in time order
    position[by_time] = np.arange(n)
    alone = window_hi - window_lo == 1  # by time: nothing else within reach
    live = np.empty(n, dtype=bool)
    live[by_time] = ~alone
    kept = by_time[alone].tolist()
    r = 0
    while r < n:
        r += int(np.argmax(live[r:]))
        if not live[r]:
            break
        kept.append(r)
        lo, hi = window_lo[position[r]], window_hi[position[r]]
        covered = ~(np.abs(times[lo:hi] - t_ranked[r]) > half[r])
        live[by_time[lo:hi][covered]] = False
        r += 1
    survivors = order[kept]
    return candidates.take(survivors[np.lexsort((id_rank[pattern[survivors]], t[survivors]))])


def _continuous_intervals(
    runs: Runs, pattern: SoundPattern, cfg: DetectorConfig, sample_rate_hz: int, duration_s: float
) -> list[tuple[float, float, float]]:
    """(t_begin, t_end, peak averaged magnitude) per detected interval.

    `runs` are the runs of the averaged magnitude above the continuous
    threshold. The correlation at lag tau scores the window [tau, tau+dt],
    so lags stay high only while a whole pattern still fits inside the
    sound: onsets of a segment [b, e] span [b, e-dt]. The reported
    interval adds the pattern duration back to the run's end so it
    describes when the sound is playing; runs whose supports then touch
    are merged.
    """
    intervals: list[list[float]] = []
    for i0, i1, peak in zip(runs.starts.tolist(), runs.ends.tolist(), runs.peaks.tolist()):
        begin = i0 / sample_rate_hz
        end = min((i1 + 1) / sample_rate_hz + pattern.duration_s, duration_s)
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


def check_dictionary(patterns: Sequence[SoundPattern], n: int, rate: int, track_id: str) -> list[SoundPattern]:
    """The dictionary, checked and aligned to a take of n samples at `rate` Hz; each pattern must fit the take.

    It needs only the take's length and rate, so `soundcue run` checks
    every track's WAV header with it before correlating any track.
    """
    if not patterns:
        raise DetectionError("pattern dictionary is empty")
    if len({p.id for p in patterns}) != len(patterns):
        raise DetectionError("pattern ids must be unique")
    aligned = [_aligned(p, rate) for p in patterns]
    for p in aligned:
        if len(p.clip) > n:
            raise DetectionError(
                f"pattern {p.id!r} ({len(p.clip)} samples) is longer than track {track_id!r} ({n} samples)"
            )
    return aligned


PatternPeaks = tuple[SoundPattern, np.ndarray, np.ndarray]  # an impulse pattern, its peaks' lags and values


def _decide(
    s: AudioClip,
    peaks: list[PatternPeaks],
    events: list[EventInstance],
    cfg: DetectorConfig,
    track_id: str,
    source_audio: Optional[str],
) -> Timeline:
    """The timeline of the continuous `events` plus the impulse events the `peaks` decide.

    Every pattern's peaks become candidates, suppressed across patterns
    unless `cfg` says otherwise; only the survivors are measured. Events
    do not depend on the order the patterns come in: suppression and
    `Track` sort them.
    """
    patterns = {pattern.id: pattern for pattern, _, _ in peaks}
    candidates = Candidates(
        tuple(patterns),
        np.repeat(np.arange(len(peaks)), [lags.size for _, lags, _ in peaks]),
        np.concatenate([lags for _, lags, _ in peaks] or [[]]) / s.sample_rate_hz,
        np.concatenate([values for _, _, values in peaks] or [[]]),
    )
    for cand in suppress(candidates, patterns) if cfg.suppression else candidates:
        pattern = patterns[cand.pattern_id]
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
    record: Optional[Callable[[str, bool, np.ndarray], None]] = None,
) -> Timeline:
    """Run the full pipeline over one recording; returns a one-track timeline.

    Patterns recorded at a different rate are resampled to the sequence's
    rate first so all lags share one time base. Event times are onsets:
    the instant the instance starts inside the recording. The whole
    dictionary, whatever its patterns' lengths, is correlated and decided
    in one `scan_group` call, one pass over the take.

    Given `record`, it is called as `record(pattern_id, averaged, values)`
    with each batch, in lag order, of the normalized cross-correlation a
    pattern's decisions read (`averaged` False) and of a continuous
    pattern's rectified box means over one pattern duration (True). The
    values are valid only during the call.
    """
    cfg = cfg or DetectorConfig()
    aligned = check_dictionary(patterns, len(s), s.sample_rate_hz, track_id)
    impulses = [pattern for pattern in aligned if pattern.kind is PatternKind.IMPULSE]
    continuous = [pattern for pattern in aligned if pattern.kind is PatternKind.CONTINUOUS]
    ids = [pattern.id for pattern in impulses + continuous]  # scan_group's clip order
    recorded = None if record is None else lambda j, averaged, values: record(ids[j], averaged, values)
    found, runs = scan_group(s, [p.clip for p in impulses], [p.clip for p in continuous], cfg.impulse_threshold,
                             cfg.continuous_threshold, recorded)
    peaks: list[PatternPeaks] = [(pattern, lags, values) for pattern, (lags, values) in zip(impulses, found)]
    events: list[EventInstance] = []
    for pattern, pattern_runs in zip(continuous, runs):
        intervals = _continuous_intervals(pattern_runs, pattern, cfg, s.sample_rate_hz, s.duration_s)
        events.extend(_event(s, pattern, b, e, peak) for b, e, peak in intervals)
    return _decide(s, peaks, events, cfg, track_id, source_audio)
