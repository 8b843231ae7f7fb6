"""Correlation and peak-picking primitives.

The sliding dot products behind both correlation flavours run blockwise
through real FFTs by overlap-save (Stockham 1966): the sequence is cut
into overlapping blocks of one FFT length L, each block is correlated
with the pattern in the frequency domain, and the L - m + 1 lags of each
block that do not wrap around are kept. L is the smaller of the next
power of two >= 8*m and the next power of two >= n + m - 1, so work per
sample depends on the pattern, not on the take, and the blocks in flight
take a few megabytes whatever n is; a take shorter than about eight
patterns is one zero-padded block. The test suite keeps an O(n*m)
direct evaluation of the same sums as the reference oracle.

Window sums (the sequence energy under each lag's window, the boxcar
behind the moving average) come from one prefix sum: interior windows
are differences of two slices of it, and only the clamped windows at
the edges index it lag by lag.

Lag convention: values[tau] is the score for the pattern *starting* at
sample tau of the sequence, with the sequence treated as zero beyond its
end. Raw correlation approximates the integral of s(u+tau)*p(u) du, so
sums are scaled by the sample period; the normalized flavour is the
windowed cosine similarity, which is what thresholds apply to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip
from .errors import DetectionError

EPS_ENERGY = 1e-12
_BATCH_SAMPLES = 1 << 19  # samples of blocks per FFT batch: 4 MB of float64


@dataclass(frozen=True)
class CorrelationTrace:
    """Correlation values indexed by lag sample, one per sequence sample."""

    values: np.ndarray
    sample_rate_hz: int
    normalized: bool

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"trace values must be one-dimensional, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.values.size

    def lag_times_s(self) -> np.ndarray:
        return np.arange(self.values.size) / self.sample_rate_hz


def _check_pair(s: AudioClip, p: AudioClip) -> None:
    if s.sample_rate_hz != p.sample_rate_hz:
        raise DetectionError(
            f"sample rates differ: sequence {s.sample_rate_hz} Hz vs pattern {p.sample_rate_hz} Hz"
        )
    if len(p) == 0:
        raise DetectionError("pattern is empty")
    if len(p) > len(s):
        raise DetectionError(f"pattern ({len(p)} samples) is longer than the sequence ({len(s)})")


def _pow2_at_least(x: int) -> int:
    return 1 << (x - 1).bit_length()


def _fft_length(n: int, m: int) -> int:
    """Overlap-save block length for an n-sample sequence and an m-sample pattern."""
    return min(_pow2_at_least(8 * m), _pow2_at_least(n + m - 1))


def _sliding_dot(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_u s[tau+u] * p[u] for tau = 0..len(s)-1, s zero-padded at the tail.

    Overlap-save: block b is s[b*step : b*step + nfft] (zeros past the
    end), and its circular correlation with p is exact for the first
    step = nfft - m + 1 lags, which become out[b*step : (b+1)*step].
    """
    n, m = s.size, p.size
    nfft = _fft_length(n, m)
    step = nfft - m + 1
    n_blocks = -(-n // step)
    pattern_spec = np.conj(np.fft.rfft(p, nfft))
    out = np.empty(n_blocks * step)
    rows = out.reshape(n_blocks, step)
    batch = max(1, _BATCH_SAMPLES // nfft)
    for b0 in range(0, n_blocks, batch):
        b1 = min(b0 + batch, n_blocks)
        length = (b1 - b0 - 1) * step + nfft
        segment = s[b0 * step : b0 * step + length]
        if segment.size < length:  # last batch: pad the take's tail with zeros
            segment = np.concatenate((segment, np.zeros(length - segment.size)))
        spec = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(segment, nfft)[::step], axis=1)
        spec *= pattern_spec
        rows[b0:b1] = np.fft.irfft(spec, nfft, axis=1)[:, :step]
    return out[:n]


def _window_sums(x: np.ndarray, w: int, lead: int, mean: bool = False) -> np.ndarray:
    """sum(x[max(i - lead, 0) : min(i - lead + w, n)]) for i = 0..n-1, from one prefix sum.

    Needs 0 <= lead < w. With `mean`, each sum is divided by its window's clamped length.
    Interior windows are slice differences of the prefix sum; only the
    at most w - 1 edge lags whose window is clamped index it one by one.
    """
    n = x.size
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(x, out=csum[1:])
    lo = min(lead, n)  # first lag whose window starts inside x
    hi = max(n - w + lead + 1, lo)  # first lag whose window runs past the end
    out = np.empty(n)
    np.subtract(csum[lo - lead + w : hi - lead + w], csum[lo - lead : hi - lead], out=out[lo:hi])
    edges = np.r_[0:lo, hi:n]
    starts = np.maximum(edges - lead, 0)
    ends = np.minimum(edges - lead + w, n)
    out[edges] = csum[ends] - csum[starts]
    if mean:
        out[lo:hi] /= w
        out[edges] /= ends - starts
    return out


def raw_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Unnormalized cross-correlation, the discretized overlap integral."""
    _check_pair(s, p)
    values = _sliding_dot(s.samples, p.samples) / s.sample_rate_hz
    return CorrelationTrace(values, s.sample_rate_hz, normalized=False)


def normalized_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Windowed normalized cross-correlation, bounded in [-1, 1].

    Each lag divides the sliding dot product by the geometric mean of the
    pattern energy and the sequence energy inside the aligned window, so
    the score is invariant to how loud the instance was voiced.
    """
    _check_pair(s, p)
    pattern_energy = float(np.dot(p.samples, p.samples))
    if pattern_energy <= 0.0:
        raise DetectionError("pattern has zero energy")
    # Energy first, so its temporaries are gone before the numerator exists,
    # and dropped before the trace copies the values: about three
    # take-length arrays at the peak.
    denom = _window_sums(s.samples * s.samples, len(p), 0)
    np.maximum(denom, EPS_ENERGY, out=denom)
    denom *= pattern_energy
    np.sqrt(denom, out=denom)
    values = _sliding_dot(s.samples, p.samples)
    values /= denom
    del denom
    np.clip(values, -1.0, 1.0, out=values)
    return CorrelationTrace(values, s.sample_rate_hz, normalized=True)


def energy(x: AudioClip) -> float:
    """Discretized integral of the squared signal (dimensionless * seconds)."""
    return float(np.dot(x.samples, x.samples) / x.sample_rate_hz)


def moving_average(trace: CorrelationTrace, window_s: float) -> CorrelationTrace:
    """Centered boxcar mean; partial windows at the edges average what exists."""
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    n = len(trace)
    w = int(round(window_s * trace.sample_rate_hz))
    if w <= 1 or n == 0:
        return trace
    out = _window_sums(trace.values, w, (w - 1) // 2, mean=True)
    return CorrelationTrace(out, trace.sample_rate_hz, trace.normalized)


def find_local_maxima(trace: CorrelationTrace, threshold: float) -> list[tuple[int, float]]:
    """Lags of strict local maxima above `threshold`, in increasing order.

    A plateau counts once and reports its center sample (floor of the
    midpoint for even plateaus). Runs touching either end of the trace are
    never maxima, so a monotone trace yields nothing.

    Only samples above the threshold are visited: a run of equal values
    above it lies wholly among them, and its two neighbours decide it.
    """
    v = trace.values
    last = v.size - 1
    above = np.flatnonzero(v > threshold)
    starts = above[(above == 0) | (v[above - 1] != v[above])]
    ends = above[(above == last) | (v[np.minimum(above + 1, last)] != v[above])]  # inclusive
    values = v[starts]
    # A run at either end of the trace stands in for its own missing
    # neighbour there, so the strict comparison drops it.
    keep = (v[np.maximum(starts - 1, 0)] < values) & (v[np.minimum(ends + 1, last)] < values)
    centers = (starts[keep] + ends[keep]) // 2
    return [(int(lag), float(val)) for lag, val in zip(centers, values[keep])]
