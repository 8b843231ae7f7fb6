"""Correlation and peak-picking primitives.

The sliding dot products behind both correlation flavours run blockwise
through real FFTs by overlap-save (Stockham 1966): the sequence is cut
into overlapping blocks of one FFT length L, each block is correlated
with the pattern in the frequency domain, and the L - m + 1 lags of each
block that do not wrap around are kept. L is the smaller of the next
power of two >= 8*m and the next power of two >= n + m - 1, so work per
sample depends on the pattern, not on the take, and the blocks in flight
take a few megabytes whatever n is; a take shorter than about eight
patterns is one zero-padded block. Batches of blocks run on one thread
per usable CPU, each thread writing its own rows, so the result is the
same bit for bit on any number of them. The test suite keeps an O(n*m)
direct evaluation of the same sums as the reference oracle.

Window sums (the sequence energy under each lag's window, the boxcar
behind the moving average) come from one prefix sum: interior windows
are differences of two slices of it, and only the clamped windows at
the edges index it lag by lag. The sequence energy depends on the
pattern only through its length, so `window_energy` computes it once
for all patterns of one length; each batch of lags is normalized by it
as soon as its sums are done. One normalized correlation then holds the
shared energy, its own output and a few megabytes of blocks.

Lag convention: values[tau] is the score for the pattern *starting* at
sample tau of the sequence, with the sequence treated as zero beyond its
end. Raw correlation approximates the integral of s(u+tau)*p(u) du, so
sums are scaled by the sample period; the normalized flavour is the
windowed cosine similarity, which is what thresholds apply to.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .audio import AudioClip
from .errors import DetectionError

EPS_ENERGY = 1e-12
_BATCH_SAMPLES = 1 << 19  # samples of blocks in flight across all workers: 4 MB of float64


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


_WORKERS = _usable_cpus()  # threads one correlation runs its FFT batches on


@dataclass(frozen=True)
class CorrelationTrace:
    """Correlation values indexed by lag sample, one per sequence sample.

    The values are held read-only: a writable array is copied, and a
    read-only one, such as a trace this module has just computed, is kept.
    """

    values: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"trace values must be one-dimensional, got shape {arr.shape}")
        if arr.flags.writeable:  # a read-only array is frozen already
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.values.size


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


def _sliding_dot(
    s: np.ndarray, p: np.ndarray, take_energy: Optional[np.ndarray] = None, pattern_energy: float = 1.0
) -> np.ndarray:
    """sum_u s[tau+u] * p[u] for tau = 0..len(s)-1, s zero-padded at the tail.

    Overlap-save: block b is s[b*step : b*step + nfft] (zeros past the
    end), and its circular correlation with p is exact for the first
    step = nfft - m + 1 lags, which become out[b*step : (b+1)*step].

    Given `take_energy` (see `window_energy`), each lag is divided by
    sqrt(take_energy * pattern_energy) and clipped to [-1, 1] instead:
    the normalized cross-correlation, finished batch by batch.

    Batches of blocks run on up to _WORKERS threads, the calling one
    among them (numpy's FFTs release the GIL); each worker writes only its
    own rows, so the result does not depend on the thread count. The
    calling thread allocates every buffer: memory a helper thread
    allocates would stay in that thread's malloc arena after the call.
    """
    n, m = s.size, p.size
    nfft = _fft_length(n, m)
    step = nfft - m + 1
    n_blocks = -(-n // step)
    batch = max(1, _BATCH_SAMPLES // (nfft * _WORKERS))  # blocks per batch; all workers share the budget

    def segment(b0: int) -> np.ndarray:
        """The samples batch b0 reads; a copy padded with zeros where it runs past the take."""
        length = (min(b0 + batch, n_blocks) - b0 - 1) * step + nfft
        seg = s[b0 * step : b0 * step + length]
        return seg if seg.size == length else np.concatenate((seg, np.zeros(length - seg.size)))

    segments = [segment(b0) for b0 in range(0, n_blocks, batch)]
    workers = min(_WORKERS, len(segments))
    pattern_spec = np.conj(np.fft.rfft(p, nfft))
    out = np.empty(n_blocks * step)
    rows = out.reshape(n_blocks, step)
    most = min(batch, n_blocks)  # blocks in one worker's largest batch
    specs = [np.empty((most, nfft // 2 + 1), dtype=complex) for _ in range(workers)]
    blocks_out = [np.empty((most, nfft)) for _ in range(workers)]

    def run(worker: int) -> None:
        spec, full = specs[worker], blocks_out[worker]
        for i in range(worker, len(segments), workers):
            blocks = np.lib.stride_tricks.sliding_window_view(segments[i], nfft)[::step]
            k, b0 = blocks.shape[0], i * batch
            np.fft.rfft(blocks, axis=1, out=spec[:k])
            spec[:k] *= pattern_spec
            np.fft.irfft(spec[:k], nfft, axis=1, out=full[:k])
            dest = rows[b0 : b0 + k]
            if take_energy is None:
                dest[...] = full[:k, :step]
                continue
            lo = b0 * step
            flat = out[lo : lo + k * step]  # dest's memory
            denom = flat[: n - lo]  # the lags inside the take
            np.multiply(take_energy[lo : lo + denom.size], pattern_energy, out=denom)
            np.sqrt(denom, out=denom)
            flat[denom.size :] = 1.0  # lags past the take are cut off below; keep their division defined
            np.divide(full[:k, :step], dest, out=dest)
            np.clip(dest, -1.0, 1.0, out=dest)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(run, worker) for worker in range(1, workers)]
            run(0)
            for helper in helpers:
                helper.result()
    return out[:n]


def _window_sums(x: np.ndarray, w: int, lead: int, mean: bool = False, of=None) -> np.ndarray:
    """sum(of(x)[max(i - lead, 0) : min(i - lead + w, n)]) for i = 0..n-1, from one prefix sum.

    Needs 0 <= lead < w. `of` is an elementwise ufunc (np.square,
    np.absolute) applied straight into the prefix-sum buffer, so no
    transformed copy of x is made; None sums x itself. With `mean`, each
    sum is divided by its window's clamped length.
    Interior windows are slice differences of the prefix sum; only the
    at most w - 1 edge lags whose window is clamped index it one by one.
    """
    n = x.size
    csum = np.empty(n + 1)
    csum[0] = 0.0
    if of is None:
        np.cumsum(x, out=csum[1:])
    else:
        of(x, out=csum[1:])
        np.cumsum(csum[1:], out=csum[1:])
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


def _fresh_trace(values: np.ndarray, sample_rate_hz: int) -> CorrelationTrace:
    """A trace over `values`, an array just computed here that nothing else refers to: frozen, not copied."""
    values.setflags(write=False)
    return CorrelationTrace(values, sample_rate_hz)


def raw_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Unnormalized cross-correlation, the discretized overlap integral."""
    _check_pair(s, p)
    values = _sliding_dot(s.samples, p.samples)
    values /= s.sample_rate_hz
    return _fresh_trace(values, s.sample_rate_hz)


def window_energy(s: AudioClip, m: int) -> np.ndarray:
    """max(sum of s^2 under each lag's m-sample window, EPS_ENERGY), read-only.

    The take's half of the normalized correlation's denominator. It depends
    on the pattern only through its length, so patterns of one length can
    share it (Lewis 1995, "Fast Normalized Cross-Correlation").
    """
    out = _window_sums(s.samples, m, 0, of=np.square)
    np.maximum(out, EPS_ENERGY, out=out)
    out.setflags(write=False)
    return out


def normalized_cross_correlate(
    s: AudioClip, p: AudioClip, take_energy: Optional[np.ndarray] = None
) -> CorrelationTrace:
    """Windowed normalized cross-correlation, bounded in [-1, 1].

    Each lag divides the sliding dot product by the geometric mean of the
    pattern energy and the sequence energy inside the aligned window, so
    the score is invariant to how loud the instance was voiced.

    `take_energy` is `window_energy(s, len(p))`; computed here when not
    given. Passing it lets patterns of one length share it.
    """
    _check_pair(s, p)
    pattern_energy = float(np.dot(p.samples, p.samples))
    if pattern_energy <= 0.0:
        raise DetectionError("pattern has zero energy")
    if take_energy is None:
        # Before the numerator, so the energy's prefix sum is gone by then.
        take_energy = window_energy(s, len(p))
    elif take_energy.shape != (len(s),):
        raise ValueError(f"take_energy must have shape ({len(s)},), got {take_energy.shape}")
    values = _sliding_dot(s.samples, p.samples, take_energy, pattern_energy)
    return _fresh_trace(values, s.sample_rate_hz)


def energy(x: AudioClip) -> float:
    """Discretized integral of the squared signal (dimensionless * seconds)."""
    return float(np.dot(x.samples, x.samples) / x.sample_rate_hz)


def moving_average(trace: CorrelationTrace, window_s: float, rectify: bool = False) -> CorrelationTrace:
    """Centered boxcar mean; partial windows at the edges average what exists.

    With `rectify`, the mean is of |values|, rectified straight into the
    prefix sum, so no rectified copy of the trace is made.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    n = len(trace)
    w = int(round(window_s * trace.sample_rate_hz))
    if w <= 1 or n == 0:
        if not rectify:
            return trace
        out = np.abs(trace.values)
    else:
        out = _window_sums(trace.values, w, (w - 1) // 2, mean=True, of=np.absolute if rectify else None)
    return _fresh_trace(out, trace.sample_rate_hz)


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
