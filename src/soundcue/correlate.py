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

Patterns of one length also share the block layout, so the engine
takes a group of them: each batch of blocks is forward-transformed
once, and every pattern of the group then multiplies, inverse-transforms
and normalizes its own copy. `normalized_cross_correlate` and
`raw_cross_correlate` are a group of one that keeps its output.
`impulse_peaks` picks peaks: each worker picks the local maxima of its
batch's lags as soon as they are normalized, and the calling thread
stitches the runs above the threshold that cross batch edges. Whether
the output is kept is a separate choice. Kept, each batch is normalized
into its rows of the traces and peak-picked from there, the traces
`soundcue detect --report` writes; not kept, each batch is normalized
into its dead product spectrum, so the group holds the shared energy
and the batches in flight, never a trace. `find_local_maxima` is the
same row and stitch code over one row, so the peak definition exists
once.

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
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _check_energy(s: AudioClip, take_energy: np.ndarray) -> None:
    if take_energy.shape != (len(s),):
        raise ValueError(f"take_energy must have shape ({len(s)},), got {take_energy.shape}")


def _pow2_at_least(x: int) -> int:
    return 1 << (x - 1).bit_length()


def _fft_length(n: int, m: int) -> int:
    """Overlap-save block length for an n-sample sequence and an m-sample pattern."""
    return min(_pow2_at_least(8 * m), _pow2_at_least(n + m - 1))


def _sliding_dot(
    s: np.ndarray,
    p: np.ndarray,
    take_energy: Optional[np.ndarray] = None,
    pattern_energy=1.0,
    peaks_above: Optional[float] = None,
    keep: bool = True,
):
    """sum_u s[tau+u] * p[u] for tau = 0..len(s)-1, s zero-padded at the tail.

    `p` is one pattern, shape (m,), or a group of patterns of one length,
    shape (g, m); the output then has shape (g, len(s)). The group shares
    its block layout, so each block's forward FFT is taken once for all
    of them.

    Overlap-save: block b is s[b*step : b*step + nfft] (zeros past the
    end), and its circular correlation with a pattern is exact for the
    first step = nfft - m + 1 lags, which become out[b*step : (b+1)*step].

    Given `take_energy` (see `window_energy`), each lag is divided by
    sqrt(take_energy * pattern_energy) and clipped to [-1, 1] instead:
    the normalized cross-correlation, finished batch by batch.
    `pattern_energy` is one value per pattern (or one for all).

    With `peaks_above` (normalized only), each batch's row of lags is
    peak-picked as soon as it is normalized, and the call returns the
    output (None unless `keep`) and, per pattern, the (lags, values)
    arrays `local_maxima` gives on the whole trace. Without `keep`, no
    output exists: each row is normalized into the product spectrum its
    inverse FFT has just read, which is dead by then.

    Batches of blocks run on up to _WORKERS threads, the calling one
    among them (numpy's FFTs release the GIL); each worker writes only its
    own rows, so the result does not depend on the thread count. The
    calling thread allocates every buffer: memory a helper thread
    allocates would stay in that thread's malloc arena after the call.
    """
    group = np.atleast_2d(p)
    n, (g, m) = s.size, group.shape
    nfft = _fft_length(n, m)
    step = nfft - m + 1
    n_blocks = -(-n // step)
    batch = max(1, _BATCH_SAMPLES // (nfft * _WORKERS))  # blocks per batch; all workers share the budget
    energies = np.broadcast_to(pattern_energy, (g,))

    def segment(b0: int) -> np.ndarray:
        """The samples batch b0 reads; a copy padded with zeros where it runs past the take."""
        length = (min(b0 + batch, n_blocks) - b0 - 1) * step + nfft
        seg = s[b0 * step : b0 * step + length]
        return seg if seg.size == length else np.concatenate((seg, np.zeros(length - seg.size)))

    segments = [segment(b0) for b0 in range(0, n_blocks, batch)]
    workers = min(_WORKERS, len(segments))
    pattern_specs = [np.conj(np.fft.rfft(row, nfft)) for row in group]
    most = min(batch, n_blocks)  # blocks in one worker's largest batch

    def buffers(shape, dtype=float) -> list:
        return [np.empty(shape, dtype=dtype) for _ in range(workers)]

    specs = buffers((most, nfft // 2 + 1), complex)
    # The last pattern of a group multiplies in place: a group of one needs no product buffer.
    products = buffers((most, nfft // 2 + 1), complex) if g > 1 else None
    blocks_out = buffers((most, nfft))
    out = np.empty((g, n_blocks * step)) if keep else None
    peaks = [[None] * len(segments) for _ in range(g)]  # each batch's _RowPeaks, per pattern

    def run(worker: int) -> None:
        spec, full = specs[worker], blocks_out[worker]
        for i in range(worker, len(segments), workers):
            blocks = np.lib.stride_tricks.sliding_window_view(segments[i], nfft)[::step]
            k, lo = blocks.shape[0], i * batch * step
            np.fft.rfft(blocks, axis=1, out=spec[:k])
            for j in range(g):
                product = spec[:k] if j == g - 1 else products[worker][:k]
                np.multiply(spec[:k], pattern_specs[j], out=product)
                np.fft.irfft(product, nfft, axis=1, out=full[:k])
                if keep:
                    dest = out[j, lo : lo + k * step].reshape(k, step)
                else:  # k * step <= k * (nfft + 2) floats
                    dest = product.view(np.float64).reshape(-1)[: k * step].reshape(k, step)
                if take_energy is None:
                    dest[...] = full[:k, :step]
                    continue
                flat = dest.reshape(-1)  # dest's memory
                denom = flat[: n - lo]  # the lags inside the take
                np.multiply(take_energy[lo : lo + denom.size], energies[j], out=denom)
                np.sqrt(denom, out=denom)
                flat[denom.size :] = 1.0  # lags past the take are cut off below; keep their division defined
                np.divide(full[:k, :step], dest, out=dest)
                np.clip(dest, -1.0, 1.0, out=dest)
                if peaks_above is not None:
                    peaks[j][i] = _row_peaks(flat[: n - lo], peaks_above, lo)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(run, worker) for worker in range(1, workers)]
            run(0)
            for helper in helpers:
                helper.result()
    if keep:
        out = out[0, :n] if p.ndim == 1 else out[:, :n]
    if peaks_above is None:
        return out
    return out, [_stitch(rows) for rows in peaks]


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
    _check_energy(s, take_energy)
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


class _RowPeaks(NamedTuple):
    """What one row of a trace, lags lo .. lo + len - 1, tells `_stitch` about its local maxima.

    `lags` and `values` are the strict maxima above the threshold whose
    plateau and both neighbours lie inside the row. A run above the
    threshold that touches an end of the row is left to the stitcher:
    `head_end` is the last lag of the run that starts the row and `after`
    the value that follows it (None when the run fills the row);
    `tail_start` is the first lag of the run that ends the row and
    `before` the value preceding it. Each is None when there is no such run.
    """

    lags: np.ndarray
    values: np.ndarray
    lo: int
    first: float
    last: float
    head_end: Optional[int]
    after: Optional[float]
    tail_start: Optional[int]
    before: Optional[float]


def _row_peaks(v: np.ndarray, threshold: float, lo: int) -> _RowPeaks:
    """The local maxima of the row `v` of a trace, which starts at lag `lo`.

    Only samples above the threshold are visited: a run of equal values
    above it lies wholly among them, and its two neighbours decide it. A
    run at either end of the row stands in for its own missing neighbour
    there, so the strict comparison leaves it to the stitcher.
    """
    last = v.size - 1
    above = np.flatnonzero(v > threshold)
    starts = above[(above == 0) | (v[above - 1] != v[above])]
    ends = above[(above == last) | (v[np.minimum(above + 1, last)] != v[above])]  # inclusive
    values = v[starts]
    keep = (v[np.maximum(starts - 1, 0)] < values) & (v[np.minimum(ends + 1, last)] < values)
    head_end = after = tail_start = before = None
    if starts.size and starts[0] == 0:
        head_end = lo + int(ends[0])
        after = float(v[ends[0] + 1]) if ends[0] < last else None
    if ends.size and ends[-1] == last:
        tail_start = lo + int(starts[-1])
        before = float(v[starts[-1] - 1]) if starts[-1] > 0 else None
    centers = (starts[keep] + ends[keep]) // 2 + lo
    return _RowPeaks(centers, values[keep], lo, float(v[0]), float(v[last]), head_end, after, tail_start, before)


def _stitch(rows: Iterable[_RowPeaks]) -> tuple[np.ndarray, np.ndarray]:
    """(lags, values) of the local maxima of the trace cut into `rows`, given in lag order.

    A run above the threshold that crosses row edges is carried as pending
    until a row ends it; a run that touches either end of the whole trace
    is never a maximum, as in `find_local_maxima`.
    """
    lags: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def close(start: int, end: int, value: float, before: Optional[float], after: float) -> None:
        if before is not None and before < value and after < value:
            lags.append(np.array([(start + end) // 2]))
            values.append(np.array([value]))

    pending = None  # (start, value, value before it) of the run that reaches the previous row's end
    prev_last = None  # the previous row's last value; None before the trace's first lag
    for row in rows:
        if pending is not None and pending[1] != row.first:
            close(pending[0], row.lo - 1, pending[1], pending[2], row.first)  # it ended at the previous row's end
            pending = None
        if row.head_end is not None:
            if pending is None:
                pending = (row.lo, row.first, prev_last)
            if row.after is None:  # the run fills this row
                prev_last = row.last
                continue
            close(pending[0], row.head_end, pending[1], pending[2], row.after)
            pending = None
        lags.append(row.lags)
        values.append(row.values)
        if row.tail_start is not None:
            pending = (row.tail_start, row.last, row.before)
        prev_last = row.last
    if not lags:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(lags).astype(np.int64, copy=False), np.concatenate(values)


def local_maxima(trace: CorrelationTrace, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(lags, values) of `find_local_maxima`, as an int64 and a float64 array."""
    v = trace.values
    return _stitch([_row_peaks(v, threshold, 0)] if v.size else [])


def find_local_maxima(trace: CorrelationTrace, threshold: float) -> list[tuple[int, float]]:
    """Lags of strict local maxima above `threshold`, in increasing order.

    A plateau counts once and reports its center sample (floor of the
    midpoint for even plateaus). Runs touching either end of the trace are
    never maxima, so a monotone trace yields nothing.
    """
    lags, values = local_maxima(trace, threshold)
    return list(zip(lags.tolist(), values.tolist()))


def impulse_peaks(
    s: AudioClip,
    clips: Sequence[AudioClip],
    take_energy: np.ndarray,
    threshold: float,
    traces: Optional[list[CorrelationTrace]] = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per clip, the (lags, values) of `local_maxima(normalized_cross_correlate(s, clip), threshold)`.

    The clips must share one length, whose `window_energy` is `take_energy`.
    They share each block's forward FFT, and each batch of lags is
    peak-picked as soon as it is normalized, so no take-length trace
    exists, unless `traces` is a list: then each clip's trace, the lags
    its peaks were picked from, is appended to it, the same bit for bit as
    `normalized_cross_correlate(s, clip, take_energy)`.
    """
    if not clips:
        return []
    for clip in clips:
        _check_pair(s, clip)
    m = len(clips[0])
    if any(len(clip) != m for clip in clips):
        raise ValueError(f"clips must share one length, got {sorted({len(clip) for clip in clips})}")
    energies = [float(np.dot(clip.samples, clip.samples)) for clip in clips]
    if min(energies) <= 0.0:
        raise DetectionError("pattern has zero energy")
    _check_energy(s, take_energy)
    group = np.stack([clip.samples for clip in clips])
    values, peaks = _sliding_dot(s.samples, group, take_energy, energies, threshold, keep=traces is not None)
    if traces is not None:
        traces.extend(_fresh_trace(row, s.sample_rate_hz) for row in values)
    return peaks
