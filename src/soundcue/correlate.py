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
per usable CPU, the calling one among them, each batch in its own slot
of a ring of buffers, so the result is the same bit for bit on any
number of them. The test suite keeps an O(n*m) direct evaluation of the
same sums as the reference oracle.

Window sums (the sequence energy under each lag's window, the boxcar
behind the moving average) come from a running prefix sum, `_WindowSums`:
the sequence arrives chunk by chunk, each chunk's cumsum starts from the
last value before it, so every value is bit for bit that of one cumsum
over the whole sequence. Interior windows are differences of two slices
of it, and only the clamped windows at the edges index it lag by lag.
`window_energy` and `moving_average` are that code over one chunk.

Patterns of one length share the window energy and the block layout, so
the engine takes a group of them: the calling thread carries the
energy's prefix sum from batch to batch and hands each batch its lags'
energies (Lewis 1995, "Fast Normalized Cross-Correlation"); each batch of
blocks is forward-transformed once, and every pattern of the group then
multiplies, inverse-transforms and normalizes its own copy.
`normalized_cross_correlate` and `raw_cross_correlate` are a group of
one that keeps its output. `scan_group` decides as it goes: each worker
picks the local maxima of an impulse pattern's batch of lags as soon as
they are normalized, and the calling thread stitches the runs above the
threshold that cross batch edges; a continuous pattern's lags reach the
calling thread batch by batch in lag order, which rectifies them into
the boxcar's running prefix sum and thresholds each box mean once its
window is complete. Whether the output is kept is a separate choice.
Not kept, no trace exists at take length: the group holds the batches
in flight, about w samples of each boxcar and the runs found, beside the
take. Kept, the traces and box means are the ones
`soundcue detect --report` writes. `find_local_maxima` is the same row
and stitch code over one row, so the peak definition exists once.

Lag convention: values[tau] is the score for the pattern *starting* at
sample tau of the sequence, with the sequence treated as zero beyond its
end. Raw correlation approximates the integral of s(u+tau)*p(u) du, so
sums are scaled by the sample period; the normalized flavour is the
windowed cosine similarity, which is what thresholds apply to.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


class _WindowSums:
    """sum(of(x)[max(i - lead, 0) : min(i - lead + w, n)]) for i = 0..n-1, with x given chunk by chunk.

    Needs 0 <= lead < w. `of` is an elementwise ufunc (np.square,
    np.absolute) applied straight into the prefix-sum buffer, so no
    transformed copy of x is made; None sums x itself. With `mean`, each
    sum is divided by its window's clamped length.

    `push` appends a chunk of x to the prefix sum. Its np.cumsum starts
    from the last value before the chunk, so each value, and so each sum,
    is bit for bit that of one cumsum over the whole of x. `pop` returns
    the sums of the next lags in order, as many as `ready` says are
    complete unless told fewer, and then holds only the prefix sums the
    windows still to come need: at most w values plus what was pushed
    beyond them. Interior windows are slice differences of the prefix
    sum; only the at most w - 1 edge lags whose window is clamped index
    it one by one.
    """

    def __init__(self, n: int, w: int, lead: int = 0, mean: bool = False, of=None):
        if not 0 <= lead < w:
            raise ValueError(f"window sums need 0 <= lead < w, got lead {lead}, w {w}")
        self.n, self.w, self.lead, self.mean, self.of = n, w, lead, mean, of
        self.pushed = 0  # samples of x pushed so far
        self.done = 0  # lags whose sums have been returned
        self.base = 0  # the index into x's prefix sum of csum[0]
        self.csum = np.zeros(1)

    def push(self, x: np.ndarray) -> None:
        held = self.csum
        csum = np.empty(held.size + x.size)
        csum[: held.size] = held
        if self.of is None:
            csum[held.size :] = x
        else:
            self.of(x, out=csum[held.size :])
        # The whole sequence's cumsum starts at x[0] itself, each later chunk at the sum before it.
        run = csum[held.size :] if self.pushed == 0 else csum[held.size - 1 :]
        np.cumsum(run, out=run)
        self.csum = csum
        self.pushed += x.size

    def ready(self) -> int:
        """The number of lags whose windows lie within the samples pushed so far: all of them once x is complete."""
        if self.pushed >= self.n:
            return self.n
        return max(self.pushed - self.w + self.lead + 1, self.done)

    def pop(self, stop: Optional[int] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The sums of lags done .. stop - 1 (by default up to `ready()`), written to the start of `out` if given."""
        n, w, lead, start = self.n, self.w, self.lead, self.done
        stop = self.ready() if stop is None else stop
        sums = np.empty(stop - start) if out is None else out[: stop - start]
        c, base = self.csum, self.base
        lo = min(max(lead, start), stop)  # first lag whose window starts inside x
        hi = min(max(n - w + lead + 1, lo), stop)  # first lag whose window runs past the end
        first = lead + base  # lag i's window starts at csum[i - first]
        np.subtract(c[lo - first + w : hi - first + w], c[lo - first : hi - first], out=sums[lo - start : hi - start])
        edges = np.r_[start:lo, hi:stop]
        starts = np.maximum(edges - lead, 0)
        ends = np.minimum(edges - lead + w, n)
        sums[edges - start] = c[ends - base] - c[starts - base]
        if self.mean:
            sums[lo - start : hi - start] /= w
            sums[edges - start] /= ends - starts
        self.done = stop
        first = max(stop - lead, 0)  # keep only the prefix sums the windows still to come start at
        self.csum, self.base = c[first - base :].copy(), first
        return sums


def _pop_energy(sums: _WindowSums, stop: Optional[int] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The next window energies from `sums` (over s^2), each at least EPS_ENERGY."""
    energy = sums.pop(stop, out)
    np.maximum(energy, EPS_ENERGY, out=energy)
    return energy


def _box_width(window_s: float, sample_rate_hz: int) -> int:
    return int(round(window_s * sample_rate_hz))


class _BoxMean:
    """Centered box means over w lags of a trace given row by row, in lag order.

    A partial window at either end of the trace averages what exists; a
    window of at most one lag is the lag itself. With `rectify`, the means
    are of |values|, rectified straight into the prefix sum.
    """

    def __init__(self, n: int, w: int, rectify: bool):
        self.rectify = rectify
        self.sums = _WindowSums(n, w, (w - 1) // 2, True, np.absolute if rectify else None) if w > 1 else None

    def push(self, row: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The means the rows so far complete and no earlier push returned.

        They are written to the start of `out` if it is given and large
        enough; `out` may be `row` itself.
        """
        if self.sums is None:
            dest = np.empty(row.size) if out is None else out[: row.size]
            return (np.absolute if self.rectify else np.positive)(row, out=dest)
        self.sums.push(row)
        if out is not None and out.size < self.sums.ready() - self.sums.done:
            out = None
        return self.sums.pop(out=out)


def _check_group(s: AudioClip, clips: Sequence[AudioClip]) -> list[float]:
    """Each clip's energy; the clips must share one length and fit the take."""
    for clip in clips:
        _check_pair(s, clip)
    if len({len(clip) for clip in clips}) > 1:
        raise ValueError(f"clips must share one length, got {sorted({len(clip) for clip in clips})}")
    energies = [float(np.dot(clip.samples, clip.samples)) for clip in clips]
    if min(energies) <= 0.0:
        raise DetectionError("pattern has zero energy")
    return energies


def _sliding_dot(
    s: np.ndarray,
    p: np.ndarray,
    pattern_energy=None,
    peaks_above: Optional[float] = None,
    sinks: Sequence[Optional[Callable[[np.ndarray], None]]] = (),
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

    Given `pattern_energy`, one value per pattern (or one for all), each
    lag is divided by sqrt(take energy * pattern energy) and clipped to
    [-1, 1] instead: the normalized cross-correlation, finished batch by
    batch. The take energy under each lag's window comes from a running
    prefix sum of s^2 that the calling thread carries from batch to
    batch (`_WindowSums`), so it is the same bit for bit as
    `window_energy(s, m)` and never exists at take length.

    `sinks[j]`, when given and not None, is called by the calling thread
    with pattern j's normalized lags, batch by batch in lag order; it may
    overwrite them unless they are kept. With `peaks_above` (normalized
    only), each other pattern's batch of lags is peak-picked as soon as
    it is normalized, and the call returns the output (None unless
    `keep`) and, per pattern, the (lags, values) arrays `local_maxima`
    gives on the whole trace (None for a pattern with a sink). Without
    `keep`, no output exists: each batch is normalized into memory that
    is dead by then, the product spectrum its inverse FFT has just read,
    or a row buffer of its slot for a sink that has not had it yet.

    Batches of blocks run on up to _WORKERS threads, the calling one
    among them (numpy's FFTs release the GIL). Each batch has a slot of
    a ring of one set of buffers per thread, and is finished (handed to
    the sinks) in batch order before its slot is reused; waiting for a
    batch a helper runs, the calling thread runs the oldest batch no
    helper has started, as the helpers do. Each batch writes only its
    own rows, so the result does not depend on the thread count. The
    calling thread allocates every buffer: memory a helper thread
    allocates would stay in that thread's malloc arena after the call.
    """
    group = np.atleast_2d(p)
    n, (g, m) = s.size, group.shape
    nfft = _fft_length(n, m)
    step = nfft - m + 1
    n_blocks = -(-n // step)
    batch = max(1, _BATCH_SAMPLES // (nfft * _WORKERS))  # blocks per batch; all slots share the budget
    n_batches = -(-n_blocks // batch)
    workers = slots = min(_WORKERS, n_batches)  # a ring of one slot per worker
    sinks = list(sinks) + [None] * (g - len(sinks))
    # A sink's lags must outlive their batch: the last pattern's stay in the forward
    # spectrum it multiplied in place, the others' get a row buffer unless kept.
    own_rows = [] if keep else [j for j in range(g - 1) if sinks[j] is not None]
    energies = None if pattern_energy is None else np.broadcast_to(np.asarray(pattern_energy, dtype=float), (g,))
    energy_sums = None if energies is None else _WindowSums(n, m, of=np.square)
    most = min(batch, n_blocks)  # blocks in the largest batch

    def buffers(shape, dtype=float) -> list:
        return [np.empty(shape, dtype=dtype) for _ in range(slots)]

    specs = buffers((most, nfft // 2 + 1), complex)
    # The last pattern of a group multiplies in place: a group of one needs no product buffer.
    products = buffers((most, nfft // 2 + 1), complex) if g > 1 else None
    blocks_out = buffers((most, nfft))
    # Each batch's take energies: kept, in the last pattern's rows until it normalizes them.
    window = buffers(most * step) if energies is not None and not keep else None
    rows = buffers((len(own_rows), most * step)) if own_rows else None
    segments = [None] * slots
    out = np.empty((g, n)) if keep else None
    peaks = [[None] * n_batches for _ in range(g)]  # each batch's _RowPeaks, per pattern

    def lags(i: int) -> tuple[int, int, int]:
        """Batch i's slot, first lag and number of blocks."""
        return i % slots, i * batch * step, min(batch, n_blocks - i * batch)

    def take_energies(i: int) -> np.ndarray:
        """The take energies of batch i's lags inside the take."""
        slot, lo, k = lags(i)
        return out[g - 1, lo : lo + k * step] if keep else window[slot][: min(k * step, n - lo)]

    def dest(i: int, j: int) -> np.ndarray:
        """Where pattern j's lags of batch i go, shape (blocks, step); a kept batch that runs past the take is copied out."""
        slot, lo, k = lags(i)
        if keep and lo + k * step <= n:
            return out[j, lo : lo + k * step].reshape(k, step)
        if j in own_rows:
            return rows[slot][own_rows.index(j), : k * step].reshape(k, step)
        product = specs[slot] if j == g - 1 else products[slot]  # k * step <= k * (nfft + 2) floats
        return product[:k].view(np.float64).reshape(-1)[: k * step].reshape(k, step)

    def prepare(i: int) -> None:
        """The calling thread's part before batch i runs: its samples, and its lags' take energies."""
        slot, lo, k = lags(i)
        length = (k - 1) * step + nfft
        seg = s[lo : lo + length]
        segments[slot] = seg if seg.size == length else np.concatenate((seg, np.zeros(length - seg.size)))
        if energy_sums is not None:
            stop = min(lo + k * step, n)
            energy_sums.push(s[energy_sums.pushed : min(stop + m - 1, n)])
            _pop_energy(energy_sums, stop, take_energies(i))

    def run(i: int) -> None:
        slot, lo, k = lags(i)
        spec, full = specs[slot], blocks_out[slot]
        blocks = np.lib.stride_tricks.sliding_window_view(segments[slot], nfft)[::step]
        np.fft.rfft(blocks, axis=1, out=spec[:k])
        for j in range(g):
            product = spec[:k] if j == g - 1 else products[slot][:k]
            np.multiply(spec[:k], pattern_specs[j], out=product)
            np.fft.irfft(product, nfft, axis=1, out=full[:k])
            rows_j = dest(i, j)
            flat = rows_j.reshape(-1)  # rows_j's memory
            if energies is None:
                rows_j[...] = full[:k, :step]
            else:
                denom = flat[: n - lo]  # the lags inside the take
                np.multiply(take_energies(i), energies[j], out=denom)
                np.sqrt(denom, out=denom)
                flat[denom.size :] = 1.0  # lags past the take are cut off below; keep their division defined
                np.divide(full[:k, :step], rows_j, out=rows_j)
                np.clip(rows_j, -1.0, 1.0, out=rows_j)
            if keep and lo + k * step > n:
                out[j, lo:] = flat[: n - lo]
            if peaks_above is not None and sinks[j] is None:
                peaks[j][i] = _row_peaks(flat[: n - lo], peaks_above, lo)

    def finish(i: int) -> None:
        """Hand batch i's lags inside the take to the sinks (calling thread, in batch order)."""
        _, lo, k = lags(i)
        for j, sink in enumerate(sinks):
            if sink is not None:
                sink(out[j, lo : lo + k * step] if keep else dest(i, j).reshape(-1)[: n - lo])

    pattern_specs = [np.conj(np.fft.rfft(row, nfft)) for row in group]
    if workers == 1:
        for i in range(n_batches):
            prepare(i)
            run(i)
            finish(i)
    else:
        pending = deque()  # [batch, its future, None once done], in batch order

        def settle(entry: list) -> None:
            """Finish the oldest batch; until it is done, run the oldest batches no helper has started."""
            while entry[1] is not None:
                idle = None if entry[1].done() else next(
                    (e for e in (entry, *pending) if e[1] is not None and e[1].cancel()), None
                )
                if idle is None:  # done, or every batch in flight has started
                    entry[1].result()  # re-raises a helper's error
                    entry[1] = None
                else:
                    run(idle[0])
                    idle[1] = None
            finish(entry[0])

        with ThreadPoolExecutor(workers - 1) as pool:
            for i in range(n_batches):
                if len(pending) == slots:  # batch i takes the oldest batch's slot
                    settle(pending.popleft())
                prepare(i)
                pending.append([i, pool.submit(run, i)])
            while pending:
                settle(pending.popleft())
    if keep and p.ndim == 1:
        out = out[0]
    if peaks_above is None:
        return out
    return out, [_stitch(rows) if sink is None else None for rows, sink in zip(peaks, sinks)]


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

    The take's half of the normalized correlation's denominator, the
    energies the correlation engine carries batch by batch, here over the
    take as one chunk. It depends on the pattern only through its length,
    so patterns of one length share it (Lewis 1995, "Fast Normalized
    Cross-Correlation").
    """
    sums = _WindowSums(len(s), m, of=np.square)
    sums.push(s.samples)
    out = _pop_energy(sums)
    out.setflags(write=False)
    return out


def normalized_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Windowed normalized cross-correlation, bounded in [-1, 1].

    Each lag divides the sliding dot product by the geometric mean of the
    pattern energy and the sequence energy inside the aligned window
    (`window_energy`), so the score is invariant to how loud the instance
    was voiced.
    """
    (pattern_energy,) = _check_group(s, [p])
    values = _sliding_dot(s.samples, p.samples, pattern_energy)
    return _fresh_trace(values, s.sample_rate_hz)


def energy(x: AudioClip) -> float:
    """Discretized integral of the squared signal (dimensionless * seconds)."""
    return float(np.dot(x.samples, x.samples) / x.sample_rate_hz)


def moving_average(trace: CorrelationTrace, window_s: float, rectify: bool = False) -> CorrelationTrace:
    """Centered boxcar mean; partial windows at the edges average what exists.

    The box means a continuous pattern's lags get batch by batch in
    `scan_group`, here over the trace as one row. With `rectify`, the mean
    is of |values|, rectified straight into the prefix sum, so no
    rectified copy of the trace is made.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    n = len(trace)
    w = _box_width(window_s, trace.sample_rate_hz)
    if (w <= 1 or n == 0) and not rectify:
        return trace
    return _fresh_trace(_BoxMean(n, w, rectify).push(trace.values), trace.sample_rate_hz)


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


class Runs(NamedTuple):
    """The maximal runs of a trace above a threshold: first and last lag (inclusive) and largest value of each."""

    starts: np.ndarray
    ends: np.ndarray
    peaks: np.ndarray


def _row_runs(v: np.ndarray, threshold: float, lo: int) -> Runs:
    """The runs above `threshold` of the row `v` of a trace, which starts at lag `lo`."""
    above = np.flatnonzero(v > threshold)
    if not above.size:
        return Runs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    cuts = np.flatnonzero(np.diff(above) > 1) + 1  # where a new run starts among `above`
    firsts = np.concatenate(([0], cuts))
    lasts = np.concatenate((cuts - 1, [above.size - 1]))
    return Runs(above[firsts] + lo, above[lasts] + lo, np.maximum.reduceat(v[above], firsts))


def _stitch_runs(rows: Sequence[Runs]) -> Runs:
    """The runs of the trace cut into `rows` (at least one), given in lag order.

    Runs of one row never touch, so a run that ends on the lag before
    the next one's start crossed a row edge: the two are one run.
    """
    starts, ends, peaks = (np.concatenate(column) for column in zip(*rows))
    if not starts.size:
        return Runs(starts, ends, peaks)
    firsts = np.flatnonzero(np.concatenate(([True], starts[1:] != ends[:-1] + 1)))
    lasts = np.concatenate((firsts[1:] - 1, [starts.size - 1]))
    return Runs(starts[firsts], ends[lasts], np.maximum.reduceat(peaks, firsts))


def above_runs(trace: CorrelationTrace, threshold: float) -> Runs:
    """The maximal runs of `trace` above `threshold`, in lag order."""
    return _stitch_runs([_row_runs(trace.values, threshold, 0)])


class _BoxRuns:
    """A sink for `_sliding_dot`: the runs above `threshold` of a trace's rectified box mean over w lags.

    The trace arrives batch by batch in lag order. Its box means, the
    values of `moving_average(trace, w / rate, rectify=True)`, are kept in
    `averaged` when asked; otherwise only the runs found are.
    """

    def __init__(self, n: int, w: int, threshold: float, keep: bool):
        self.mean = _BoxMean(n, w, rectify=True)
        self.threshold = threshold
        self.averaged = np.empty(n) if keep else None
        self.done = 0  # box means computed so far
        self.rows: list[Runs] = []

    def __call__(self, lags: np.ndarray) -> None:
        # Unless kept, the lags are dead once pushed into the prefix sum: their memory takes the means.
        means = self.mean.push(lags, lags if self.averaged is None else self.averaged[self.done :])
        self.rows.append(_row_runs(means, self.threshold, self.done))
        self.done += means.size

    def runs(self) -> Runs:
        return _stitch_runs(self.rows)


def scan_group(
    s: AudioClip,
    impulses: Sequence[AudioClip],
    continuous: Sequence[AudioClip],
    threshold: float,
    continuous_threshold: float,
    traces: Optional[list] = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[Runs]]:
    """The normalized cross-correlations of clips of one length, decided in one engine call.

    Returns, per impulse clip, the (lags, values) of
    `local_maxima(normalized_cross_correlate(s, clip), threshold)` and,
    per continuous clip, the `above_runs` at `continuous_threshold` of
    `moving_average(normalized_cross_correlate(s, clip), clip.duration_s,
    rectify=True)`. The clips share each block's forward FFT and each
    lag's take energy. Each batch of an impulse clip's lags is peak-picked
    in the worker that normalized it; a continuous clip's lags go batch by
    batch to the calling thread, which box-averages and thresholds them
    (`_BoxRuns`). So no take-length array exists, unless `traces` is a
    list: then (trace, averaged) is appended per clip, impulses first,
    where trace is the lags its decisions read, the same bit for bit as
    `normalized_cross_correlate(s, clip)`, and averaged its box means, or
    None for an impulse clip.
    """
    clips = [*impulses, *continuous]
    if not clips:
        return [], []
    energies = _check_group(s, clips)
    keep = traces is not None
    n, rate = len(s), s.sample_rate_hz
    boxes = [_BoxRuns(n, _box_width(clip.duration_s, rate), continuous_threshold, keep) for clip in continuous]
    sinks = [None] * len(impulses) + boxes
    group = np.stack([clip.samples for clip in clips])
    values, peaks = _sliding_dot(s.samples, group, energies, threshold, sinks, keep)
    if keep:
        traces.extend(
            (_fresh_trace(row, rate), None if box is None else _fresh_trace(box.averaged, rate))
            for row, box in zip(values, sinks)
        )
    return peaks[: len(impulses)], [box.runs() for box in boxes]


def impulse_peaks(
    s: AudioClip,
    clips: Sequence[AudioClip],
    threshold: float,
    traces: Optional[list[CorrelationTrace]] = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per clip, the (lags, values) of `local_maxima(normalized_cross_correlate(s, clip), threshold)`.

    `scan_group` of impulse clips only: the clips must share one length.
    Given a list as `traces`, each clip's trace, the lags its peaks were
    picked from, is appended to it.
    """
    kept = None if traces is None else []
    peaks, _ = scan_group(s, clips, (), threshold, threshold, kept)
    if traces is not None:
        traces.extend(trace for trace, _ in kept)
    return peaks
