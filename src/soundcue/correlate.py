"""Correlation and peak-picking primitives.

The sliding dot products behind both correlation flavours run blockwise
through real FFTs by overlap-save (Stockham 1966): the sequence is cut
into overlapping blocks of one FFT length L, each block is correlated
with the patterns in the frequency domain, and the L - m_max + 1 lags of
each block that wrap around for no pattern are kept. L is the smallest
power of two >= max(2*m_max, 2^15) for the longest pattern's m_max, and
never above the power of two >= n + m_max - 1 that holds the whole
sequence in one zero-padded block: blocks of 2^15 points keep their
buffers in the CPU's caches, and work per sample depends on the
patterns, not on the take, so the blocks in flight take a few megabytes
whatever n is. Batches of blocks run on one thread per usable CPU
(`parallel.usable_cpus`), the calling one among them, each batch in its
own slot of a ring of buffers, so the result is the same bit for bit on
any number of them.
The test suite keeps an O(n*m) direct evaluation of the same sums as
the reference oracle.

Window sums (the sequence energy under each lag's window, the boxcar
behind the moving average) come from a running prefix sum, `_WindowSums`:
the sequence arrives chunk by chunk, each chunk's cumsum starts from the
last value before it, so every value is bit for bit that of one cumsum
over the whole sequence. Interior windows are differences of two slices
of it, and only the clamped windows at the edges index it lag by lag.
`window_energy` and `moving_average` are that code over one chunk.

The engine takes a whole pattern dictionary, of any lengths, in one pass
over the take: the calling thread carries one prefix sum of the take's
squares from batch to batch and hands each batch the span its lags read,
from which each pattern takes the window energies of its own length
(Lewis 1995, "Fast Normalized Cross-Correlation"); each batch of blocks
is forward-transformed once, and every pattern then multiplies,
inverse-transforms and normalizes its own copy.
`scan_group` is the pipeline's one entry to the engine. The
single-pattern functions, `normalized_cross_correlate` and
`raw_cross_correlate` (a group of one that keeps its output),
`window_energy`, `moving_average` and `find_local_maxima`, are the
references that tests and the acceptance criteria read.
`scan_group` decides as it goes: each worker
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

An impulse pattern can only fire near its own instances, so its blocks
are screened before they are inverse-transformed: the upper-bound early
rejection of bounded partial correlation (Di Stefano, Mattoccia &
Tombari 2005), applied to Lewis's FFT-domain correlation. By the
triangle inequality on the inverse DFT, no output of irfft(S * conj(P))
exceeds B = sum_k w_k |S_k| |P_k| / N (w = 1 at DC and Nyquist, 2
elsewhere, as the conjugate half of the spectrum repeats the other
bins). A block whose B * (1 + 1e-6) is at most threshold * sqrt(pattern
energy * the smallest window energy among its lags) has no lag above
the threshold. The margin is far above pocketfft's rounding, which is
O(eps * log2(N) * sqrt(N)) of B, about 1e-12 at N = 2^15. Such a dead
block is neither multiplied, inverse-transformed, normalized nor
peak-picked. The stitcher gets a stand-in row with no peaks and -1.0 as
its first and last values, which it only compares with values above the
threshold, so every decision is the one the real row gives. Live blocks
run the unscreened code, so their lags are the same bit for bit. A
pattern is screened when it is an impulse with no sink, the traces are
not kept, the threshold is above 0, and its bound on white noise is
expected below its limit (`_noise_ratio`): tonal cues are, noise bursts,
whose bound spreads over every bin, are not.

Lag convention: values[tau] is the score for the pattern *starting* at
sample tau of the sequence, with the sequence treated as zero beyond its
end. Raw correlation approximates the integral of s(u+tau)*p(u) du, so
sums are scaled by the sample period; the normalized flavour is the
windowed cosine similarity, which is what thresholds apply to.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .audio import AudioClip
from .errors import DetectionError
from .parallel import usable_cpus

EPS_ENERGY = 1e-12
_BATCH_SAMPLES = 1 << 19  # samples of blocks in flight across all workers: 4 MB of float64
_WORKERS = usable_cpus()  # threads one correlation runs its FFT batches on


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


# The shortest overlap-save block: 2^15 points. A batch of such blocks keeps its float and
# complex buffers in a CPU's 2 MB per-core cache while every pattern multiplies and
# inverse-transforms them. With two 0.2 s patterns on a 60 s, 44.1 kHz take (2 threads of a
# Xeon VM), a lag costs about 33 ns at 2^15 or 2^16 points, 41 at 2^17 and 53 at 2^18; at
# 2^14 points a 0.12 s pattern costs 34 ns against 28, as each block repeats its overlap.
_MIN_BLOCK = 1 << 15


def _fft_length(n: int, m: int) -> int:
    """Overlap-save block length for an n-sample sequence and patterns of at most m samples.

    The smallest power of two >= max(2 * m, _MIN_BLOCK), so each block
    yields more than half its points as lags, but never more than the
    power of two >= n + m - 1 that takes the whole sequence in one block.
    """
    return min(_pow2_at_least(max(2 * m, _MIN_BLOCK)), _pow2_at_least(n + m - 1))


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

    With lead 0, `pop_prefix` returns the prefix sums themselves instead,
    which serve windows of every width up to w.
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
        self._drop(stop)
        return sums

    def pop_prefix(self, stop: int) -> np.ndarray:
        """The prefix sums that lags done .. stop - 1 read, for windows of any width up to w; lead 0 only.

        Entry t is sum(of(x)[: done + t]), for done + t up to
        min(stop - 1 + w, n); `stop` must not pass `ready()`. Lag i's
        window of width v <= w is [i, min(i + v, n)), so its sum is entry
        min(i + v, n) - done minus entry i - done: one prefix serves every
        width (`_window_energy`). The result is a view of prefix sums this
        object no longer writes, so it stays valid after later pushes.
        """
        c, base = self.csum, self.base
        prefix = c[self.done - base : min(stop - 1 + self.w, self.n) + 1 - base]
        self._drop(stop)
        return prefix

    def _drop(self, stop: int) -> None:
        """Mark lags up to stop - 1 done, and hold only the prefix sums the windows still to come start at."""
        self.done = stop
        first = max(stop - self.lead, 0)
        self.csum, self.base = self.csum[first - self.base :].copy(), first


def _window_energy(prefix: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """max(sum of squares under each lag's w-sample window, EPS_ENERGY), written to `out`, one value per lag.

    `prefix` is what `_WindowSums.pop_prefix` gives for these lags. Lags
    whose window runs past the take's end come last; the prefix then ends
    at the take's end, and their sums are its last entry minus their own.
    """
    inner = max(min(out.size, prefix.size - w), 0)  # lags whose window lies inside the prefix
    np.subtract(prefix[w : w + inner], prefix[:inner], out=out[:inner])
    np.subtract(prefix[-1], prefix[inner : out.size], out=out[inner:])
    np.maximum(out, EPS_ENERGY, out=out)
    return out


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


def sum_of_squares(x: np.ndarray) -> float:
    """sum(x**2) by numpy's pairwise summation on the calling thread.

    Not np.dot: a BLAS dot product may run threaded on long inputs, and
    then its bits depend on how many CPUs the process may use.
    """
    return float(np.add.reduce(np.square(x)))


def _check_group(s: AudioClip, clips: Sequence[AudioClip]) -> list[float]:
    """Each clip's energy; every clip must fit the take."""
    for clip in clips:
        _check_pair(s, clip)
    energies = [sum_of_squares(clip.samples) for clip in clips]
    if min(energies) <= 0.0:
        raise DetectionError("pattern has zero energy")
    return energies


# A block is dead when its bound, times 1 + _BOUND_MARGIN, is at most the threshold times its
# smallest denominator. The bound holds in exact arithmetic; the inverse FFT it bounds is
# rounded by O(eps * log2(N) * sqrt(N)) of it, about 1e-12 at N = 2^15, and the bound and the
# limit by a few eps, so a margin of 1e-6 leaves every computed lag of a dead block under the
# threshold.
_BOUND_MARGIN = 1e-6


def _bound_weights(pattern_spec: np.ndarray, nfft: int) -> np.ndarray:
    """w_k * |P_k| / nfft for a pattern's rfft P of length nfft: w = 1 at DC and Nyquist, 2 elsewhere.

    For a block's rfft S, |S| @ these weights bounds every one of the
    nfft outputs of irfft(S * P, nfft): each is (1 / nfft) times a sum of
    the product's terms over the full spectrum, whose conjugate half
    repeats every bin but those two, and no term exceeds |S_k| * |P_k|.
    """
    weights = np.abs(pattern_spec) * (2.0 / nfft)
    weights[0] /= 2
    if nfft % 2 == 0:
        weights[-1] /= 2
    return weights


def _noise_ratio(pattern_spec: np.ndarray, nfft: int, m: int, threshold: float) -> float:
    """The expected ratio of a block's bound to its limit on white noise, for a pattern of m samples.

    With noise of variance v, E|S_k| = (sqrt(pi) / 2) * sqrt(nfft * v) and
    the window energy is about m * v; with the pattern's energy by Parseval,
    sum(w |P|^2) / nfft, the ratio is
    (sqrt(pi) / 2) * sum(w |P|) / (threshold * sqrt(m * sum(w |P|^2))).
    """
    weighted = _bound_weights(pattern_spec, nfft) * nfft  # w_k * |P_k|
    power = float(np.add.reduce(weighted * np.abs(pattern_spec)))  # not np.dot: see `sum_of_squares`
    return math.sqrt(math.pi) / 2 * float(np.add.reduce(weighted)) / (threshold * math.sqrt(m * power))


# Only a pattern whose `_noise_ratio` is below 1 is screened. A tonal cue's energy sits in a
# few bins, so its bound stays far under the limit wherever it is not voiced: the benchmark's
# tonal cues read 0.15 and skip 64 % of (block, pattern) pairs. A noise burst's spreads over
# every bin and reads about 4; it skipped 14 % of its blocks, too few to pay for the screen.
_NOISE_GATE = 1.0


def _sliding_dot(
    s: np.ndarray,
    patterns: Sequence[np.ndarray],
    energies: Optional[Sequence[float]] = None,
    peaks_above: Optional[float] = None,
    sinks: Sequence[Optional[Callable[[np.ndarray], None]]] = (),
    keep: bool = True,
):
    """sum_u s[tau+u] * p[u] for tau = 0..len(s)-1 and each pattern p, s zero-padded at the tail.

    `patterns` is a group of g patterns of any lengths (a sequence of 1-D
    arrays, or a 2-D array); the output has shape (g, len(s)). The group
    shares one block layout, so each block's forward FFT is taken once
    for all of them.

    Overlap-save: block b is s[b*step : b*step + nfft] (zeros past the
    end), nfft = `_fft_length(n, m_max)` for the longest pattern's m_max.
    Each pattern's spectrum is its rfft zero-padded to nfft, and its
    circular correlation with a block is exact for the first
    nfft - m + 1 >= step = nfft - m_max + 1 lags, which become
    out[b*step : (b+1)*step].

    Given `energies`, one value per pattern, each lag is divided by
    sqrt(take energy * pattern energy) and clipped to [-1, 1] instead: the
    normalized cross-correlation, finished batch by batch. The take energy
    under each lag's window comes from one running prefix sum of s^2 that
    the calling thread carries from batch to batch (`_WindowSums`) and
    hands each batch the span of it its lags read; each pattern takes its
    own window width's differences of that span (`_window_energy`). So
    each energy is the same bit for bit as `window_energy(s, m)`, whatever
    lengths the group mixes, and none exists at take length.

    `sinks[j]`, when given and not None, is called by the calling thread
    with pattern j's normalized lags, batch by batch in lag order; it may
    overwrite them unless they are kept. With `peaks_above` (normalized
    only), each other pattern's batch of lags is peak-picked as soon as it
    is normalized, and the call returns the output (None unless `keep`)
    and, per pattern, the (lags, values) arrays of the peaks
    `find_local_maxima` lists on the whole trace (None for a pattern with
    a sink). Without `keep`, no output exists: each batch is normalized
    into memory that is dead by then, the product spectrum its inverse FFT
    has just read, or a row buffer of its slot for a sink that has not had
    it yet.

    Without `keep`, a peak-picked pattern is screened block by block (see
    the module docstring) when `peaks_above` > 0 and its `_noise_ratio` is
    below _NOISE_GATE. `screen` writes |S| and each screened length's
    window energies into the slot's inverse-FFT output buffer, which no
    pattern of the batch has written yet, so it holds no buffer of its
    own. Its limit, peaks_above * sqrt(E_j * min E_w) over the block's lags
    inside the take, is rounded as each lag's denominator is, so it is at
    most every one of them. Only the live blocks' spectra are multiplied,
    moved to the front of the product buffer (in place for the last
    pattern); each run of consecutive live blocks is normalized and
    peak-picked as one row, and each run of dead blocks gets a `_quiet_row`.

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
    group = list(patterns)
    n, g = s.size, len(group)
    lengths = [row.size for row in group]
    m_max = max(lengths)
    nfft = _fft_length(n, m_max)
    step = nfft - m_max + 1
    n_blocks = -(-n // step)
    batch = max(1, _BATCH_SAMPLES // (nfft * _WORKERS))  # blocks per batch; all slots share the budget
    n_batches = -(-n_blocks // batch)
    workers = slots = min(_WORKERS, n_batches)  # a ring of one slot per worker
    sinks = list(sinks) + [None] * (g - len(sinks))
    # A sink's lags must outlive their batch: the last pattern's stay in the forward
    # spectrum it multiplied in place, the others' get a row buffer unless kept.
    own_rows = [] if keep else [j for j in range(g - 1) if sinks[j] is not None]
    energy_sums = None if energies is None else _WindowSums(n, m_max, of=np.square)
    most = min(batch, n_blocks)  # blocks in the largest batch

    def buffers(shape, dtype=float) -> list:
        return [np.empty(shape, dtype=dtype) for _ in range(slots)]

    specs = buffers((most, nfft // 2 + 1), complex)
    # The last pattern of a group multiplies in place: a group of one needs no product buffer.
    products = buffers((most, nfft // 2 + 1), complex) if g > 1 else None
    blocks_out = buffers((most, nfft))
    rows = buffers((len(own_rows), most * step)) if own_rows else None
    segments = [None] * slots
    prefixes = [None] * slots  # each batch's prefix sums of s^2, which every pattern's window energies read
    out = np.empty((g, n)) if keep else None
    peaks = [[None] * n_batches for _ in range(g)]  # each batch's list of _RowPeaks, per pattern

    def lags(i: int) -> tuple[int, int, int]:
        """Batch i's slot, first lag and number of blocks."""
        return i % slots, i * batch * step, min(batch, n_blocks - i * batch)

    def dest(i: int, j: int) -> np.ndarray:
        """Where pattern j's lags of batch i go, shape (blocks, step); a kept batch that runs past the take is copied out.

        A screened pattern's live blocks take its first rows, in order.
        """
        slot, lo, k = lags(i)
        if keep and lo + k * step <= n:
            return out[j, lo : lo + k * step].reshape(k, step)
        if j in own_rows:
            return rows[slot][own_rows.index(j), : k * step].reshape(k, step)
        product = specs[slot] if j == g - 1 else products[slot]  # k * step <= k * (nfft + 2) floats
        return product[:k].view(np.float64).reshape(-1)[: k * step].reshape(k, step)

    def prepare(i: int) -> None:
        """The calling thread's part before batch i runs: its samples, and the prefix sums of its lags' take energies."""
        slot, lo, k = lags(i)
        length = (k - 1) * step + nfft
        seg = s[lo : lo + length]
        segments[slot] = seg if seg.size == length else np.concatenate((seg, np.zeros(length - seg.size)))
        if energy_sums is not None:
            stop = min(lo + k * step, n)
            energy_sums.push(s[energy_sums.pushed : min(stop + m_max - 1, n)])
            prefixes[slot] = energy_sums.pop_prefix(stop)

    def screen(slot: int, lo: int, k: int) -> np.ndarray:
        """(k, screened patterns) bools: True where no lag of the block can score above `peaks_above`.

        Each block's bound is |S| times the pattern's `_bound_weights`; its
        limit is `peaks_above` times the smallest denominator among its lags
        inside the take. Both are computed in the slot's inverse-FFT output
        buffer, which no pattern of this batch has written yet.
        """
        flat = blocks_out[slot].reshape(-1)
        inside = min(k * step, n - lo)  # every block has lags inside the take
        firsts = np.arange(0, inside, step)
        floors = np.empty((k, len(screened)))
        for m, cols in screened_lengths.items():
            floors[:, cols] = np.minimum.reduceat(_window_energy(prefixes[slot], m, flat[:inside]), firsts)[:, None]
        mags = flat[: k * (nfft // 2 + 1)].reshape(k, nfft // 2 + 1)
        np.absolute(specs[slot][:k], out=mags)
        bounds = np.einsum("kf,jf->kj", mags, screened_weights)  # no BLAS: its threads would contend with the workers
        np.multiply(floors, screened_energies, out=floors)  # as each lag's denominator is rounded
        np.sqrt(floors, out=floors)
        return bounds * (1.0 + _BOUND_MARGIN) <= floors * peaks_above

    def run(i: int) -> None:
        slot, lo, k = lags(i)
        spec, full = specs[slot], blocks_out[slot]
        blocks = np.lib.stride_tricks.sliding_window_view(segments[slot], nfft)[::step]
        np.fft.rfft(blocks, axis=1, out=spec[:k])
        dead = screen(slot, lo, k) if screened else None
        for j in range(g):
            product = spec if j == g - 1 else products[slot]
            alive = ~dead[:, screened[j]] if j in screened else np.ones(k, dtype=bool)
            live = np.flatnonzero(alive)
            if live.size < k:  # the live blocks' spectra, moved to the front (b >= r, so in place too)
                for r, b in enumerate(live):
                    product[r] = spec[b]
            if live.size:
                source = spec if live.size == k else product
                np.multiply(source[: live.size], pattern_specs[j], out=product[: live.size])
                np.fft.irfft(product[: live.size], nfft, axis=1, out=full[: live.size])
            rows_j = dest(i, j)
            picked = []
            r = 0  # the row of `full` and of `rows_j` that holds the run's first block
            for b, count, is_live in _block_runs(alive):
                start = lo + b * step
                if not is_live:
                    picked.append(_quiet_row(start))
                    continue
                rows = rows_j[r : r + count]
                flat = rows.reshape(-1)  # rows' memory
                inside = min(count * step, n - start)
                if energies is None:
                    rows[...] = full[r : r + count, :step]
                else:
                    denom = _window_energy(prefixes[slot][b * step :], lengths[j], flat[:inside])
                    np.multiply(denom, energies[j], out=denom)
                    np.sqrt(denom, out=denom)
                    flat[inside:] = 1.0  # lags past the take are cut off below; keep their division defined
                    np.divide(full[r : r + count, :step], rows, out=rows)
                    np.clip(rows, -1.0, 1.0, out=rows)
                if keep and start + count * step > n:
                    out[j, start:] = flat[:inside]
                if peaks_above is not None and sinks[j] is None:
                    picked.append(_row_peaks(flat[:inside], peaks_above, start))
                r += count
            peaks[j][i] = picked

    def finish(i: int) -> None:
        """Hand batch i's lags inside the take to the sinks (calling thread, in batch order)."""
        _, lo, k = lags(i)
        for j, sink in enumerate(sinks):
            if sink is not None:
                sink(out[j, lo : lo + k * step] if keep else dest(i, j).reshape(-1)[: n - lo])

    pattern_specs = [np.conj(np.fft.rfft(row, nfft)) for row in group]
    screened: dict[int, int] = {}  # each screened pattern's column in `screen`'s result
    if energies is not None and peaks_above is not None and peaks_above > 0 and not keep:
        for j in range(g):
            if sinks[j] is None and _noise_ratio(pattern_specs[j], nfft, lengths[j], peaks_above) < _NOISE_GATE:
                screened[j] = len(screened)
    if screened:
        screened_weights = np.stack([_bound_weights(pattern_specs[j], nfft) for j in screened])
        screened_energies = np.array([energies[j] for j in screened])
        screened_lengths: dict[int, list[int]] = {}  # pattern length -> its columns
        for j, col in screened.items():
            screened_lengths.setdefault(lengths[j], []).append(col)
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
    if peaks_above is None:
        return out
    return out, [_stitch(chain.from_iterable(rows)) if sink is None else None for rows, sink in zip(peaks, sinks)]


def _fresh_trace(values: np.ndarray, sample_rate_hz: int) -> CorrelationTrace:
    """A trace over `values`, an array just computed here that nothing else refers to: frozen, not copied."""
    values.setflags(write=False)
    return CorrelationTrace(values, sample_rate_hz)


def raw_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Unnormalized cross-correlation, the discretized overlap integral."""
    _check_pair(s, p)
    values = _sliding_dot(s.samples, [p.samples])[0]
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
    out = _window_energy(sums.pop_prefix(len(s)), m, np.empty(len(s)))
    out.setflags(write=False)
    return out


def normalized_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Windowed normalized cross-correlation, bounded in [-1, 1].

    Each lag divides the sliding dot product by the geometric mean of the
    pattern energy and the sequence energy inside the aligned window
    (`window_energy`), so the score is invariant to how loud the instance
    was voiced.
    """
    values = _sliding_dot(s.samples, [p.samples], _check_group(s, [p]))[0]
    return _fresh_trace(values, s.sample_rate_hz)


def energy(x: AudioClip) -> float:
    """Discretized integral of the squared signal (dimensionless * seconds)."""
    return sum_of_squares(x.samples) / x.sample_rate_hz


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


def _quiet_row(lo: int) -> _RowPeaks:
    """What `_stitch` needs of a row of lags from `lo` that are all at most the threshold (> 0): no peaks, no runs.

    Its first and last values stand in as -1.0. `_stitch` compares them
    only with a run's value, which is above the threshold, so -1.0
    decides as the row's real values would.
    """
    return _RowPeaks(np.empty(0, dtype=np.int64), np.empty(0), lo, -1.0, -1.0, None, None, None, None)


def _block_runs(alive: np.ndarray) -> list[tuple[int, int, bool]]:
    """(first block, number of blocks, live) of each maximal run of blocks that are all live or all dead."""
    cuts = [0, *(np.flatnonzero(np.diff(alive)) + 1).tolist(), alive.size]
    return [(lo, hi - lo, bool(alive[lo])) for lo, hi in zip(cuts, cuts[1:])]


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


def find_local_maxima(trace: CorrelationTrace, threshold: float) -> list[tuple[int, float]]:
    """Lags of strict local maxima above `threshold`, in increasing order.

    A plateau counts once and reports its center sample (floor of the
    midpoint for even plateaus). Runs touching either end of the trace are
    never maxima, so a monotone trace yields nothing.
    """
    v = trace.values
    lags, values = _stitch([_row_peaks(v, threshold, 0)] if v.size else [])
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
    """The normalized cross-correlations of a dictionary's clips, of any lengths, decided in one engine call.

    This is the engine's one entry for a dictionary. Returns, per impulse
    clip, the peaks `find_local_maxima(normalized_cross_correlate(s,
    clip), threshold)` lists, as an int64 array of lags and a float64
    array of values, and, per continuous clip, the maximal runs (`Runs`)
    above `continuous_threshold` of
    `moving_average(normalized_cross_correlate(s, clip), clip.duration_s,
    rectify=True)`. The clips share one block layout, set by the longest
    of them, each block's forward FFT and one running sum of the take's
    squares, from which each distinct length gets its lags' window
    energies. Each batch of an impulse clip's lags is peak-picked in the
    worker that normalized it, once the blocks that cannot reach
    `threshold` are screened out (`_sliding_dot`; not when `traces` is
    kept); a continuous clip's lags go batch by batch to the calling
    thread, which box-averages and thresholds them
    (`_BoxRuns`). So no take-length array exists, unless `traces` is a
    list: then (trace, averaged) is appended per clip, impulses first,
    where trace is the lags its decisions read and averaged its box means,
    or None for an impulse clip. When every clip has one length, the
    layout is `normalized_cross_correlate`'s and the trace is the same bit
    for bit; a shorter clip beside a longer one is cut into other blocks,
    which moves its lags by a few ulps.
    """
    clips = [*impulses, *continuous]
    if not clips:
        return [], []
    energies = _check_group(s, clips)
    keep = traces is not None
    n, rate = len(s), s.sample_rate_hz
    boxes = [_BoxRuns(n, _box_width(clip.duration_s, rate), continuous_threshold, keep) for clip in continuous]
    sinks = [None] * len(impulses) + boxes
    values, peaks = _sliding_dot(s.samples, [clip.samples for clip in clips], energies, threshold, sinks, keep)
    if keep:
        traces.extend(
            (_fresh_trace(row, rate), None if box is None else _fresh_trace(box.averaged, rate))
            for row, box in zip(values, sinks)
        )
    return peaks[: len(impulses)], [box.runs() for box in boxes]
