"""Correlation and peak-picking primitives.

The sliding dot products behind both correlation flavours run blockwise
through real FFTs by overlap-save (Stockham 1966; `_Layout`). Work per
sample depends on the patterns, not on the take, so the blocks in flight
take a few megabytes whatever its length. `_segments` reads the take
batch by batch, and `_ring` runs the batches on one thread per usable CPU
(`parallel.usable_cpus`), the calling one among them, so the result is
the same bit for bit on any number of them. The test suite keeps an
O(n*m) direct evaluation of the same sums as the reference oracle.

The engine takes a whole pattern dictionary, of any lengths, in one pass
over the take. Each batch of blocks is forward-transformed once, and
the worker that runs it takes a prefix sum of each block's squares
(`_block_prefix`), from which each pattern takes the window energies of
its own length (Lewis 1995, "Fast Normalized Cross-Correlation"); every
pattern then multiplies, inverse-transforms and normalizes its own copy.
`window_energy` is that per-block code over a lone pattern's layout.
A continuous pattern's box means are anchored per block the same way:
the worker takes a prefix sum of each block's rectified lags, a window
inside one block is one difference of it, and one that crosses into the
next block is the first's tail plus the next's head (`_box_means`); the
calling thread takes only the w - 1 windows across each batch edge,
from the prefix rows of the blocks on either side (`_Box`).
`moving_average` is that per-block code over a lone pattern's layout.
`scan_group` is the pipeline's one entry to the engine. The
single-pattern functions, `normalized_cross_correlate` and
`raw_cross_correlate` (a group of one whose sink fills the trace),
`window_energy`, `moving_average` and `find_local_maxima`, are the
references that tests and the acceptance criteria read. Lags leave the
engine only through per-batch sinks, pickers and boxes, and
`scan_group` decides as they go, so no trace exists at take length:
beside the take, the group holds the batches in flight with their lags
above the threshold and their box means' runs, one prefix row per
continuous pattern, and the runs and peaks found. A strict local
maximum above a threshold depends only on the lags above it: the
workers list an impulse pattern's lags above the threshold with their
values, and one `_Peaks` per pattern picks the peaks from them on the
calling thread, carrying one plateau across batch edges.
`find_local_maxima` is that picker over one trace, so the peak
definition exists once, for plain, recorded and reference scans.

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
block is neither multiplied, inverse-transformed nor normalized, and
lists no lag above the threshold, which is what its real lags would
list, so the picker decides as it would unscreened. Live blocks run the
unscreened code, so their lags are the same bit for bit. The bound
holds |lag|, so it holds a continuous pattern's rectified box means as
well: a window over dead blocks averages to at most its threshold
(`_box_margin`). A continuous pattern computes a block that is live or
has a live neighbour, as a window reaches at most one block beside its
own, and the first and last block of each batch, whose neighbours in
other batches its worker cannot see; the means of windows that touch a
block it skipped are not taken, and cannot reach a run. A pattern is
screened when its lags are not recorded, its threshold is above 0, and
its bound on white noise is expected below its limit (`_noise_ratio`):
tonal cues are, noise bursts, whose bound spreads over every bin, are not.

Lag convention: values[tau] is the score for the pattern *starting* at
sample tau of the sequence, with the sequence treated as zero beyond its
end. Raw correlation approximates the integral of s(u+tau)*p(u) du, so
sums are scaled by the sample period; the normalized flavour is the
windowed cosine similarity, which is what thresholds apply to.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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


def _box_width(window_s: float, sample_rate_hz: int) -> int:
    return int(round(window_s * sample_rate_hz))


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


def _box_margin(step: int, w: int) -> float:
    """The margin of a continuous pattern's screen: `_BOUND_MARGIN` plus what a box mean's rounding can add.

    A dead block's rectified lags are each at most x = threshold / (1 +
    margin). A box mean over dead blocks is a sum of at most three prefix
    sums of at most step of them (`_box_means`), each rounded by at most
    step * eps / 2 of step * x (recursive summation, Higham 2002, §4.2),
    over w: 2 * step^2 * eps / w covers it, so the mean stays at most the
    threshold. It is 3e-11 for the benchmark's 0.2 s patterns at 44.1 kHz.
    """
    return 1.0 + _BOUND_MARGIN + 2.0 * step * step * np.finfo(float).eps / w


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


class _Layout(NamedTuple):
    """The overlap-save layout of an n-sample take for patterns of at most m_max samples.

    Block b is s[b*step : b*step + nfft], zeros past the take's end, with
    nfft = `_fft_length(n, m_max)`. A pattern of m samples, its rfft
    zero-padded to nfft, correlates circularly with a block exactly for
    its first nfft - m + 1 >= step = nfft - m_max + 1 lags: lags b*step ..
    (b+1)*step - 1. Blocks run `batch` at a time, so that the `slots`
    batches in flight, one per worker, share _BATCH_SAMPLES; the one or
    two blocks that reach past the take's end are batched apart from
    those inside it, so that `_segments` copies theirs alone.
    """

    n: int
    m_max: int
    nfft: int
    step: int
    blocks: int
    inside: int  # blocks that end inside the take
    batch: int  # blocks per batch; the last of those inside the take, and of those past it, may have fewer
    batches: int
    slots: int  # batches in flight, each in its own set of buffers

    @classmethod
    def of(cls, n: int, m_max: int) -> _Layout:
        nfft = _fft_length(n, m_max)
        step = nfft - m_max + 1
        blocks = -(-n // step)
        inside = min(max((n - nfft) // step + 1, 0), blocks)
        batch = max(1, _BATCH_SAMPLES // (nfft * _WORKERS))
        batches = -(-inside // batch) + -(-(blocks - inside) // batch)
        return cls(n, m_max, nfft, step, blocks, inside, batch, batches, min(_WORKERS, batches))

    def span(self, i: int) -> tuple[int, int]:
        """Batch i's first lag and number of blocks."""
        inner = -(-self.inside // self.batch)  # batches of blocks inside the take
        first, end = (i * self.batch, self.inside) if i < inner else (self.inside + (i - inner) * self.batch, self.blocks)
        return first * self.step, min(self.batch, end - first)

    def cut(self, seg: np.ndarray) -> np.ndarray:
        """The k overlap-save blocks of a batch's segment (`_segments`): a (k, nfft) view."""
        return np.lib.stride_tricks.sliding_window_view(seg, self.nfft)[:: self.step]


def _segments(s: np.ndarray, layout: _Layout) -> Iterator[np.ndarray]:
    """Each batch's samples, in batch order: the k*step + m_max - 1 from its first lag that its k blocks read.

    Past the take's end they are zeros, and consecutive segments overlap
    by m_max - 1 samples. This is the engine's one read of the take. Only
    the last batch's blocks reach past the end, so only its segment is a
    copy: one or two blocks' samples, zero-padded.
    """
    for i in range(layout.batches):
        lo, k = layout.span(i)
        length = k * layout.step + layout.m_max - 1
        seg = s[lo : lo + length]
        yield seg if seg.size == length else np.concatenate((seg, np.zeros(length - seg.size)))


def _prefix_sums(rows: np.ndarray, op: Callable, scratch: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per row, [0, cumsum(op(row))], anchored at the row's first value: a (k, length + 1) array, written to `out` if given.

    op(rows) goes to `scratch`, which may be `rows` itself, and each row's
    cumsum reads it and writes `out`. Only this form lets the workers sum
    their batches at the same time: on two threads (numpy 2.4), 1-D
    cumsums whose output is not their input ran 1.7 times as fast as on
    one, and 2-D or in-place ones no faster, as they hold the GIL.
    """
    prefix = np.empty((rows.shape[0], rows.shape[1] + 1)) if out is None else out
    op(rows, out=scratch)
    prefix[:, 0] = 0.0
    for values, sums in zip(scratch, prefix):
        np.cumsum(values, out=sums[1:])
    return prefix


def _block_prefix(blocks: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Per overlap-save block (`_Layout.cut`), the prefix sums of its squares: a (k, nfft + 1) array.

    Row b is [0, cumsum(block_b^2)], anchored at the block's first
    sample, so each lag's window energy carries the rounding of at most
    one block's energy, whatever the take's length (Higham 2002, ch. 4),
    and depends only on (n, m_max), not on the batches. Zeros past the
    take's end add +0.0, so a window that runs past it sums exactly what
    is left of it. The box means take the same prefix sums of each
    block's rectified lags (`_Box`).

    Unlike the ring's buffers, the array is allocated per batch, in the
    worker that runs it. Freeing one per batch lets glibc raise its mmap
    threshold early in a process's first engine call; with one buffer per
    slot held for the whole call, pocketfft's scratch (about 1 MB per
    2^15-point FFT call) was mapped and unmapped on every FFT of that
    call: 27,900 page faults against 9,500 on the benchmark's
    impulse_dense take, and the same peak RSS either way.
    """
    return _prefix_sums(blocks, np.square, np.empty(blocks.shape) if scratch is None else scratch)


def _box_at(prefix: np.ndarray, first: int, lags: np.ndarray, n: int, w: int) -> np.ndarray:
    """The box means of `lags` one by one, from the prefix rows (`_prefix_sums`) of the blocks from block `first` on that their windows lie in.

    The index form of `_box_means`'s arithmetic, for the at most w - 1
    lags at either end of the take whose windows it clamps.
    """
    step = prefix.shape[1] - 1
    lead = (w - 1) // 2
    starts = np.maximum(lags - lead, 0)
    ends = np.minimum(lags - lead + w, n)
    b0, t0 = np.divmod(starts, step)
    b1, t1 = np.divmod(ends - 1, step)
    b0 -= first
    b1 -= first
    t1 += 1
    head = prefix[b1, t1]
    sums = np.where(b0 == b1, head - prefix[b0, t0], (prefix[b0, step] - prefix[b0, t0]) + head)
    return sums / (ends - starts)


def _crossing(tails: np.ndarray, heads: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """The sums of the w - 1 windows of w lags that cross from a block into the next, from the prefix rows of both.

    A window that starts at lag t of the first block, t = step - w + 1 ..
    step - 1, sums to the first's tail, tails[step] - tails[t], plus the
    next's head, heads[t + w - step]. Rows may be stacked, one pair per
    edge; the sums are written to `out`.
    """
    step = tails.shape[-1] - 1
    np.subtract(tails[..., step:], tails[..., step - w + 1 : step], out=out)
    return np.add(out, heads[..., 1:w], out=out)


def _box_means(prefix: np.ndarray, first: int, n: int, w: int, out: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The box means of the lags whose windows lie in consecutive blocks, as (first lag, means) pieces in lag order.

    `prefix` holds the blocks' prefix rows (`_prefix_sums`, (c, step +
    1)), from block `first` on, so block b holds lags b*step ..
    (b+1)*step - 1. Lag i's window is [i - lead, i - lead + w) clamped
    to [0, n), lead = (w - 1) // 2, and its mean the window's sum over
    its length. With w <= step, a window touches at most two blocks: one
    inside block b sums to one difference of b's row, and one that
    crosses from block b into b + 1 to b's tail, row_b[step] - row_b[t],
    plus b + 1's head. So each mean carries the rounding of at most two
    blocks' sums, whatever the take's length, and its bits depend only
    on the blocks, not on how they are batched. The unclamped windows'
    sums are slices, written to `out`, (c, step), and divided there; the
    at most w - 1 clamped ones at either end of the take are indexed one
    by one (`_box_at`).
    """
    c, step = prefix.shape[0], prefix.shape[1] - 1
    lead = (w - 1) // 2
    lo = 0 if first == 0 else min(first * step + lead, n)
    hi = max(n if (first + c) * step >= n else (first + c) * step + lead - w + 1, lo)
    a = min(max(lo, lead), hi)  # the first lag whose window starts inside the take
    b = max(min(hi, n - w + lead + 1), a)  # the first lag whose window runs past its end
    pieces = []
    if lo < a:
        pieces.append((lo, _box_at(prefix, first, np.arange(lo, a), n, w)))
    if a < b:
        inner = step - w + 1  # windows from each block's first lag on that end inside it
        np.subtract(prefix[:, w:], prefix[:, :inner], out=out[:, :inner])
        _crossing(prefix[:-1], prefix[1:], w, out[:-1, inner:])
        base = first * step + lead  # the lag whose window starts at the first block's first lag
        means = out.reshape(-1)[a - base : b - base]
        np.divide(means, w, out=means)
        pieces.append((a, means))
    if b < hi:
        pieces.append((b, _box_at(prefix, first, np.arange(b, hi), n, w)))
    return pieces


def _window_energy(prefix: np.ndarray, m: int, step: int, out: np.ndarray) -> np.ndarray:
    """max(sum of s^2 under each lag's m-sample window, EPS_ENERGY), written to `out`: step lags per block of `prefix`."""
    np.subtract(prefix[:, m : m + step], prefix[:, :step], out=out)
    np.maximum(out, EPS_ENERGY, out=out)
    return out


def _ring(count: int, slots: int, prepare: Callable, run: Callable, finish: Callable) -> None:
    """Run batches 0 .. count - 1 on `slots` threads, the calling one among them, and finish them in order.

    `prepare(i)` returns batch i's state, and `finish(state)` takes it in
    batch order, both on the calling thread; `run(state)` runs on a helper
    thread or the calling one (numpy's FFTs release the GIL). Batch
    i + slots is prepared only after batch i is finished, so batch i may
    own slot i % slots of a ring of buffers. Waiting for the oldest batch,
    the calling thread runs the oldest batch no helper has started, as the
    helpers do. A helper's error is re-raised here, and no helper is left
    running when the call returns or raises. With one slot no thread starts.
    """
    pending = deque()  # [state, its future, None once run], in batch order

    def settle(entry: list) -> None:
        """Finish the oldest batch; until it has run, run the oldest batches no helper has started."""
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

    # With one slot, each future is one no thread starts, so `settle` claims it and runs its batch.
    with (ThreadPoolExecutor(slots - 1) if slots > 1 else nullcontext()) as pool:
        for i in range(count):
            if len(pending) == slots:  # batch i takes the oldest batch's slot
                settle(pending.popleft())
            state = prepare(i)
            pending.append([state, Future() if pool is None else pool.submit(run, state)])
        while pending:
            settle(pending.popleft())


class _Batch(NamedTuple):
    """One batch of blocks in flight, from `prepare` to `finish` in `_sliding_dot`."""

    slot: int  # its set of buffers in the ring
    lo: int  # its first lag
    k: int  # its number of blocks
    samples: np.ndarray  # its segment of the take (`_segments`)
    found: list  # per lane, what `run` found in its live rows: lags above the threshold (`_above`), box means (`_Box.found`)


class _Lane(NamedTuple):
    """One pattern's part of an engine call, fixed for the call; the lists hold one buffer per slot.

    A batch's lags go to dead memory, the product spectrum its inverse
    FFT has read, unless a sink needs them past the batch: then the last
    pattern's stay in the forward spectrum it multiplied in place, and
    each other pattern's go to its own row buffer.
    """

    spec: np.ndarray  # conj(rfft(pattern, nfft))
    m: int
    energy: Optional[float]  # None for raw lags
    column: Optional[int]  # its column in the screen's result; None when not screened
    sink: Optional[Callable[[np.ndarray], None]]
    picker: Optional[_Peaks]  # what picks its peaks; None when they are not picked
    box: Optional[_Box]  # what takes its box means; None when they are not taken
    products: list  # where its product spectra go
    lags: list  # where its lags go, step per block, flat


def _sliding_dot(
    s: np.ndarray,
    patterns: Sequence[np.ndarray],
    sinks: Sequence[Optional[Callable[[np.ndarray], None]]],
    energies: Optional[Sequence[float]] = None,
    peaks_above: Optional[float] = None,
    pickers: Optional[Sequence[Optional[_Peaks]]] = None,
    boxes: Optional[Sequence[Optional[_Box]]] = None,
) -> None:
    """sum_u s[tau+u] * p[u] for tau = 0..len(s)-1 and each pattern p, s zero-padded at the tail.

    `patterns` is a group of patterns of any lengths (1-D arrays, or a 2-D
    array) sharing one `_Layout`, with one entry of `sinks` each. Given
    `energies`, one per pattern, each lag is divided by sqrt(take energy *
    pattern energy), the take energy from its block's prefix sum
    (`_block_prefix`; `window_energy(s, m)`'s bit for bit when m is the
    group's longest length), and clipped to [-1, 1]. sinks[j], if not
    None, gets pattern j's lags on the calling thread, batch by batch in
    lag order, and may overwrite them. Given `peaks_above` (normalized
    only) and pickers[j], a `_Peaks`, pattern j's lags above it are
    pushed into pickers[j] batch by batch on the calling thread. Given
    boxes[j], a `_Box`, the workers take pattern j's box means and their
    runs block by block, and it takes them batch by batch on the calling
    thread. Such a pattern without a sink is screened (see the module
    docstring).
    """
    group = list(patterns)
    g = len(group)
    lay = _Layout.of(s.size, max(row.size for row in group))
    n, nfft, step, half = lay.n, lay.nfft, lay.step, lay.nfft // 2 + 1
    most = min(lay.batch, lay.blocks)  # blocks in the largest batch

    def buffers(shape, dtype=float) -> list:
        """One buffer per slot, allocated on the calling thread: a helper's would stay in its malloc arena."""
        return [np.empty(shape, dtype=dtype) for _ in range(lay.slots)]

    specs, full = buffers((most, half), complex), buffers((most, nfft))  # forward spectra, inverse FFTs
    shared = buffers((most, half), complex) if g > 1 else None  # the product spectra of all but the last pattern
    lanes: list[_Lane] = []
    limits, margins = [], []  # per screened lane, the level its lags are decided at and its bound's margin
    for j, (pattern, sink, picker, box) in enumerate(zip(group, sinks, pickers or [None] * g, boxes or [None] * g)):
        spec = np.conj(np.fft.rfft(pattern, nfft))
        products = specs if j == g - 1 else shared  # the last pattern multiplies in place
        lags = buffers(most * step) if sink is not None and j < g - 1 else [p.view(float).reshape(-1) for p in products]
        level = box.threshold if box is not None else peaks_above if picker is not None else None
        gated = (energies is not None and sink is None and level is not None and level > 0
                 and _noise_ratio(spec, nfft, pattern.size, level) < _NOISE_GATE)
        column = len(limits) if gated else None
        if gated:
            limits.append(level)
            margins.append(1.0 + _BOUND_MARGIN if box is None else _box_margin(step, box.w))
        energy = None if energies is None else energies[j]
        lanes.append(_Lane(spec, pattern.size, energy, column, sink, picker, box, products, lags))
    screened = [lane for lane in lanes if lane.column is not None]
    if screened:
        weights = np.stack([_bound_weights(lane.spec, nfft) for lane in screened])
        screened_energies = np.array([lane.energy for lane in screened])
        columns_of = {lane.m: [other.column for other in screened if other.m == lane.m] for lane in screened}
        limits, margins = np.array(limits), np.array(margins)
    segments = _segments(s, lay)

    def prepare(i: int) -> _Batch:
        return _Batch(i % lay.slots, *lay.span(i), next(segments), [])

    def screen(batch: _Batch, prefix: np.ndarray) -> np.ndarray:
        """(k, screened lanes) bools: True where a block is dead (see the module docstring).

        The limits are rounded as each lag's denominator is, so each is at
        most every one of them; the last block's lags past the take only
        lower its limit. They and |S| are computed in the slot's
        inverse-FFT output buffer, which no pattern of the batch has written yet.
        """
        k, flat = batch.k, full[batch.slot].reshape(-1)
        floors = np.empty((k, len(screened)))
        for m, cols in columns_of.items():
            floors[:, cols] = _window_energy(prefix, m, step, flat[: k * step].reshape(k, step)).min(axis=1)[:, None]
        mags = flat[: k * half].reshape(k, half)
        np.absolute(specs[batch.slot][:k], out=mags)
        bounds = np.einsum("kf,jf->kj", mags, weights)  # no BLAS: its threads would contend with the workers
        np.multiply(floors, screened_energies, out=floors)  # as each lag's denominator is rounded
        np.sqrt(floors, out=floors)
        return bounds * margins <= floors * limits

    def run(batch: _Batch) -> None:
        """The forward FFT, then each lane's products, inverse FFT, normalization and decisions, for its live blocks."""
        slot, lo, k = batch.slot, batch.lo, batch.k
        first = lo // step  # the batch's first block
        spec, out = specs[slot], full[slot]
        blocks = lay.cut(batch.samples)
        np.fft.rfft(blocks, axis=1, out=spec[:k])
        prefix = None if energies is None else _block_prefix(blocks, out[:k])  # the squares go to dead memory
        dead = screen(batch, prefix) if screened else None
        for lane in lanes:
            product = lane.products[slot]
            alive = np.ones(k, dtype=bool) if lane.column is None else ~dead[:, lane.column]
            if lane.box is not None:  # a box mean reads the blocks beside its own; one in another batch counts as live
                alive |= np.r_[first > 0, alive[:-1]] | np.r_[alive[1:], first + k < lay.blocks]
            live = np.flatnonzero(alive)
            if live.size < k:  # the live blocks' spectra, moved to the front (b >= r, so in place too)
                for r, b in enumerate(live):
                    product[r] = spec[b]
            if live.size:
                source = spec if live.size == k else product
                np.multiply(source[: live.size], lane.spec, out=product[: live.size])
                np.fft.irfft(product[: live.size], nfft, axis=1, out=out[: live.size])
            lags = lane.lags[slot][: k * step].reshape(k, step)
            found = []  # per run of live blocks, what it found
            r = 0  # the row of `out` and of `lags` that holds the run's first block
            for b, count in _live_runs(alive):
                rows = lags[r : r + count]
                if lane.energy is None:
                    rows[...] = out[r : r + count, :step]
                else:
                    denom = _window_energy(prefix[b : b + count], lane.m, step, rows)
                    np.multiply(denom, lane.energy, out=denom)
                    np.sqrt(denom, out=denom)
                    np.divide(out[r : r + count, :step], rows, out=rows)
                    np.clip(rows, -1.0, 1.0, out=rows)
                if lane.picker is not None:
                    start = lo + b * step
                    found.append(_above(rows.reshape(-1)[: n - start], peaks_above, start))
                if lane.box is not None:  # the inverse FFTs are dead once normalized, and so are the lags once summed, unless a sink reads them
                    means = rows if lane.sink is None else np.empty_like(rows)
                    found.append(lane.box.found(rows, first + b, means, out[r : r + count, : step + 1]))
                r += count
            if lane.picker is not None:
                found = [np.concatenate(part) for part in zip(*found)] if found else _NOTHING_ABOVE
            batch.found.append(found)

    def finish(batch: _Batch) -> None:
        """Hand the batch's lags inside the take to the sinks, and what its rows found to the pickers and the boxes."""
        stop = min(batch.lo + batch.k * step, n)
        for lane, found in zip(lanes, batch.found):
            if lane.sink is not None:
                lane.sink(lane.lags[batch.slot][: stop - batch.lo])
            if lane.picker is not None:
                lane.picker.push(*found, stop)
            if lane.box is not None:
                lane.box.push(batch.lo // step, found)

    _ring(lay.batches, lay.slots, prepare, run, finish)


def _whole(s: np.ndarray, patterns: Sequence[np.ndarray], energies: Optional[Sequence[float]] = None) -> np.ndarray:
    """`_sliding_dot`'s lags of every pattern over the whole take, shape (g, len(s)), each row filled by its sink."""
    out = np.empty((len(patterns), s.size))
    filled = [0] * len(patterns)  # lags each row holds so far

    def sink(j: int, lags: np.ndarray) -> None:
        out[j, filled[j] : filled[j] + lags.size] = lags
        filled[j] += lags.size

    _sliding_dot(s, patterns, [partial(sink, j) for j in range(len(patterns))], energies)
    return out


def _fresh_trace(values: np.ndarray, sample_rate_hz: int) -> CorrelationTrace:
    """A trace over `values`, an array just computed here that nothing else refers to: frozen, not copied."""
    values.setflags(write=False)
    return CorrelationTrace(values, sample_rate_hz)


def raw_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Unnormalized cross-correlation, the discretized overlap integral."""
    _check_pair(s, p)
    values = _whole(s.samples, [p.samples])[0]
    values /= s.sample_rate_hz
    return _fresh_trace(values, s.sample_rate_hz)


def window_energy(s: AudioClip, m: int) -> np.ndarray:
    """max(sum of s^2 under each lag's m-sample window, EPS_ENERGY), read-only.

    The take's half of the normalized correlation's denominator: the
    engine's per-block code (`_block_prefix`) over a lone pattern's
    layout, batch by batch. It depends on the pattern only through its length.
    """
    lay = _Layout.of(len(s), m)
    out = np.empty((lay.blocks, lay.step))  # whole blocks of lags; those past the take are cut off
    for i, seg in enumerate(_segments(s.samples, lay)):
        first = lay.span(i)[0] // lay.step
        blocks = lay.cut(seg)
        _window_energy(_block_prefix(blocks), m, lay.step, out[first : first + blocks.shape[0]])
    out = out.reshape(-1)[: len(s)]
    out.setflags(write=False)
    return out


def normalized_cross_correlate(s: AudioClip, p: AudioClip) -> CorrelationTrace:
    """Windowed normalized cross-correlation, bounded in [-1, 1].

    Each lag divides the sliding dot product by the geometric mean of the
    pattern energy and the sequence energy inside the aligned window
    (`window_energy`), so the score is invariant to how loud the instance
    was voiced.
    """
    values = _whole(s.samples, [p.samples], _check_group(s, [p]))[0]
    return _fresh_trace(values, s.sample_rate_hz)


def energy(x: AudioClip) -> float:
    """Discretized integral of the squared signal (dimensionless * seconds)."""
    return sum_of_squares(x.samples) / x.sample_rate_hz


def moving_average(trace: CorrelationTrace, window_s: float, rectify: bool = False) -> CorrelationTrace:
    """Centered boxcar mean; partial windows at the edges average what exists.

    The box means a continuous pattern's lags get in `scan_group`, here
    over the layout of a lone pattern of the window's length: the same
    per-block code (`_Box`), batch by batch. With `rectify`, the mean is
    of |values|, rectified straight into each block's prefix sum, so no
    rectified copy of the trace is made.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    n, rate = len(trace), trace.sample_rate_hz
    w = _box_width(window_s, rate)
    if w <= 1 or n == 0:  # each window is its lag
        return _fresh_trace(np.absolute(trace.values), rate) if rectify else trace
    lay = _Layout.of(n, w)
    out = np.empty(n)
    filled = 0

    def sink(means: np.ndarray) -> None:
        nonlocal filled
        out[filled : filled + means.size] = means
        filled += means.size

    box = _Box(n, w, math.inf, sink, np.absolute if rectify else np.positive)
    for i in range(lay.batches):
        lo, k = lay.span(i)
        rows = np.empty((k, lay.step))  # the batch's lags, zeros past the trace; then its means
        inside = min(n - lo, rows.size)
        rows.reshape(-1)[:inside] = trace.values[lo : lo + inside]
        rows.reshape(-1)[inside:] = 0.0
        box.push(lo // lay.step, [box.found(rows, lo // lay.step, rows)])
    return _fresh_trace(out, rate)


def _live_runs(alive: np.ndarray) -> list[tuple[int, int]]:
    """(first block, number of blocks) of each maximal run of live blocks."""
    edges = np.flatnonzero(np.diff(np.r_[False, alive, False])).tolist()  # where runs start and stop, alternately
    return [(lo, hi - lo) for lo, hi in zip(edges[::2], edges[1::2])]


def _above(v: np.ndarray, threshold: float, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The lags of the row `v` of a trace, which starts at lag `lo`, whose values are not at most `threshold`, and copies of those values.

    These are what `_Peaks` reads. A NaN is among them: no plateau is
    above it, and beside one no plateau is a maximum.
    """
    at = np.flatnonzero(~(v <= threshold))
    return at + lo, v[at]


_NOTHING_ABOVE = _above(np.empty(0), 0.0)


class _Peaks:
    """The strict local maxima above a threshold of an n-lag trace, picked from the lags above it, pushed in lag order.

    `push(lags, values, stop)` takes the lags from the last push's stop (0
    at first) to `stop`, exclusive, that `_above` lists, with their
    values. Every other lag there is at most the threshold, so below each
    listed value. A plateau, a run of consecutive listed lags of equal
    values, is a maximum when it has both neighbours in the trace and
    both are lower; it reports its center lag (the floor of the
    midpoint). A plateau that ends at a push's stop waits for the next
    push. Between pushes only that plateau is carried, as scalars: its
    first and last lags, its value and whether its left neighbour is
    lower.
    """

    def __init__(self, n: int):
        self.n = n
        self.open: Optional[tuple[int, int, float, bool]] = None  # the plateau that ends at the last stop - 1
        self.lags: list[np.ndarray] = []  # the centers and values of the maxima found, per push that found any
        self.values: list[np.ndarray] = []

    def push(self, lags: np.ndarray, values: np.ndarray, stop: int) -> None:
        carried = self.open
        if carried is not None:
            lags, values = np.r_[carried[1], lags], np.r_[carried[2], values]
        self.open = None
        if not lags.size:
            return
        joined = lags[1:] == lags[:-1] + 1
        # Each listed lag's neighbours' values: -inf for an unlisted lag, which is lower than every listed
        # value but NaN, and NaN past either end of the trace, which is lower than none.
        unlisted = -np.inf
        before = np.r_[np.nan if lags[0] == 0 else unlisted, np.where(joined, values[:-1], unlisted)]
        after = np.r_[np.where(joined, values[1:], unlisted), np.nan if lags[-1] == self.n - 1 else unlisted]
        starts = np.flatnonzero(np.r_[True, ~joined | (values[1:] != values[:-1])])
        ends = np.r_[starts[1:], lags.size] - 1
        firsts, heights = lags[starts], values[starts]
        left, right = before[starts] < heights, after[ends] < heights
        if carried is not None:  # the first plateau goes on from the carried one
            firsts[0], left[0] = carried[0], carried[3]
        if lags[-1] == stop - 1 and stop < self.n:  # the last plateau may go on past `stop`
            self.open = (int(firsts[-1]), int(lags[-1]), float(heights[-1]), bool(left[-1]))
            right[-1] = False
        keep = left & right
        if keep.any():
            self.lags.append((firsts[keep] + lags[ends[keep]]) // 2)
            self.values.append(heights[keep])

    def found(self) -> tuple[np.ndarray, np.ndarray]:
        """The maxima's center lags (int64) and values (float64) so far, in lag order."""
        return np.concatenate([np.empty(0, dtype=np.int64), *self.lags]), np.concatenate([np.empty(0), *self.values])


def find_local_maxima(trace: CorrelationTrace, threshold: float) -> list[tuple[int, float]]:
    """Lags of strict local maxima above `threshold`, in increasing order.

    A plateau counts once and reports its center sample (floor of the
    midpoint for even plateaus). Runs touching either end of the trace are
    never maxima, so a monotone trace yields nothing. This is the engine's
    picker (`_Peaks`) over the trace pushed whole.
    """
    peaks = _Peaks(len(trace))
    peaks.push(*_above(trace.values, threshold), len(trace))
    lags, values = peaks.found()
    return list(zip(lags.tolist(), values.tolist()))


class Runs(NamedTuple):
    """The maximal runs of a trace above a threshold: first and last lag (inclusive) and largest value of each."""

    starts: np.ndarray
    ends: np.ndarray
    peaks: np.ndarray


_NO_RUNS = Runs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


def _row_runs(v: np.ndarray, threshold: float, lo: int) -> Runs:
    """The runs above `threshold` of the row `v` of a trace, which starts at lag `lo`."""
    above = np.flatnonzero(v > threshold)
    if not above.size:
        return _NO_RUNS
    cuts = np.flatnonzero(np.diff(above) > 1) + 1  # where a new run starts among `above`
    firsts = np.concatenate(([0], cuts))
    lasts = np.concatenate((cuts - 1, [above.size - 1]))
    return Runs(above[firsts] + lo, above[lasts] + lo, np.maximum.reduceat(v[above], firsts))


def _stitch_runs(rows: Sequence[Runs]) -> Runs:
    """The runs of the trace cut into `rows`, given in lag order.

    Runs of one row never touch, so a run that ends on the lag before
    the next one's start crossed a row edge: the two are one run.
    """
    starts, ends, peaks = (np.concatenate(column) for column in zip(*rows, _NO_RUNS))
    if not starts.size:
        return Runs(starts, ends, peaks)
    firsts = np.flatnonzero(np.concatenate(([True], starts[1:] != ends[:-1] + 1)))
    lasts = np.concatenate((firsts[1:] - 1, [starts.size - 1]))
    return Runs(starts[firsts], ends[lasts], np.maximum.reduceat(peaks, firsts))


class _Box:
    """A continuous pattern's box means over w lags of its n, and their runs above `threshold`, block by block.

    The workers call `found` on each run of consecutive blocks of a batch
    whose lags they computed: it takes each block's prefix sum of the
    lags, rectified by `op` (`_prefix_sums`), and from them the means of
    the windows that lie in those blocks (`_box_means`) and their runs
    (`_row_runs`). The calling thread pushes each batch's, in batch
    order: `push` takes the w - 1 windows across the batch's first edge
    from the prefix rows of the blocks on either side of it (`_crossing`),
    hands every piece of means, in lag order, to `record` if given, and
    keeps the runs, which `decided` stitches. So the calling thread holds
    one prefix row between batches, and every mean is the same bit for
    bit however the blocks are batched.

    A screened pattern computes a block when it or a neighbour is live,
    and the first and last block of every batch, whose neighbour in
    another batch the worker cannot see; a window that touches a block
    not computed touches only dead ones, and its mean is at most the
    threshold (`_box_margin`), so it is not taken.
    """

    def __init__(self, n: int, w: int, threshold: float, record: Optional[Callable] = None, op: Callable = np.absolute):
        self.n, self.w, self.threshold, self.record, self.op = n, w, threshold, record, op
        self.tail: Optional[np.ndarray] = None  # the prefix row of the last block pushed
        self.runs: list[Runs] = []  # the runs of the means pushed, piece by piece

    def found(self, rows: np.ndarray, first: int, out: np.ndarray, sums: Optional[np.ndarray] = None) -> tuple:
        """For the lags `rows` (c, step) of blocks first .. first + c - 1: (means pieces, their runs, first and last prefix rows).

        The rectified lags and then the means are written to `out`, which
        may be `rows` itself, and the prefix sums to `sums`, (c, step + 1),
        if given.
        """
        if self.w <= 1:  # each window is its lag
            self.op(rows, out=out)
            lo = first * rows.shape[1]
            pieces, head, tail = [(lo, out.reshape(-1)[: self.n - lo])], None, None
        else:
            prefix = _prefix_sums(rows, self.op, out, sums)
            pieces = _box_means(prefix, first, self.n, self.w, out)
            head, tail = prefix[0].copy(), prefix[-1].copy()
        return pieces, self._runs(pieces), head, tail

    def _runs(self, pieces: list) -> list[Runs]:
        return [_row_runs(means, self.threshold, lo) for lo, means in pieces]

    def push(self, first: int, found: list) -> None:
        """Take a batch from block `first` on: what `found` gave for each of its runs of computed blocks, in block order."""
        for j, (pieces, runs, head, tail) in enumerate(found):
            if j == 0 and first > 0 and self.w > 1:  # the batch's first block is computed: see above
                edge = [self._edge(first, head)]
                pieces, runs = edge + pieces, self._runs(edge) + runs
            if self.record is not None:
                for _, means in pieces:
                    self.record(means)
            self.runs.extend(runs)
            self.tail = tail

    def _edge(self, first: int, head: np.ndarray) -> tuple[int, np.ndarray]:
        """The means of the w - 1 windows that cross from block first - 1 into block `first`, whose prefix row is `head`."""
        n, w = self.n, self.w
        step, lead = head.size - 1, (w - 1) // 2
        lo, hi = first * step + lead - w + 1, min(first * step + lead, n)
        b = min(hi, n - w + lead + 1)  # the first lag whose window runs past the take's end
        means = _crossing(self.tail, head, w, np.empty(w - 1))[: b - lo]
        np.divide(means, w, out=means)
        if b < hi:
            means = np.concatenate((means, _box_at(np.stack((self.tail, head)), first - 1, np.arange(b, hi), n, w)))
        return lo, means

    def decided(self) -> Runs:
        return _stitch_runs(self.runs)


def scan_group(
    s: AudioClip,
    impulses: Sequence[AudioClip],
    continuous: Sequence[AudioClip],
    threshold: float,
    continuous_threshold: float,
    record: Optional[Callable[[int, bool, np.ndarray], None]] = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[Runs]]:
    """The normalized cross-correlations of a dictionary's clips, of any lengths, decided in one engine call.

    This is the engine's one entry for a dictionary. Returns, per impulse
    clip, the peaks `find_local_maxima(normalized_cross_correlate(s,
    clip), threshold)` lists, as int64 lags and float64 values, and, per
    continuous clip, the `Runs` above `continuous_threshold` of its
    trace's rectified box means over `clip.duration_s`. The workers list
    an impulse clip's lags above the threshold, and one `_Peaks` per clip
    picks its peaks from them as they arrive; they take a continuous
    clip's box means per block, and one `_Box` per clip stitches them
    and their runs across batch edges.

    Given `record`, no clip is screened, and `record(j, averaged, values)`
    is called batch by batch in lag order with clip j's lags (`averaged`
    False; impulses count first) and a continuous clip's box means
    (True), valid only during the call; the peaks and runs are found as
    without it. With one length in the group, the lags are
    `normalized_cross_correlate`'s, and the box means `moving_average`'s,
    bit for bit. A shorter clip beside a longer one is cut into the
    longer one's blocks, numerator, window energy and box sums alike: it
    moves by a few ulps where its window holds sound, more at a
    near-silent window after loud samples.
    """
    clips = [*impulses, *continuous]
    if not clips:
        return [], []
    energies = _check_group(s, clips)
    n, rate = len(s), s.sample_rate_hz
    pickers = [_Peaks(n) for _ in impulses]
    boxes = [
        _Box(n, _box_width(clip.duration_s, rate), continuous_threshold, None if record is None else partial(record, j, True))
        for j, clip in enumerate(continuous, len(impulses))
    ]
    sinks = [None if record is None else partial(record, j, False) for j in range(len(clips))]
    _sliding_dot(s.samples, [clip.samples for clip in clips], sinks, energies, threshold,
                 pickers + [None] * len(continuous), [None] * len(impulses) + boxes)
    return [picker.found() for picker in pickers], [box.decided() for box in boxes]
