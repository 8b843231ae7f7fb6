import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundcue import (
    AudioClip,
    CorrelationTrace,
    DetectionError,
    energy,
    find_local_maxima,
    moving_average,
    normalized_cross_correlate,
    raw_cross_correlate,
    scan_group,
    window_energy,
)
from soundcue import correlate
from soundcue.correlate import EPS_ENERGY, _fft_length, _whole, sum_of_squares
from conftest import Recorder, reference_moving_average, reference_runs, reference_window_energy

SR = 8000
EPS = np.finfo(float).eps


def clip(values, sr=SR):
    return AudioClip(np.asarray(values, dtype=float), sr)


def direct_sliding_dot(s, p):
    """Brute-force oracle: sum_u s[tau+u] * p[u], s zero-padded at the tail."""
    n, m = len(s), len(p)
    out = np.zeros(n)
    for tau in range(n):
        avail = min(m, n - tau)
        out[tau] = np.dot(s[tau : tau + avail], p[:avail])
    return out


def direct_ncc(s, p):
    """Oracle of the normalized flavour: the direct numerator over the reference window energy.

    Energies come from the per-block prefix-sum formula (pinned bit for
    bit by TestReferenceEquality), not from per-window sums: a prefix-sum
    difference carries eps * (its block's energy so far) of rounding,
    which on a quiet sample under a one-sample pattern alone exceeds 1e-9
    of score (TestWindowEnergyRounding bounds it).
    """
    denom = np.sqrt(np.maximum(reference_window_energy(s, len(p)), EPS_ENERGY) * float(np.dot(p, p)))
    return np.clip(direct_sliding_dot(s, p) / denom, -1.0, 1.0)


def reference_local_maxima(values, threshold):
    """Run-length encodes the whole trace, then keeps interior runs above both neighbours and the threshold."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return []
    starts = np.concatenate(([0], np.flatnonzero(np.diff(v)) + 1))
    run_values = v[starts]
    if run_values.size < 3:
        return []
    ends = np.concatenate((starts[1:], [v.size]))  # exclusive
    interior = run_values[1:-1]
    keep = (interior > run_values[:-2]) & (interior > run_values[2:]) & (interior > threshold)
    picked = np.flatnonzero(keep) + 1
    centers = (starts[picked] + ends[picked] - 1) // 2
    return [(int(lag), float(val)) for lag, val in zip(centers, run_values[picked])]


PEAK_LEVELS = [-0.0, 0.0, 0.2, 0.5, 0.7, 0.9, 1.0, float("nan")]
# Traces built from runs of a few levels: plateaus everywhere, runs at both
# ends, and thresholds equal to run values.
plateau_traces = st.lists(
    st.tuples(st.one_of(st.sampled_from(PEAK_LEVELS), st.floats(-1.0, 1.0)), st.integers(1, 4)),
    max_size=16,
).map(lambda runs: [value for value, count in runs for _ in range(count)])


def assert_matches_direct(n, m, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1, 1, n)
    p = rng.uniform(-1, 1, m)
    raw = raw_cross_correlate(clip(s), clip(p)).values
    assert raw.shape == (n,)
    assert np.max(np.abs(raw - direct_sliding_dot(s, p) / SR)) < 1e-9
    ncc = normalized_cross_correlate(clip(s), clip(p)).values
    assert np.max(np.abs(ncc - direct_ncc(s, p))) < 1e-9


def block_step(m):
    """Lags one overlap-save block yields once the take spans several blocks."""
    return _fft_length(1 << 30, m) - m + 1


class TestRawCrossCorrelate:
    def test_delta_autocorrelation(self):
        s = np.zeros(16)
        s[0] = 1.0
        trace = raw_cross_correlate(clip(s), clip([1.0]))
        assert trace.values[0] == pytest.approx(1 / SR)
        assert np.max(np.abs(trace.values[1:])) < 1e-12

    def test_shifted_copy_peaks_at_delay(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-1, 1, 64)
        d = 37
        s = np.zeros(256)
        s[d : d + 64] = p
        trace = raw_cross_correlate(clip(s), clip(p))
        assert int(np.argmax(trace.values)) == d

    def test_fft_matches_direct_loop(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-1, 1, 1024)
        p = rng.uniform(-1, 1, 128)
        trace = raw_cross_correlate(clip(s), clip(p))
        oracle = direct_sliding_dot(s, p) / SR
        assert np.max(np.abs(trace.values - oracle)) < 1e-9

    def test_rate_mismatch(self):
        with pytest.raises(DetectionError):
            raw_cross_correlate(clip(np.zeros(8), 8000), clip([1.0], 44100))

    def test_empty_pattern(self):
        with pytest.raises(DetectionError):
            raw_cross_correlate(clip(np.zeros(8)), clip([]))

    def test_bilinear(self):
        rng = np.random.default_rng(5)
        s1, s2 = rng.uniform(-0.5, 0.5, (2, 200))
        p = rng.uniform(-1, 1, 32)
        a, b = 0.7, 0.25
        combined = raw_cross_correlate(clip(a * s1 + b * s2), clip(p)).values
        split = a * raw_cross_correlate(clip(s1), clip(p)).values + b * raw_cross_correlate(clip(s2), clip(p)).values
        assert np.max(np.abs(combined - split)) < 1e-9


class TestBlockEdges:
    """The blockwise engine against the direct oracle where blocks meet and end."""

    @pytest.mark.parametrize("m", [1, 5, 37])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_take_of_whole_blocks_plus_minus_one(self, m, k, delta):
        step = block_step(m)
        n = k * step + delta
        if n < m:
            pytest.skip("pattern longer than the take")
        if k > 1:
            assert _fft_length(n, m) - m + 1 == step  # k or k + 1 blocks, the last maybe one lag long
        assert_matches_direct(n, m, seed=n * 101 + m)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 333])
    def test_pattern_as_long_as_take(self, n):
        assert _fft_length(n, n) >= 2 * n - 1  # one block
        assert_matches_direct(n, n, seed=n)

    @pytest.mark.parametrize("n", [1, 9, 500, 1000])
    def test_one_sample_pattern(self, n):
        assert_matches_direct(n, 1, seed=n)

    @pytest.mark.parametrize("n, m", [(100, 13), (700, 90), (800, 128)])
    def test_take_shorter_than_eight_patterns_is_one_block(self, n, m):
        assert n < 8 * m and _fft_length(n, m) >= n + m - 1
        assert_matches_direct(n, m, seed=n + m)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1500),
        m_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_sizes_match_direct(self, n, m_frac, seed):
        m = 1 + int(m_frac * (n - 1))
        assert_matches_direct(n, m, seed)


class TestBlockLength:
    """The block rule: a power of two of at least 2^15 points and twice the longest pattern, never above one block for the take."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1 << 24), st.data())
    @example(1, None)  # a one-sample take and pattern: a one-point block
    @example(32768, None)
    def test_rule(self, n, data):
        m = 1 if data is None else data.draw(st.integers(1, n), label="m")
        nfft = _fft_length(n, m)
        whole = 1 << (n + m - 2).bit_length()  # the power of two >= n + m - 1: the take in one block
        assert nfft > 0 and nfft & (nfft - 1) == 0
        assert nfft <= whole
        assert nfft >= 2 * m or n + m - 1 == 1
        assert nfft >= 1 << 15 or nfft == whole  # a shorter block only when the take is shorter
        if nfft < whole:
            assert nfft == 1 << max(2 * m - 1, (1 << 15) - 1).bit_length()

    def test_lengths_of_the_benchmark_patterns(self):
        long_take = 120 * 44100
        assert correlate._MIN_BLOCK == 1 << 15
        assert [_fft_length(long_take, m) for m in (5292, 8820, 22050)] == [1 << 15, 1 << 15, 1 << 16]
        assert _fft_length(44100, 882) == 1 << 15 and _fft_length(1000, 5) == 1024


class TestLayoutAndSegments:
    """`_Layout` and `_segments`: blocks that cover the take, and batch segments that join into it."""

    @staticmethod
    def grid():
        """(n, m) pairs: a pattern as long as the take, n at a whole number of blocks and one off, and short takes."""
        cases = [(1, 1), (40, 40), (5000, 5000), (1000, 5), (9000, 300)]  # the last three cap nfft below 2^15
        for m in (1, 700, 20000):
            step = _fft_length(1 << 22, m) - m + 1  # the uncapped block's lags
            cases += [(blocks * step + d, m) for blocks in (2, 5) for d in (-1, 0, 1)]
        return cases

    @pytest.mark.parametrize("workers,budget", [(1, 1 << 19), (2, 1 << 16), (3, 1 << 19)])
    def test_blocks_cover_the_take_and_segments_join_into_it(self, workers, budget, monkeypatch):
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", budget)
        rng = np.random.default_rng(50 + workers)
        capped = 0
        for n, m in self.grid():
            lay = correlate._Layout.of(n, m)
            assert (lay.n, lay.m_max, lay.nfft, lay.step) == (n, m, _fft_length(n, m), _fft_length(n, m) - m + 1)
            assert lay.batch == max(1, budget // (lay.nfft * workers))
            assert (lay.blocks - 1) * lay.step < n <= lay.blocks * lay.step  # the blocks cover the take
            assert lay.inside == sum(b * lay.step + lay.nfft <= n for b in range(lay.blocks))  # blocks that end inside it
            assert lay.blocks - lay.inside <= 2  # the rest reach past its end
            assert lay.slots == min(workers, lay.batches)
            capped += lay.nfft < 1 << 15
            spans = [lay.span(i) for i in range(lay.batches)]
            cut = -(-lay.inside // lay.batch)  # the batches of blocks inside the take, then those past its end
            for part, blocks in ((spans[:cut], lay.inside), (spans[cut:], lay.blocks - lay.inside)):
                assert [k for _, k in part[:-1]] == [lay.batch] * (len(part) - 1) and sum(k for _, k in part) == blocks
            assert [lo for lo, _ in spans] == [sum(k for _, k in spans[:i]) * lay.step for i in range(lay.batches)]
            s = rng.uniform(-1, 1, n)
            segments = list(correlate._segments(s, lay))
            assert [seg.size for seg in segments] == [k * lay.step + m - 1 for _, k in spans]
            assert [np.shares_memory(seg, s) for seg in segments] == [i < cut for i in range(lay.batches)]
            for a, b in zip(segments, segments[1:]):
                assert np.array_equal(a[a.size - (m - 1) :], b[: m - 1])  # consecutive segments overlap by m - 1
            joined = np.concatenate([segments[0]] + [seg[m - 1 :] for seg in segments[1:]])
            assert joined.size == lay.blocks * lay.step + m - 1
            assert np.array_equal(joined, np.concatenate((s, np.zeros(joined.size - n))))
        assert capped >= 4


class TestRing:
    """`_ring`, the engine's one scheduler, on fake batches."""

    @staticmethod
    def fake(count, slots, fail_run=None, fail_finish=None, helper_first=False):
        """prepare/run/finish that log what the calling thread sees; `fail_*` raise at that batch."""
        log, runs, caller = [], [], threading.get_ident()
        helper_ran = threading.Event()

        def prepare(i):
            if helper_first and i == 1:
                assert helper_ran.wait(10)  # batch 0 is running on a helper
            log.append(("prepare", i))
            return [i]

        def run(state):
            on_helper = threading.get_ident() != caller
            runs.append((state[0], on_helper))
            if on_helper:
                helper_ran.set()
            time.sleep(0.001 * (state[0] % 3))
            if state[0] == fail_run or (fail_run == "helper" and on_helper):
                raise RuntimeError(f"run {state[0]}")
            state.append("ran")

        def finish(state):
            log.append(("finish", state))
            if state[0] == fail_finish:
                raise RuntimeError(f"finish {state[0]}")

        return (prepare, run, finish), log, runs

    @pytest.mark.parametrize("slots", [1, 2, 3, 6])  # 6: more threads than most CI hosts have CPUs
    def test_order_slot_reuse_and_states(self, slots, monkeypatch):
        started, real_start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real_start(t))
        count = 3 * slots + 2
        before, interval = threading.active_count(), sys.getswitchinterval()
        parts, log, runs = self.fake(count, slots)
        sys.setswitchinterval(1e-6)  # switch threads often, so a race would show
        try:
            correlate._ring(count, slots, *parts)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        finished = [state for event, state in log if event == "finish"]
        assert finished == [[i, "ran"] for i in range(count)]  # in batch order, each after its own run
        assert sorted(i for i, _ in runs) == list(range(count))  # each batch ran once
        order = [(event, state if event == "prepare" else state[0]) for event, state in log]
        for i in range(count - slots):
            assert order.index(("prepare", i + slots)) > order.index(("finish", i))  # its slot is free
        if slots == 1:
            assert started == [] and not any(on_helper for _, on_helper in runs)

    @pytest.mark.parametrize("slots", [2, 3])
    def test_helper_error_reaches_the_caller(self, slots):
        before = threading.active_count()
        parts, _, runs = self.fake(3 * slots + 2, slots, fail_run="helper", helper_first=True)
        with pytest.raises(RuntimeError, match="run"):
            correlate._ring(3 * slots + 2, slots, *parts)
        assert any(on_helper for _, on_helper in runs)
        assert threading.active_count() == before

    @pytest.mark.parametrize("slots", [1, 2, 3])
    @pytest.mark.parametrize("fail", ["run", "finish"])
    def test_error_in_run_or_finish_reaches_the_caller(self, slots, fail):
        before = threading.active_count()
        parts, log, _ = self.fake(3 * slots + 2, slots, **{f"fail_{fail}": slots})
        with pytest.raises(RuntimeError, match=fail):
            correlate._ring(3 * slots + 2, slots, *parts)
        assert threading.active_count() == before
        if fail == "finish":
            assert [state[0] for event, state in log if event == "finish"] == list(range(slots + 1))


def random_pair(n, m):
    rng = np.random.default_rng(n * 7 + m)
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)


def worker_traces(n, m, workers, monkeypatch, batch_blocks=6):
    """Raw and normalized traces on `workers` threads, with batches shrunk to batch_blocks // workers blocks."""
    s, p = map(clip, random_pair(n, m))
    monkeypatch.setattr(correlate, "_WORKERS", workers)
    monkeypatch.setattr(correlate, "_BATCH_SAMPLES", batch_blocks * _fft_length(n, m))
    return raw_cross_correlate(s, p).values, normalized_cross_correlate(s, p).values


class TestThreadedBatches:
    """Workers write disjoint rows, so every thread count gives the same bits."""

    @pytest.mark.parametrize("m", [1, 5, 37])
    @pytest.mark.parametrize("k", [1, 3, 6, 7, 12, 13])  # blocks; 6 per batch on one worker
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_bitwise_equal_on_any_number_of_workers(self, m, k, delta, monkeypatch):
        n = k * block_step(m) + delta
        raw1, ncc1 = worker_traces(n, m, 1, monkeypatch)
        for workers in (2, 3):
            raw, ncc = worker_traces(n, m, workers, monkeypatch)
            assert np.array_equal(raw, raw1) and np.array_equal(ncc, ncc1), workers
        assert np.max(np.abs(ncc1 - direct_ncc(*random_pair(n, m)))) < 1e-9

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        n, m = 40 * block_step(5) + 3, 5
        expected = worker_traces(n, m, 1, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = worker_traces(n, m, 8, monkeypatch, batch_blocks=16)  # 2 blocks per batch, 8 threads
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, m", [(100, 13), (800, 128), (9, 9), (1, 1)])
    def test_single_block(self, n, m, monkeypatch):
        assert _fft_length(n, m) >= n + m - 1
        traces = [worker_traces(n, m, workers, monkeypatch) for workers in (1, 2, 3)]
        assert all(np.array_equal(a, b) for t in traces[1:] for a, b in zip(t, traces[0]))

    def test_pool_only_for_several_batches(self, monkeypatch):
        started = []

        class SpyPool(correlate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(correlate, "ThreadPoolExecutor", SpyPool)
        worker_traces(50, 5, 3, monkeypatch)  # one block, one batch
        assert started == []
        worker_traces(12 * block_step(5), 5, 3, monkeypatch)  # 6 batches of 2 blocks
        assert started == [2, 2]  # raw and normalized: two helpers beside the calling thread
        started.clear()
        worker_traces(12 * block_step(5), 5, 1, monkeypatch)
        assert started == []


class TestTraceOwnership:
    def test_computed_trace_is_read_only_and_not_copied(self):
        rng = np.random.default_rng(25)
        trace = normalized_cross_correlate(clip(rng.uniform(-1, 1, 300)), clip(rng.uniform(-1, 1, 20)))
        assert not trace.values.flags.writeable
        assert trace.values.base is not None  # still the engine's output buffer, not a copy of it
        frozen = trace.values
        assert CorrelationTrace(frozen, SR).values is frozen

    def test_writable_input_is_copied(self):
        values = np.array([0.1, 0.2, 0.3])
        trace = CorrelationTrace(values, SR)
        values[0] = 0.9
        assert trace.values[0] == 0.1 and not trace.values.flags.writeable


class TestReferenceEquality:
    """The prefix-sum slices do the index-array formulas' arithmetic, so results are bit for bit equal."""

    def test_ncc_normalization_equals_index_array_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            m = int(rng.choice([1, n, int(rng.integers(1, n + 1))]))
            s = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, m)
            pattern_energy = sum_of_squares(p)
            denom = np.sqrt(np.maximum(reference_window_energy(s, m), EPS_ENERGY) * pattern_energy)
            expected = np.clip(_whole(s, [p])[0] / denom, -1.0, 1.0)
            assert np.array_equal(normalized_cross_correlate(clip(s), clip(p)).values, expected), (n, m)

    def test_moving_average_equals_index_array_formula(self):
        rng = np.random.default_rng(22)
        for trial in range(68):
            n = int(rng.integers(0, 2000) if trial < 60 else rng.integers(60000, 150000))  # one block, or several
            w = int(rng.choice([0, 1, 2, n, n + 1, 3 * n + 7, int(rng.integers(2, 2 * n + 3))] if trial < 60 else
                               [2, 3, int(rng.integers(4, 40000))]))
            values = rng.uniform(-1, 1, n)
            trace = CorrelationTrace(values, SR)
            got = moving_average(trace, max(w, 0.4) / SR).values
            assert np.array_equal(got, reference_moving_average(values, w)), (n, w)
            rectified = moving_average(trace, max(w, 0.4) / SR, rectify=True).values
            assert np.array_equal(rectified, reference_moving_average(np.abs(values), w)), (n, w)

    def test_window_energy_equals_index_array_formula(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            m = int(rng.choice([1, n, int(rng.integers(1, n + 1))]))
            s = rng.uniform(-1, 1, n) * rng.choice([1.0, 1e-9])  # quiet takes reach the clamp
            got = window_energy(clip(s), m)
            assert np.array_equal(got, np.maximum(reference_window_energy(s, m), EPS_ENERGY)), (n, m)
            assert not got.flags.writeable


class TestMemoryBound:
    """Peak allocation of one call on a 60 s, 44.1 kHz take stays within 4x the take's bytes."""

    @pytest.fixture(scope="class")
    def take(self):
        rng = np.random.default_rng(23)
        sr = 44100
        s = AudioClip(rng.normal(0.0, 0.1, 60 * sr), sr)
        p = AudioClip(rng.uniform(-1, 1, int(0.12 * sr)), sr)
        return s, p

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_normalized_cross_correlate(self, take):
        s, p = take
        assert self.peak_bytes(normalized_cross_correlate, s, p) <= 4 * s.samples.nbytes

    def test_moving_average(self, take):
        s, p = take
        trace = CorrelationTrace(np.abs(s.samples), s.sample_rate_hz)
        assert self.peak_bytes(moving_average, trace, p.duration_s) <= 4 * s.samples.nbytes

    def test_window_energy(self, take):
        s, p = take
        assert self.peak_bytes(window_energy, s, len(p)) <= 2.5 * s.samples.nbytes  # output + one batch's block prefix sums, no s*s

    def test_normalized_cross_correlate_with_shared_energy(self, take):
        # The output plus the blocks in flight: the energy is shared batch by batch, no
        # denominator or energy the length of the take.
        s, p = take
        assert self.peak_bytes(normalized_cross_correlate, s, p) <= 2 * s.samples.nbytes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_in_flight_share_one_budget(self, take, workers, monkeypatch):
        # Beside the output its `_Record` fills: every worker's spectra and block outputs, 2 x 8
        # bytes per sample of the shared batch budget, plus at most the padded copy of the tail.
        s, p = take
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        peak = self.peak_bytes(_whole, s.samples, [p.samples])
        assert peak - s.samples.nbytes <= 3 * 8 * correlate._BATCH_SAMPLES

    def test_only_the_blocks_past_the_end_are_copied(self, take, monkeypatch):
        """`_segments` copies the blocks that reach past the take's end, not a whole batch's segment.

        The take ends half a block into what would be a full last batch
        of 16 blocks. A `tracemalloc` snapshot taken as each batch is run
        shows what `_segments` holds: one block of samples in the last
        batch, where a padded copy of a whole batch's segment is 16 blocks.
        """
        s, p = take
        monkeypatch.setattr(correlate, "_WORKERS", 1)
        lay = correlate._Layout.of(len(s), len(p))
        n = (lay.blocks - 1) // lay.batch * lay.batch * lay.step - lay.step // 2
        lay = correlate._Layout.of(n, len(p))
        assert lay.blocks % lay.batch == 0 and lay.batch == 16 and lay.span(lay.batches - 1)[1] == 1
        code = correlate._segments.__code__
        lines = {line for _, _, line in code.co_lines() if line is not None}
        held, real_prefix = [], correlate._block_prefix

        def prefix_spy(*args, **kwargs):
            traces = tracemalloc.take_snapshot().statistics("lineno")
            held.append(sum(t.size for t in traces if t.traceback[0].filename == code.co_filename and t.traceback[0].lineno in lines))
            return real_prefix(*args, **kwargs)

        monkeypatch.setattr(correlate, "_block_prefix", prefix_spy)
        tracemalloc.start()
        try:
            normalized_cross_correlate(AudioClip(s.samples[:n], s.sample_rate_hz), p)
        finally:
            tracemalloc.stop()
        assert len(held) == lay.batches and max(held[:-1]) < 4096  # views, until the last batch
        whole_segment = (lay.batch * lay.step + len(p) - 1) * 8
        assert lay.nfft * 8 <= held[-1] <= 2 * lay.nfft * 8 + 4096 < whole_segment / 6, (held, whole_segment)

    @pytest.mark.parametrize("window_samples", [0.4, 5292])
    def test_rectified_moving_average(self, take, window_samples):
        # |values| goes straight into the prefix sum (one output only when w <= 1).
        s, _ = take
        trace = CorrelationTrace(s.samples, s.sample_rate_hz)
        budget = 2.5 if window_samples > 1 else 1.5
        peak = self.peak_bytes(moving_average, trace, window_samples / s.sample_rate_hz, True)
        assert peak <= budget * s.samples.nbytes


class TestNormalizedCrossCorrelate:
    def test_exact_copy_scores_one(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(-1, 1, 100)
        s = np.zeros(500)
        s[120:220] = p
        trace = normalized_cross_correlate(clip(s), clip(p))
        assert trace.values[120] == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(-1, 1, 100)
        s = np.zeros(500)
        s[200:300] = 0.25 * p
        trace = normalized_cross_correlate(clip(s), clip(p))
        assert trace.values[200] == pytest.approx(1.0, abs=1e-9)

    def test_sine_vs_cosine_orthogonal(self):
        t = np.arange(SR) / SR  # one second, whole number of periods
        s = clip(np.sin(2 * np.pi * 100 * t))
        p = clip(np.cos(2 * np.pi * 100 * t))
        trace = normalized_cross_correlate(s, p)
        assert abs(trace.values[0]) < 1e-6

    def test_bounded_for_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(8, 600))
            m = int(rng.integers(1, n + 1))
            s = clip(rng.uniform(-1, 1, n))
            p = clip(rng.uniform(-1, 1, m))
            values = normalized_cross_correlate(s, p).values
            assert np.all(values <= 1 + 1e-6) and np.all(values >= -1 - 1e-6)

    def test_zero_energy_pattern(self):
        with pytest.raises(DetectionError):
            normalized_cross_correlate(clip(np.ones(16)), clip(np.zeros(4)))


class TestEnergy:
    def test_zeros(self):
        assert energy(clip(np.zeros(100))) == 0.0

    def test_constant_one_second(self):
        for sr in (8000, 44100):
            assert energy(AudioClip(np.ones(sr), sr)) == pytest.approx(1.0)

    def test_unit_sine_one_second(self):
        t = np.arange(44100) / 44100
        assert energy(AudioClip(np.sin(2 * np.pi * 440 * t), 44100)) == pytest.approx(0.5, abs=1e-4)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 300)
        a = 0.37
        assert energy(clip(a * x)) == pytest.approx(a * a * energy(clip(x)), rel=1e-9)


class TestWindowEnergyRounding:
    """A window energy carries the rounding of at most one overlap-save block's energy, however long the take.

    A quiet second (rms 1e-3) follows loud noise (rms 0.5). Each window
    lying in the quiet second is compared with its exact sum (math.fsum
    of its squares): the relative error stays under 128 eps times the
    energy of the nfft samples ending at the window over the window's
    own, a bound set by the block length, not by the take's.
    """

    M = 5292  # 0.12 s at 44.1 kHz
    QUIET = 44100

    @pytest.fixture(scope="class", params=[1 << 20, 1 << 22], ids=["2^20", "2^22"])
    def take(self, request):
        loud = request.param
        rng = np.random.default_rng(loud)
        s = np.concatenate((np.clip(rng.normal(0.0, 0.5, loud), -1.0, 1.0), rng.normal(0.0, 1e-3, self.QUIET)))
        lags = np.unique(np.r_[loud : loud + 8, np.linspace(loud, loud + self.QUIET - self.M, 97).astype(int)])
        nfft = _fft_length(s.size, self.M)
        exact = np.array([math.fsum(np.square(s[i : i + self.M])) for i in lags])
        reach = np.array([math.fsum(np.square(s[i + self.M - nfft : i + self.M])) for i in lags])
        return s, lags, exact, 128 * EPS * reach / exact

    def test_window_energy(self, take):
        s, lags, exact, bound = take
        error = np.abs(window_energy(clip(s, 44100), self.M)[lags] - exact) / exact
        assert np.all(error <= bound), float(np.max(error / bound))

    def test_ncc_denominator(self, take):
        # With the same lags unnormalized, raw / ncc is the denominator sqrt(energy * pattern energy)
        # to a few eps, so each window energy it implies is measured with the engine's own rounding.
        s, lags, exact, bound = take
        p = np.random.default_rng(5).uniform(-1, 1, self.M)
        pattern_energy = sum_of_squares(p)
        raw, ncc = _whole(s, [p])[0][lags], _whole(s, [p], [pattern_energy])[0][lags]
        implied = np.square(raw / ncc) / pattern_energy
        error = np.abs(implied - exact) / exact
        assert np.all(error <= bound + 8 * EPS), float(np.max(error / (bound + 8 * EPS)))


class TestMovingAverage:
    def trace(self, values):
        return CorrelationTrace(np.asarray(values, dtype=float), SR)

    def test_subsample_window_is_identity(self):
        trace = self.trace([0.1, 0.5, 0.2])
        out = moving_average(trace, 0.4 / SR)
        assert out.values.tolist() == trace.values.tolist()

    def test_constant_preserved(self):
        trace = self.trace(np.full(50, 0.3))
        out = moving_average(trace, 7 / SR)
        assert np.max(np.abs(out.values - 0.3)) < 1e-12

    def test_spike_becomes_plateau(self):
        values = np.zeros(21)
        values[10] = 1.0
        out = moving_average(self.trace(values), 5 / SR)
        assert out.values[8:13] == pytest.approx([0.2] * 5)
        assert out.values[7] == 0.0 and out.values[13] == 0.0

    def test_mean_preserved_away_from_edges(self):
        rng = np.random.default_rng(10)
        values = np.zeros(200)
        values[50:150] = rng.uniform(-1, 1, 100)
        out = moving_average(self.trace(values), 9 / SR)
        assert np.sum(out.values) == pytest.approx(np.sum(values), abs=1e-9)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            moving_average(self.trace([0.0]), 0.0)


class TestFindLocalMaxima:
    def trace(self, values):
        return CorrelationTrace(np.asarray(values, dtype=float), SR)

    def test_monotone_is_empty(self):
        assert find_local_maxima(self.trace([0.0, 0.2, 0.4, 0.9]), 0.1) == []

    def test_simple_peak(self):
        assert find_local_maxima(self.trace([0.0, 0.8, 0.0]), 0.5) == [(1, 0.8)]

    def test_below_threshold_skipped(self):
        assert find_local_maxima(self.trace([0.0, 0.4, 0.0]), 0.5) == []

    def test_plateau_reports_center(self):
        assert find_local_maxima(self.trace([0.0, 0.9, 0.9, 0.9, 0.0]), 0.5) == [(2, 0.9)]

    def test_even_plateau_floors_midpoint(self):
        assert find_local_maxima(self.trace([0.0, 0.9, 0.9, 0.0]), 0.5) == [(1, 0.9)]

    def test_multiple_peaks_increasing_lags(self):
        got = find_local_maxima(self.trace([0.0, 0.7, 0.0, 0.9, 0.0, 0.6, 0.0]), 0.5)
        assert got == [(1, 0.7), (3, 0.9), (5, 0.6)]

    @settings(max_examples=400, deadline=None)
    @given(plateau_traces, st.one_of(st.sampled_from([-1.0, 0.0, 0.2, 0.5, 0.7, 0.9]), st.floats(-1.0, 1.0)))
    def test_matches_run_length_reference(self, values, threshold):
        got = find_local_maxima(self.trace(values), threshold)
        assert got == reference_local_maxima(values, threshold)
        assert all(type(lag) is int and type(value) is float for lag, value in got)


# Few levels, so plateaus are common and run across the cuts.
few_level_traces = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(1, 5)), min_size=1, max_size=20
).map(lambda runs: [value for value, count in runs for _ in range(count)])


def stitched_maxima(values, threshold, cuts):
    """`values` pushed into one `_Peaks` a row at a time, cut before each lag in `cuts` (repeats make empty pushes)."""
    v = np.asarray(values, dtype=float)
    bounds = [0, *sorted(min(max(c, 0), v.size) for c in cuts), v.size]
    picker = correlate._Peaks(v.size, threshold)
    for lo, hi in zip(bounds, bounds[1:]):
        picker.push([correlate._above(v[lo:hi], threshold, lo)], hi)
    lags, peaks = picker.decided()
    assert lags.dtype == np.int64 and peaks.dtype == np.float64
    return list(zip(lags.tolist(), peaks.tolist()))


class TestStitchedPeaks:
    """A trace's lags above the threshold, pushed into `_Peaks` a row at a time, give the whole trace's maxima."""

    @settings(max_examples=500, deadline=None)
    @given(few_level_traces, st.sampled_from([-1.0, 0.0, 0.5, 0.7, 0.9]), st.lists(st.integers(0, 100), max_size=10))
    @example([0.9] * 12, 0.5, [3, 6, 9])  # one constant trace over four rows
    @example([0.0, 0.9, 0.9, 0.9, 0.9, 0.0], 0.5, [2, 3, 4])  # cuts inside a plateau
    @example([0.0, 0.9, 0.9, 0.9, 0.5, 0.5, 0.0], 0.0, [4, 6])  # a plateau ending at a cut, one starting at it
    @example([0.0, 0.9, 0.0, 0.5, 0.0], 0.2, [1, 2, 3, 4])  # every peak a row of its own
    @example([0.0, 0.9, 0.0, 0.5, 0.0], 0.2, [1, 4])  # a cut just before one peak, one just after another
    @example([0.9, 0.0, 0.9, 0.9, 0.0, 0.9], 0.5, [1, 5])  # one-sample rows at both ends of the trace
    @example([0.9, 0.9, 0.5, 0.9, 0.9], 0.0, [2, 3])  # plateaus touching the trace's ends, cut next to them
    @example([0.0, 0.9, 0.9, 0.9, 0.0], 0.5, [2, 2, 2])  # empty pushes between two pieces of one plateau
    @example([0.0, 0.9, 0.9, 0.0, 0.0, 0.9, 0.0], 0.5, [3, 5])  # a plateau ending at a stop, then a push with no lags
    @example([0.0, 0.5, 0.9, 0.9, 0.9], 0.0, [3, 4])  # a plateau that runs into lag n - 1 across pushes
    @example([1.0, 0.9, 0.9, 0.0], 0.5, [2])  # a plateau cut inside, whose left neighbour is higher
    @example([0.9, 0.9, 0.9, 0.0], 0.5, [1, 2])  # a plateau from lag 0, cut inside
    def test_matches_whole_trace(self, values, threshold, cuts):
        expected = find_local_maxima(CorrelationTrace(np.asarray(values, dtype=float), SR), threshold)
        assert expected == reference_local_maxima(values, threshold)
        assert stitched_maxima(values, threshold, cuts) == expected

    def test_array_and_list_forms_agree(self):
        # The (lags, values) arrays `scan_group` returns are `find_local_maxima`'s list, from the same picker.
        trace = CorrelationTrace(np.array([0.0, 0.7, 0.7, 0.0, 0.9, 0.0]), SR)
        picker = correlate._Peaks(len(trace), 0.5)
        picker.push([correlate._above(trace.values, 0.5)], len(trace))
        lags, values = picker.decided()
        assert lags.dtype == np.int64 and values.dtype == np.float64
        assert lags.tolist() == [1, 4] and values.tolist() == [0.7, 0.9]
        assert find_local_maxima(trace, 0.5) == [(1, 0.7), (4, 0.9)]
        empty = correlate._Peaks(0, 0.5).decided()
        assert empty[0].dtype == np.int64 and empty[0].size == 0
        assert empty[1].dtype == np.float64 and empty[1].size == 0
        assert find_local_maxima(CorrelationTrace(np.empty(0), SR), 0.5) == []

    def test_state_between_pushes_is_bounded(self):
        """A clipped plateau of 10^6 lags, pushed in 1,000 pieces: only scalars are carried, and no peak comes of it."""
        n, pieces = 10**6, 1000
        picker = correlate._Peaks(n, 0.5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for lo in range(0, n, n // pieces):
                lags = np.arange(lo, lo + n // pieces)
                picker.push([(lags, np.ones(lags.size))], lo + lags.size)
                del lags
                held = tracemalloc.get_traced_memory()[0] - base
                assert held < 64 * 1024, held  # the plateau so far, were it held, would reach 16 MB
                if lo + n // pieces < n:
                    assert picker.open == (0, lo + n // pieces - 1, 1.0, False)
                    assert [type(x) for x in picker.open] == [int, int, float, bool]
                assert picker.lags == [] and picker.values == []
        finally:
            tracemalloc.stop()
        assert picker.open is None  # the last push reached lag n - 1, so the plateau touches the trace's end
        lags, values = picker.decided()
        assert lags.size == 0 and values.size == 0


def plateau_take(rng, n, m):
    """Noise with planted copies of a constant pattern and long constant stretches, some negated.

    Against a constant pattern, a constant stretch scores 1 to within
    rounding, so much of it clips to exactly 1.0 (or -1.0): plateaus that
    run across batch edges.
    """
    s = rng.uniform(-1, 1, n) * 0.2
    for _ in range(4):
        start = int(rng.integers(0, n - 3 * m))
        s[start : start + int(rng.integers(m, 3 * m))] = rng.choice([-0.5, 0.5, 0.25])
    return s


class TestImpulsePeaks:
    """`scan_group` of impulse clips, peaks picked per batch: the same peaks as the whole traces give."""

    M = 5

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_matches_peaks_of_the_whole_traces(self, workers, monkeypatch):
        m = self.M
        n = 23 * block_step(m) + 7
        nfft = _fft_length(n, m)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", nfft * workers)  # one block per batch
        assert -(-n // (nfft - m + 1)) >= 10  # batches
        rng = np.random.default_rng(40 + workers)
        clips = [clip(np.full(m, 0.5)), clip(rng.uniform(-1, 1, m)), clip(-np.full(m, 0.25)), clip(rng.uniform(0, 1, m))]
        plateaus = 0
        for trial in range(6):
            s = clip(plateau_take(rng, n, m))
            threshold = float(rng.choice([0.3, 0.5, 0.9]))
            got, _ = scan_group(s, clips, (), threshold, threshold)
            recorded = Recorder()  # the same call recording its lags picks the same peaks, on the calling thread
            with_traces, _ = scan_group(s, clips, (), threshold, threshold, recorded)
            assert len(got) == len(with_traces) == len(clips)
            assert set(recorded.batches) == {(j, False) for j in range(len(clips))}  # no box means for impulses
            assert all(len(batches) >= 10 for batches in recorded.batches.values())  # handed over batch by batch
            for j, (p, (lags, values), (kept_lags, kept_values)) in enumerate(zip(clips, got, with_traces)):
                trace = normalized_cross_correlate(s, p)
                assert recorded.trace(j).tobytes() == trace.values.tobytes()
                assert np.array_equal(kept_lags, lags) and np.array_equal(kept_values, values)
                assert lags.dtype == np.int64 and values.dtype == np.float64
                assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(trace, threshold)
                plateaus += int(np.count_nonzero(np.abs(trace.values) == 1.0) > 1)
        assert plateaus > 0  # the takes did produce clipped runs

    def test_single_block_and_pattern_as_long_as_take(self):
        rng = np.random.default_rng(41)
        for n, m in ((40, 40), (100, 13), (9, 1)):
            s = clip(rng.uniform(-1, 1, n))
            clips = [clip(rng.uniform(-1, 1, m)) for _ in range(3)]
            for p, (lags, values) in zip(clips, scan_group(s, clips, (), 0.1, 0.1)[0]):
                assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(normalized_cross_correlate(s, p), 0.1)

    def test_group_shares_one_engine_call_and_one_forward_fft_per_block(self, monkeypatch):
        calls, forward = [], []
        real_dot, real_rfft = correlate._sliding_dot, np.fft.rfft

        def dot_spy(s, p, *args, **kwargs):
            calls.append(np.shape(p))
            return real_dot(s, p, *args, **kwargs)

        def rfft_spy(a, *args, **kwargs):
            forward.append(np.shape(a))
            return real_rfft(a, *args, **kwargs)

        monkeypatch.setattr(correlate, "_WORKERS", 1)
        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        monkeypatch.setattr(np.fft, "rfft", rfft_spy)
        m = self.M
        rng = np.random.default_rng(42)
        s = clip(rng.uniform(-1, 1, 4 * block_step(m)))
        clips = [clip(rng.uniform(-1, 1, m)) for _ in range(4)]
        scan_group(s, clips, (), 0.5, 0.5)
        assert calls == [(4, m)]
        take_blocks = [shape for shape in forward if len(shape) == 2]  # the patterns' own transforms are 1-D
        assert sum(shape[0] for shape in take_blocks) == 4  # every block once, not once per pattern

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mixed_group_normalization_equals_index_array_formula(self, workers, monkeypatch):
        """Patterns of several lengths in one call: each divides by its own length's window energy in the group's blocks, bit for bit."""
        rng = np.random.default_rng(44 + workers)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        for _ in range(4):
            lengths = [int(m) for m in rng.integers(1, 300, 3)]
            n = int(rng.integers(2, 5)) * block_step(max(lengths)) + int(rng.integers(0, 300))
            monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, max(lengths)) * workers)  # one block per batch
            s = rng.uniform(-1, 1, n) * rng.choice([1.0, 1e-9], n)  # quiet stretches reach the clamp
            group = [rng.uniform(-1, 1, m) for m in lengths]
            raw = _whole(s, group)
            normalized = _whole(s, group, [sum_of_squares(p) for p in group])
            for p, raw_row, row in zip(group, raw, normalized):
                energies = reference_window_energy(s, p.size, max(lengths))
                denom = np.sqrt(np.maximum(energies, EPS_ENERGY) * sum_of_squares(p))
                assert np.array_equal(row, np.clip(raw_row / denom, -1.0, 1.0)), lengths
                assert np.max(np.abs(raw_row - _whole(s, [p])[0])) < 1e-9  # its own layout, alone

    def test_mixed_lengths_equal_each_pattern_alone_and_bad_energy_is_rejected(self):
        s = clip(np.random.default_rng(43).uniform(-1, 1, 200))
        clips = [clip(np.ones(4)), clip(np.ones(5))]
        assert _fft_length(200, 4) == _fft_length(200, 5)  # one block either way: the same layout, the same bits
        recorded = Recorder()
        for j, (p, (lags, values)) in enumerate(zip(clips, scan_group(s, clips, (), 0.5, 0.5, recorded)[0])):
            reference = normalized_cross_correlate(s, p)
            assert recorded.trace(j).tobytes() == reference.values.tobytes()
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(reference, 0.5)
        with pytest.raises(DetectionError):
            scan_group(s, [clip(np.ones(4)), clip(np.zeros(4))], (), 0.5, 0.5)


# Values that make rounding visible: large and tiny magnitudes, exact zeros and negative zeros.
chunked_values = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, 0.3])), max_size=120
)
cut_lists = st.lists(st.integers(0, 120), max_size=12)


class TestStreamedSums:
    """Box means and window energies from per-block prefix sums, batch by batch, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(chunked_values, st.integers(1, 30), st.integers(0, 12), st.booleans(), cut_lists)
    @example([0.5] * 10, 4, 0, False, [1, 2])  # one-block batches of blocks as long as the window
    @example([0.3] * 9 + [-0.7] * 9, 7, 2, True, [1])  # windows across a block edge and a batch edge
    @example([0.5, -0.0, 0.25], 1, 0, True, [1, 2])  # w = 1: each mean is its lag
    @example([0.25] * 5, 9, 3, False, [])  # a trace shorter than the window: every window clamped
    @example([], 3, 0, False, [])  # an empty trace
    def test_any_cuts_give_the_whole_sequence_sums(self, values, w, extra, rectify, cuts):
        """Blocks of step >= w lags in batches cut anywhere: `_Box` takes the batches' box means in the
        workers' code and the windows across their edges, and they are the per-block formula's, as are their runs."""
        x = np.asarray(values, dtype=float)
        n, step = x.size, w + extra
        blocks = max(-(-n // step), 1)
        rows = np.concatenate((x, np.zeros(blocks * step - n))).reshape(blocks, step)
        recorded = []
        box = correlate._Box(n, w, 0.3, recorded.append, np.absolute if rectify else np.positive)
        edges = sorted({0, blocks, *(c for c in cuts if 0 < c < blocks)})  # batch edges, in blocks
        for first, stop in zip(edges, edges[1:]):
            batch = rows[first:stop].copy()
            box.push([box.found(batch, first)], min(stop * step, n))  # its means written over its lags, as a worker does
        means = np.concatenate([np.empty(0), *recorded])
        expected = reference_moving_average(np.abs(x) if rectify else x, w, step=step)
        assert means.tobytes() == expected.tobytes()
        assert list(zip(*(column.tolist() for column in box.decided()))) == reference_runs(expected, 0.3)

    @settings(max_examples=300, deadline=None)
    @given(chunked_values, st.integers(1, 30), st.booleans(), st.integers(1, 4), cut_lists)
    @example([0.1, -0.5, 0.2, 0.9], 1, True, 1, [1, 3])  # w = 1 is the lag itself
    @example([0.3] * 9 + [-0.7] * 9, 7, True, 1, [1, 2])  # one-block batches, windows across every edge
    @example([0.5] * 40, 3, False, 3, [2])  # batches of three blocks, cut elsewhere in the rows
    def test_box_means_in_rows_equal_moving_average(self, values, w, rectify, per_batch, cuts):
        """`moving_average` over blocks of a few lags, batched `per_batch` at a time, is the per-block formula's,
        and the same rows pushed through `_Box` in batches cut anywhere give it bit for bit."""
        x = np.asarray(values, dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlate, "_MIN_BLOCK", 2)  # blocks of 2w to 4w lags: many in a short trace
            patch.setattr(correlate, "_BATCH_SAMPLES", per_batch * _fft_length(x.size, w) * correlate._WORKERS)
            whole = moving_average(CorrelationTrace(x, SR), w / SR, rectify).values
            expected = reference_moving_average(np.abs(x) if rectify else x, w)
            lay = correlate._Layout.of(x.size, w) if x.size else None
        assert whole.tobytes() == expected.tobytes()
        if lay is None:  # an empty trace: no blocks
            return
        rows = np.concatenate((x, np.zeros(lay.blocks * lay.step - x.size))).reshape(lay.blocks, lay.step)
        recorded = []
        box = correlate._Box(x.size, w, math.inf, recorded.append, np.absolute if rectify else np.positive)
        edges = sorted({0, lay.blocks, *(c for c in cuts if 0 < c < lay.blocks)})
        for first, stop in zip(edges, edges[1:]):
            batch = rows[first:stop].copy()
            box.push([box.found(batch, first)], min(stop * lay.step, x.size))
        assert np.concatenate(recorded).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_block_energies_equal_index_array_formula(self, workers, monkeypatch):
        # Each block's energies come from its own prefix sum, whichever batch it falls in: 1, 2 or 4 blocks per batch.
        rng = np.random.default_rng(26 + workers)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        for m, per_batch in ((1, 1), (5, 2), (37, 4)):
            n = 9 * block_step(m) + int(rng.integers(0, block_step(m)))
            monkeypatch.setattr(correlate, "_BATCH_SAMPLES", per_batch * _fft_length(n, m) * workers)
            s = rng.uniform(-1, 1, n) * rng.choice([1.0, 1e-9], n)  # quiet stretches reach the clamp
            p = rng.uniform(-1, 1, m)
            energies = np.maximum(reference_window_energy(s, m), EPS_ENERGY)
            expected = np.clip(_whole(s, [p])[0] / np.sqrt(energies * sum_of_squares(p)), -1.0, 1.0)
            assert np.array_equal(normalized_cross_correlate(clip(s), clip(p)).values, expected), m
            assert np.array_equal(window_energy(clip(s), m), energies), m

    def test_one_prefix_per_block_per_call(self, monkeypatch):
        """Each block's prefix sum of s^2 is built once per engine call, not once per pattern or length."""
        built, real_prefix = [], correlate._block_prefix

        def prefix_spy(blocks, *args):
            built.append(blocks.shape[0])
            return real_prefix(blocks, *args)

        lengths = (50, 20, 50, 20)
        n = 4 * block_step(50)
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", 3 * _fft_length(n, 50))
        monkeypatch.setattr(correlate, "_block_prefix", prefix_spy)
        rng = np.random.default_rng(27)
        s = clip(rng.uniform(-1, 1, n))
        scan_group(s, [clip(rng.uniform(-1, 1, m)) for m in lengths], (), 0.5, 0.5)
        assert len(built) > 3 and sum(built) == correlate._Layout.of(n, 50).blocks  # once per batch, every block once


class TestStreamedRuns:
    """Runs found row by row and stitched are the whole trace's runs."""

    @settings(max_examples=400, deadline=None)
    @given(few_level_traces, st.sampled_from([-1.0, 0.0, 0.5, 0.7, 0.9]), st.lists(st.integers(0, 100), max_size=10))
    @example([0.9] * 12, 0.5, [3, 6, 9])  # one run over four rows, filling two of them
    @example([0.0, 0.9, 0.9, 0.0, 0.9], 0.5, [2, 4])  # runs crossing an edge, touching the trace's end
    @example([0.9, 0.0, 0.9], 0.5, [1, 2])  # two runs one lag apart, each a row of its own
    def test_matches_whole_trace(self, values, threshold, cuts):
        v = np.asarray(values, dtype=float)
        bounds = sorted({0, v.size, *(c for c in cuts if 0 < c < v.size)})
        stitched = correlate._stitch_runs([correlate._row_runs(v[lo:hi], threshold, lo) for lo, hi in zip(bounds, bounds[1:])])
        assert [column.dtype for column in stitched] == [np.int64, np.int64, np.float64]
        assert list(zip(*(column.tolist() for column in stitched))) == reference_runs(values, threshold)


class TestScanGroup:
    """The engine's one entry for a dictionary: every decision it returns is read off the traces it records."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_decisions_equal_the_kept_traces(self, workers, monkeypatch):
        short, long = 5, 9
        n = 6 * block_step(long) + 11
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, long) * workers)  # one block per batch
        rng = np.random.default_rng(48 + workers)
        s = clip(plateau_take(rng, n, long))
        impulses = [clip(np.full(short, 0.5)), clip(rng.uniform(-1, 1, long))]
        continuous = [clip(rng.uniform(-1, 1, short)), clip(-np.full(long, 0.25))]
        recorded = Recorder()
        peaks, runs = scan_group(s, impulses, continuous, 0.5, 0.3, recorded)
        assert len(peaks) == len(runs) == 2
        assert set(recorded.batches) == {(0, False), (1, False), (2, False), (2, True), (3, False), (3, True)}  # impulses first
        for j, (lags, values) in enumerate(peaks):
            assert lags.size > 0
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(CorrelationTrace(recorded.trace(j), SR), 0.5)
        for j, (p, found) in enumerate(zip(continuous, runs), 2):
            trace, averaged = CorrelationTrace(recorded.trace(j), SR), recorded.trace(j, True)
            assert averaged.tobytes() == reference_moving_average(np.abs(trace.values), len(p), long).tobytes()
            if len(p) == long:  # its own layout: `moving_average`'s bits
                assert averaged.tobytes() == moving_average(trace, p.duration_s, rectify=True).values.tobytes()
            assert found.starts.size > 0
            assert list(zip(*(column.tolist() for column in found))) == reference_runs(averaged, 0.3)
        assert scan_group(s, [], [], 0.5, 0.3) == ([], [])  # an empty dictionary


SCREEN_M = 2048  # long enough, at 2^15-point blocks, for a tone to pass the screen's gate at thresholds >= 0.3
SCREEN_STEP = block_step(SCREEN_M)


def tone(m, cycles):
    """A Hann-windowed sinusoid: its energy sits in a few bins, so the engine screens it."""
    return np.hanning(m) * np.sin(2 * np.pi * cycles * np.arange(m) / m)


def screen_patterns(rng, order):
    """Two tones and a broadband burst of SCREEN_M samples, in `order`; the burst fails the gate."""
    patterns = [tone(SCREEN_M, 40), tone(SCREEN_M, 97), rng.uniform(-1, 1, SCREEN_M)]
    return [clip(patterns[i]) for i in order]


def block_take(rng, kinds, patterns, n):
    """A take of n samples whose i-th block of SCREEN_STEP lags is of kinds[i].

    "zero" is exact zeros, "quiet" noise of rms about 1e-3, "noise" loud
    broadband noise, "tone" copies of a pattern in noise at about the
    noise's level (where a looser bound would hide a real peak) and
    "loud" loud copies over quiet noise. "mixed" is a copy in quiet noise
    followed by loud noise, so only the block's quietest windows let it fire.
    """
    s = np.zeros(n)
    for b, kind in enumerate(kinds):
        lo, hi = b * SCREEN_STEP, min((b + 1) * SCREEN_STEP, n)
        if kind == "zero":
            continue
        if kind == "mixed":
            mid = (lo + hi) // 2
            s[lo:hi] = np.concatenate((rng.normal(0, 1e-3, mid - lo), rng.uniform(-0.8, 0.8, hi - mid)))
            p = patterns[int(rng.integers(len(patterns)))].samples
            at = int(rng.integers(lo, max(mid - p.size, lo) + 1))
            s[at : at + p.size] += 0.05 * p[: n - at] / np.sqrt(np.mean(p * p))
            continue
        level = {"quiet": 1e-3, "noise": 0.5, "tone": 0.05, "loud": 1e-3}[kind]
        s[lo:hi] = rng.normal(0, level, hi - lo)
        if kind in ("tone", "loud"):
            for _ in range(int(rng.integers(1, 4))):
                p = patterns[int(rng.integers(len(patterns)))].samples
                at = int(rng.integers(lo, max(hi - p.size, lo) + 1))
                amp = 1.0 if kind == "loud" else float(rng.uniform(0.5, 3.0)) * level / np.sqrt(np.mean(p * p))
                s[at : at + p.size] += amp * p[: n - at]
    return clip(s / max(1.0, float(np.max(np.abs(s)))))


def irfft_rows(monkeypatch):
    """Spy on np.fft.irfft: the list it returns grows by the rows of each call."""
    counted, real = [], np.fft.irfft

    def spy(a, *args, **kwargs):
        counted.append(np.shape(a)[0] if np.ndim(a) == 2 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    return counted


class TestScreen:
    """Impulse blocks whose spectral bound cannot reach the threshold are skipped, and no decision moves."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(["zero", "quiet", "noise", "tone", "loud", "mixed"]), min_size=1, max_size=5),
        st.sampled_from([0.05, 0.3, 0.5, 0.9, 1.0]),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 2**32 - 1),
        st.permutations(range(3)),
        st.sampled_from([1, 3]),
        st.booleans(),
    )
    @example(["quiet", "loud", "tone", "quiet"], 0.5, 2, 0, [2, 0, 1], 1, False)  # dead first and last blocks
    @example(["loud"], 0.3, 1, 1, [0, 1, 2], 1, False)  # a one-block take
    @example(["zero", "tone", "zero", "loud", "noise"], 0.9, 3, 2, [2, 1, 0], 1, False)  # exact zeros, the last pattern a tone
    @example(["quiet", "loud", "quiet", "tone", "quiet"], 0.5, 1, 3, [2, 0, 1], 3, False)  # live blocks moved within a batch
    @example(["noise", "mixed", "quiet"], 0.5, 2, 4, [0, 1, 2], 1, False)  # a block that only its quietest windows keep live
    @example(["quiet", "quiet", "loud", "quiet", "quiet"], 0.3, 1, 2, [0, 1, 2], 3, True)  # both kinds' dead blocks in a batch
    @example(["tone", "quiet", "zero", "loud"], 0.3, 2, 6, [0, 2, 1], 1, True)  # runs, in one-block batches on two workers
    def test_peaks_equal_the_unscreened_reference(self, kinds, threshold, workers, seed, order, per_batch, continuous):
        """With `continuous`, the group also holds the tonal continuous patterns of CONTINUOUS_TONES: screened
        impulse and continuous lanes, each with its own dead blocks, beside the unscreened burst in one batch."""
        rng = np.random.default_rng(seed)
        patterns = screen_patterns(rng, order)
        boxes = [clip(tone(m, cycles)) for m, cycles in CONTINUOUS_TONES] if continuous else []
        n = (len(kinds) - 1) * SCREEN_STEP + int(rng.integers(SCREEN_M, SCREEN_STEP + 1))
        s = block_take(rng, kinds, patterns, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_WORKERS", workers)
            mp.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, SCREEN_M) * workers * per_batch)
            screened, runs = scan_group(s, patterns, boxes, threshold, threshold)
            recorded = Recorder()
            unscreened, kept_runs = scan_group(s, patterns, boxes, threshold, threshold, recorded)
        for j, (p, (lags, values), (kept_lags, kept_values)) in enumerate(zip(patterns, screened, unscreened)):
            reference = normalized_cross_correlate(s, p)
            assert recorded.trace(j).tobytes() == reference.values.tobytes()
            assert np.array_equal(lags, kept_lags) and np.array_equal(values, kept_values)
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(reference, threshold)
        for j, (p, found, kept) in enumerate(zip(boxes, runs, kept_runs), len(patterns)):
            assert all(np.array_equal(a, b) for a, b in zip(found, kept))
            # A shorter pattern's lags are its own in the group's blocks: those of a pair with a SCREEN_M pattern.
            pair = [p.samples, patterns[0].samples]
            alone = _whole(s.samples, pair, [sum_of_squares(q) for q in pair])[0] if len(p) < SCREEN_M else normalized_cross_correlate(s, p).values
            assert recorded.trace(j).tobytes() == alone.tobytes()
            expected = reference_moving_average(np.abs(alone), len(p), SCREEN_M)
            assert recorded.trace(j, True).tobytes() == expected.tobytes()
            assert list(zip(*(column.tolist() for column in kept))) == reference_runs(expected, threshold)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clipped_plateau_between_dead_blocks(self, workers, monkeypatch):
        """A run of 1.0 fills two live blocks; the blocks before and after it are dead, and emit no lags to bound it.

        A block's data holds the first m - 1 samples of the next block's
        lags, so a block beside the plateau can only be dead if every one
        of its windows is far louder than the plateau's: the windows at the
        plateau's edges each hold one loud sample, and the noise around it
        is about as loud per window. Every sample is a multiple of 2^-10,
        so the window energies are exact and the plateau's lags clip to 1.0.
        """
        m = 3000
        step = block_step(m)
        n = 5 * step
        s = np.round(np.random.default_rng(60).uniform(-0.035, 0.035, n) * 1024) / 1024
        end = 3 * step - 1 + m  # lags step .. 3 * step - 1 have their windows in the constant stretch
        s[step:end] = 2.0**-10
        s[step - 1] = s[end] = 1.0
        pattern = clip(np.full(m, 0.5))
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, m) * workers)  # one block per batch
        trace = normalized_cross_correlate(clip(s), pattern)
        assert np.all(trace.values[step : 3 * step] == 1.0)
        rows = irfft_rows(monkeypatch)
        for threshold in (0.5, 0.9):
            rows.clear()
            (lags, values), = scan_group(clip(s), [pattern], (), threshold, threshold)[0]
            assert trace.values[step - 1] < threshold and trace.values[3 * step] < threshold
            assert sum(rows) <= 3  # of 5 blocks, at least the two on either side of the plateau were screened out
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(trace, threshold) == [(2 * step - 1, 1.0)]

    def test_threshold_at_or_below_zero_screens_nothing(self, monkeypatch):
        rng = np.random.default_rng(61)
        patterns = screen_patterns(rng, [0, 1, 2])
        kinds = ["quiet", "loud", "quiet", "zero"]
        s = block_take(rng, kinds, patterns, len(kinds) * SCREEN_STEP)
        rows = irfft_rows(monkeypatch)
        monkeypatch.setattr(correlate, "_WORKERS", 1)
        for threshold in (0.0, -0.5):
            rows.clear()
            found, _ = scan_group(s, patterns, (), threshold, threshold)
            assert sum(rows) == len(kinds) * len(patterns)
            for p, (lags, values) in zip(patterns, found):
                assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(normalized_cross_correlate(s, p), threshold)


class TestScreenBound:
    """The spectral bound holds every output of a block's inverse FFT, and the screen engages only where it may."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    @example(3, None)  # a delta against a delta: the bound is tight
    def test_bound_holds_every_output_of_the_inverse_fft(self, log_n, data):
        nfft = 1 << log_n
        if data is None:
            s, p = np.eye(nfft)[0], np.eye(1, nfft)[0]
        else:
            # Magnitudes under 1e-30 are drawn as 0: a product that underflows keeps no relative margin.
            # The engine's limits never come near there, as its window energies are at least EPS_ENERGY.
            values = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) > 1e-30 else 0.0)
            signals = st.lists(st.one_of(values, st.sampled_from([0.0, 1.0, -1.0])), min_size=1, max_size=nfft)
            s = np.resize(np.asarray(data.draw(signals, label="block")), nfft)
            p = np.asarray(data.draw(signals, label="pattern"))
        spec, pattern_spec = np.fft.rfft(s), np.conj(np.fft.rfft(p, nfft))
        outputs = np.fft.irfft(spec * pattern_spec, nfft)
        bound = np.abs(spec) @ correlate._bound_weights(pattern_spec, nfft)
        # Exact in exact arithmetic; the margin the engine adds covers the transforms' rounding.
        assert bound * (1 + correlate._BOUND_MARGIN) >= np.max(np.abs(outputs))
        if data is None:
            assert bound == pytest.approx(np.max(np.abs(outputs)), rel=1e-12)

    def test_sparse_take_inverse_transforms_fewer_rows(self, monkeypatch):
        rng = np.random.default_rng(62)
        tones = screen_patterns(rng, [0, 1])
        kinds = ["quiet", "loud", "quiet", "quiet", "tone", "zero"]
        s = block_take(rng, kinds, tones, len(kinds) * SCREEN_STEP)
        blocks = len(kinds)
        rows = irfft_rows(monkeypatch)
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        scan_group(s, tones, (), 0.5, 0.5)
        assert sum(rows) < blocks * len(tones)
        rows.clear()
        scan_group(s, tones, (), 0.5, 0.5, Recorder())  # recorded scans are never screened
        assert sum(rows) == blocks * len(tones)
        burst = clip(rng.uniform(-1, 1, SCREEN_M))
        nfft = _fft_length(s.samples.size, SCREEN_M)
        assert correlate._noise_ratio(np.conj(np.fft.rfft(burst.samples, nfft)), nfft, SCREEN_M, 0.5) >= correlate._NOISE_GATE
        rows.clear()
        scan_group(s, [burst], (), 0.5, 0.5)  # nor is a pattern that fails the gate
        assert sum(rows) == blocks


def sustained_take(rng, kinds, n):
    """A take of n samples whose i-th block of SCREEN_STEP lags is of kinds[i], for the continuous screen.

    "on0" and "on1" hold the carrier of CONTINUOUS_TONES[0] or [1] over
    the whole block, "half0" the first's over the block's second half,
    in quiet noise; a carrier is phase-continuous, so blocks of one kind
    in a row make one segment across their edges. "quiet", "zero" and
    "noise" are as in `block_take`.
    """
    s = np.zeros(n)
    t = np.arange(n)
    for b, kind in enumerate(kinds):
        lo, hi = b * SCREEN_STEP, min((b + 1) * SCREEN_STEP, n)
        if kind != "zero":
            s[lo:hi] = rng.normal(0, 0.5 if kind == "noise" else 1e-3, hi - lo)
        if kind.startswith(("on", "half")):
            m, cycles = CONTINUOUS_TONES[int(kind[-1])]
            start = lo if kind.startswith("on") else (lo + hi) // 2
            s[start:hi] += 0.3 * np.sin(2 * np.pi * cycles / m * t[start:hi])
    return clip(s / max(1.0, float(np.max(np.abs(s)))))


CONTINUOUS_TONES = [(SCREEN_M, 97), (1536, 30)]  # (samples, cycles) of two tonal continuous patterns of two lengths


class TestScreenContinuous:
    """Continuous blocks no box mean above the threshold can reach are skipped, and no run moves."""

    @staticmethod
    def scan(s, threshold, workers, per_batch):
        """(screened runs, irfft rows they took, recorded runs, the recording) of the two continuous tones."""
        patterns = [clip(tone(m, cycles)) for m, cycles in CONTINUOUS_TONES]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_WORKERS", workers)
            mp.setattr(correlate, "_BATCH_SAMPLES", _fft_length(len(s), SCREEN_M) * workers * per_batch)
            rows = irfft_rows(mp)
            _, screened = scan_group(s, [], patterns, threshold, threshold)
            computed = sum(rows)
            rows.clear()
            recorded = Recorder()
            _, unscreened = scan_group(s, [], patterns, threshold, threshold, recorded)
            assert sum(rows) == len(patterns) * correlate._Layout.of(len(s), SCREEN_M).blocks  # recorded: every block
        return screened, computed, unscreened, recorded

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(["zero", "quiet", "noise", "on0", "on1", "half0"]), min_size=1, max_size=6),
        st.sampled_from([0.3, 0.4, 0.6]),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3]),
    )
    @example(["quiet", "on0", "on0", "quiet"], 0.4, 2, 0, 3)  # a segment across a block edge, inside a batch
    @example(["quiet", "half0", "on0", "quiet"], 0.4, 3, 1, 1)  # a segment across a batch edge
    @example(["on1", "quiet", "zero", "quiet", "on0"], 0.4, 2, 2, 3)  # a block skipped between two live ones
    @example(["half0"], 0.3, 1, 3, 1)  # a take of one block
    @example(["noise", "on1", "on1", "on1", "on1", "noise"], 0.3, 3, 4, 1)  # one-block batches, three workers
    def test_runs_equal_the_unscreened_runs(self, kinds, threshold, workers, seed, per_batch):
        rng = np.random.default_rng(seed)
        n = (len(kinds) - 1) * SCREEN_STEP + int(rng.integers(SCREEN_M, SCREEN_STEP + 1))
        s = sustained_take(rng, kinds, n)
        screened, computed, unscreened, recorded = self.scan(s, threshold, workers, per_batch)
        assert computed <= len(CONTINUOUS_TONES) * len(kinds)
        for j, ((m, _), runs, kept) in enumerate(zip(CONTINUOUS_TONES, screened, unscreened)):
            assert all(np.array_equal(a, b) for a, b in zip(runs, kept))
            expected = reference_moving_average(np.abs(recorded.trace(j)), m, SCREEN_M)
            assert recorded.trace(j, True).tobytes() == expected.tobytes()
            assert list(zip(*(column.tolist() for column in kept))) == reference_runs(expected, threshold)
        if threshold < 0.5 and {"on0", "half0"} & set(kinds):
            assert screened[0].starts.size > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_no_mean_can_reach_are_not_inverse_transformed(self, workers):
        """Between two segments, quiet blocks with quiet neighbours are skipped when a batch holds them;
        one-block batches skip none, as a worker cannot see the blocks beside its batch."""
        kinds = ["on0", "quiet", "quiet", "quiet", "quiet", "quiet", "on1"]
        s = sustained_take(np.random.default_rng(63), kinds, len(kinds) * SCREEN_STEP)
        pairs = len(CONTINUOUS_TONES) * len(kinds)
        for per_batch in (8, 1):
            screened, computed, unscreened, _ = self.scan(s, 0.4, workers, per_batch)
            assert computed <= pairs - 2 if per_batch > 1 else computed == pairs, (per_batch, computed)
            assert [r.starts.size > 0 for r in unscreened] == [True, True]
            for runs, kept in zip(screened, unscreened):
                assert all(np.array_equal(a, b) for a, b in zip(runs, kept))

    def test_only_gated_patterns_are_screened(self, monkeypatch):
        """Each tone passes the gate at 0.4; a noise burst, or a threshold at or below 0, screens nothing."""
        rng = np.random.default_rng(64)
        kinds = ["quiet", "on0", "quiet", "quiet", "quiet", "zero"]
        s = sustained_take(rng, kinds, len(kinds) * SCREEN_STEP)
        nfft = _fft_length(len(s), SCREEN_M)
        for m, cycles in CONTINUOUS_TONES:
            assert correlate._noise_ratio(np.conj(np.fft.rfft(tone(m, cycles), nfft)), nfft, m, 0.4) < correlate._NOISE_GATE
        rows = irfft_rows(monkeypatch)
        monkeypatch.setattr(correlate, "_WORKERS", 1)
        burst = clip(rng.uniform(-1, 1, SCREEN_M))
        for threshold, patterns in ((0.4, [burst]), (0.0, [clip(tone(SCREEN_M, 97))])):
            rows.clear()
            scan_group(s, [], patterns, threshold, threshold)
            assert sum(rows) == len(kinds)


class TestBoxMeanRounding:
    """A box mean carries the rounding of at most two blocks' sums, however long the trace.

    A quiet second of lags (about 1e-3) follows 2^20 or 2^22 loud ones
    (about 0.4). Each window in the quiet second is compared with its
    exact mean (math.fsum of its lags over w): the relative error stays
    under 128 eps times the sum of the lags from its first block's first
    lag to its end over the window's own sum, a bound set by the block
    length, not by the trace's.
    """

    W = 8820  # 0.2 s at 44.1 kHz
    QUIET = 44100

    @pytest.fixture(scope="class", params=[1 << 20, 1 << 22], ids=["2^20", "2^22"])
    def trace(self, request):
        loud, w = request.param, self.W
        rng = np.random.default_rng(loud + 1)
        v = np.abs(np.concatenate((rng.normal(0.0, 0.5, loud), rng.normal(0.0, 1e-3, self.QUIET))))
        lead = (w - 1) // 2
        lags = np.unique(np.r_[loud + lead : loud + lead + 8, np.linspace(loud + lead, v.size - w + lead, 97).astype(int)])
        step = _fft_length(v.size, w) - w + 1
        exact = np.array([math.fsum(v[i - lead : i - lead + w]) for i in lags])
        reach = np.array([math.fsum(v[(i - lead) // step * step : i - lead + w]) for i in lags])
        return v, lags, exact / w, 128 * EPS * reach / exact

    def test_moving_average(self, trace):
        v, lags, exact, bound = trace
        error = np.abs(moving_average(CorrelationTrace(v, 44100), self.W / 44100).values[lags] - exact) / exact
        assert np.all(error <= bound), float(np.max(error / bound))
