import sys
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
from soundcue.correlate import EPS_ENERGY, _BoxMean, _WindowSums, _fft_length, _sliding_dot, sum_of_squares
from conftest import reference_runs

SR = 8000


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


def reference_window_energy(s, m):
    """Index-array formula for the energy under each lag's window: the reference for the prefix-sum slices."""
    n = s.size
    csum = np.concatenate(([0.0], np.cumsum(s * s)))
    ends = np.minimum(np.arange(n) + m, n)
    return csum[ends] - csum[:n]


def direct_ncc(s, p):
    """Oracle of the normalized flavour: the direct numerator over the reference window energy.

    Energies come from the prefix-sum formula (pinned bit for bit by
    TestReferenceEquality), not from per-window sums: a prefix-sum
    difference carries eps * (energy so far) of rounding, which on a
    quiet sample under a one-sample pattern alone exceeds 1e-9 of score.
    """
    denom = np.sqrt(np.maximum(reference_window_energy(s, len(p)), EPS_ENERGY) * float(np.dot(p, p)))
    return np.clip(direct_sliding_dot(s, p) / denom, -1.0, 1.0)


def reference_window_sums(x, w, lead, mean, of):
    """Index-array formula for sum(of(x)[max(i - lead, 0) : min(i - lead + w, n)]), divided by its length if `mean`."""
    n = x.size
    csum = np.concatenate(([0.0], np.cumsum(x if of is None else of(x))))
    idx = np.arange(n)
    starts = np.maximum(idx - lead, 0)
    ends = np.minimum(idx - lead + w, n)
    sums = csum[ends] - csum[starts]
    return sums / (ends - starts) if mean else sums


def reference_moving_average(values, w):
    """Index-array formula for the centered, edge-clamped boxcar mean."""
    n = values.size
    if w <= 1 or n == 0:
        return values
    left = (w - 1) // 2
    idx = np.arange(n)
    starts = np.maximum(idx - left, 0)
    ends = np.minimum(idx - left + w, n)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[ends] - csum[starts]) / (ends - starts)


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
            expected = np.clip(_sliding_dot(s, [p])[0] / denom, -1.0, 1.0)
            assert np.array_equal(normalized_cross_correlate(clip(s), clip(p)).values, expected), (n, m)

    def test_moving_average_equals_index_array_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(0, 2000))
            w = int(rng.choice([0, 1, 2, n, n + 1, 3 * n + 7, int(rng.integers(2, 2 * n + 3))]))
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
        assert self.peak_bytes(window_energy, s, len(p)) <= 2.5 * s.samples.nbytes  # prefix sum + output, no s*s

    def test_normalized_cross_correlate_with_shared_energy(self, take):
        # The output plus the blocks in flight: the energy is shared batch by batch, no
        # denominator or energy the length of the take.
        s, p = take
        assert self.peak_bytes(normalized_cross_correlate, s, p) <= 2 * s.samples.nbytes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_in_flight_share_one_budget(self, take, workers, monkeypatch):
        # Beside the output: every worker's spectra and block outputs, 2 x 8 bytes per
        # sample of the shared batch budget, plus at most the padded copy of the tail.
        s, p = take
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        peak = self.peak_bytes(_sliding_dot, s.samples, [p.samples])
        assert peak - s.samples.nbytes <= 3 * 8 * correlate._BATCH_SAMPLES

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
    """`values` cut into rows before each lag in `cuts`, each row peak-picked alone, then stitched."""
    v = np.asarray(values, dtype=float)
    bounds = sorted({0, v.size, *(c for c in cuts if 0 < c < v.size)})
    rows = [correlate._row_peaks(v[lo:hi], threshold, lo) for lo, hi in zip(bounds, bounds[1:])]
    lags, peaks = correlate._stitch(rows)
    assert lags.dtype == np.int64 and peaks.dtype == np.float64
    return list(zip(lags.tolist(), peaks.tolist()))


class TestStitchedPeaks:
    """Rows peak-picked one at a time and stitched give the whole trace's maxima."""

    @settings(max_examples=500, deadline=None)
    @given(few_level_traces, st.sampled_from([-1.0, 0.0, 0.5, 0.7, 0.9]), st.lists(st.integers(0, 100), max_size=10))
    @example([0.9] * 12, 0.5, [3, 6, 9])  # one constant trace over four rows
    @example([0.0, 0.9, 0.9, 0.9, 0.9, 0.0], 0.5, [2, 3, 4])  # cuts inside a plateau
    @example([0.0, 0.9, 0.9, 0.9, 0.5, 0.5, 0.0], 0.0, [4, 6])  # a plateau ending at a cut, one starting at it
    @example([0.0, 0.9, 0.0, 0.5, 0.0], 0.2, [1, 2, 3, 4])  # every peak a row of its own
    @example([0.0, 0.9, 0.0, 0.5, 0.0], 0.2, [1, 4])  # a cut just before one peak, one just after another
    @example([0.9, 0.0, 0.9, 0.9, 0.0, 0.9], 0.5, [1, 5])  # one-sample rows at both ends of the trace
    @example([0.9, 0.9, 0.5, 0.9, 0.9], 0.0, [2, 3])  # plateaus touching the trace's ends, cut next to them
    def test_matches_whole_trace(self, values, threshold, cuts):
        expected = find_local_maxima(CorrelationTrace(np.asarray(values, dtype=float), SR), threshold)
        assert expected == reference_local_maxima(values, threshold)
        assert stitched_maxima(values, threshold, cuts) == expected

    def test_array_and_list_forms_agree(self):
        # The (lags, values) arrays `scan_group` returns are `find_local_maxima`'s list, stitched from rows.
        trace = CorrelationTrace(np.array([0.0, 0.7, 0.7, 0.0, 0.9, 0.0]), SR)
        lags, values = correlate._stitch([correlate._row_peaks(trace.values, 0.5, 0)])
        assert lags.tolist() == [1, 4] and values.tolist() == [0.7, 0.9]
        assert find_local_maxima(trace, 0.5) == [(1, 0.7), (4, 0.9)]
        empty = correlate._stitch([])
        assert empty[0].dtype == np.int64 and empty[0].size == 0 and empty[1].size == 0
        assert find_local_maxima(CorrelationTrace(np.empty(0), SR), 0.5) == []


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
            kept = []  # the same call keeping its traces picks the same peaks from them
            with_traces, _ = scan_group(s, clips, (), threshold, threshold, kept)
            assert len(got) == len(with_traces) == len(kept) == len(clips)
            for p, (lags, values), (kept_lags, kept_values), (kept_trace, averaged) in zip(clips, got, with_traces, kept):
                trace = normalized_cross_correlate(s, p)
                assert kept_trace.values.tobytes() == trace.values.tobytes() and averaged is None
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
        """Patterns of several lengths in one call: each divides by its own length's window energy, bit for bit."""
        rng = np.random.default_rng(44 + workers)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        for _ in range(4):
            lengths = [int(m) for m in rng.integers(1, 300, 3)]
            n = int(rng.integers(2, 5)) * block_step(max(lengths)) + int(rng.integers(0, 300))
            monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, max(lengths)) * workers)  # one block per batch
            s = rng.uniform(-1, 1, n) * rng.choice([1.0, 1e-9], n)  # quiet stretches reach the clamp
            group = [rng.uniform(-1, 1, m) for m in lengths]
            raw = _sliding_dot(s, group)
            normalized = _sliding_dot(s, group, [sum_of_squares(p) for p in group])
            for p, raw_row, row in zip(group, raw, normalized):
                denom = np.sqrt(np.maximum(reference_window_energy(s, p.size), EPS_ENERGY) * sum_of_squares(p))
                assert np.array_equal(row, np.clip(raw_row / denom, -1.0, 1.0)), lengths
                assert np.max(np.abs(raw_row - _sliding_dot(s, [p])[0])) < 1e-9  # its own layout, alone

    def test_mixed_lengths_equal_each_pattern_alone_and_bad_energy_is_rejected(self):
        s = clip(np.random.default_rng(43).uniform(-1, 1, 200))
        clips = [clip(np.ones(4)), clip(np.ones(5))]
        assert _fft_length(200, 4) == _fft_length(200, 5)  # one block either way: the same layout, the same bits
        kept = []
        for p, (lags, values), (trace, _) in zip(clips, scan_group(s, clips, (), 0.5, 0.5, kept)[0], kept):
            reference = normalized_cross_correlate(s, p)
            assert trace.values.tobytes() == reference.values.tobytes()
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(reference, 0.5)
        with pytest.raises(DetectionError):
            scan_group(s, [clip(np.ones(4)), clip(np.zeros(4))], (), 0.5, 0.5)


def pushed_in_chunks(sums, x, cuts, pops):
    """`sums` fed x cut before each lag in `cuts`; after each chunk, the sums it completes, or only `pops` of them."""
    bounds = sorted({0, x.size, *(c for c in cuts if 0 < c < x.size)})
    out = []
    for lo, hi in zip(bounds, bounds[1:]) if x.size else [(0, 0)]:
        sums.push(x[lo:hi])
        ready = sums.ready()
        stop = min(sums.done + pops, ready) if pops is not None and hi < x.size else ready
        out.append(sums.pop(stop))
    out.append(sums.pop())
    return np.concatenate(out)


# Values that make rounding visible: large and tiny magnitudes, exact zeros and negative zeros.
chunked_values = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, 0.3])), max_size=120
)
cut_lists = st.lists(st.integers(0, 120), max_size=12)


class TestStreamedSums:
    """Window sums from a prefix sum carried chunk to chunk are the whole sequence's sums, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(chunked_values, st.integers(1, 30), st.data(), cut_lists, st.one_of(st.none(), st.integers(0, 5)))
    @example([0.5] * 10, 4, None, [2, 3, 7], None)  # cuts inside one window, rows shorter than w
    @example([0.5, -0.0, 0.25], 1, None, [1, 2], 0)  # w = 1, one-lag rows, nothing popped early
    @example([], 3, None, [], None)  # an empty sequence
    def test_any_cuts_give_the_whole_sequence_sums(self, values, w, data, cuts, pops):
        x = np.asarray(values, dtype=float)
        lead = 0 if data is None else data.draw(st.integers(0, w - 1), label="lead")
        of = None if data is None else data.draw(st.sampled_from([None, np.square, np.absolute]), label="of")
        mean = data is not None and data.draw(st.booleans(), label="mean")
        whole = reference_window_sums(x, w, lead, mean, of)
        streamed = pushed_in_chunks(_WindowSums(x.size, w, lead, mean, of), x, cuts, pops)
        assert streamed.tobytes() == whole.tobytes()
        if of is np.square and lead == 0 and not mean:
            assert np.array_equal(streamed, reference_window_energy(x, w))
        if mean and lead == (w - 1) // 2 and w > 1:
            assert np.array_equal(streamed, reference_moving_average(x if of is None else of(x), w))

    @settings(max_examples=300, deadline=None)
    @given(chunked_values, st.integers(0, 30), st.booleans(), cut_lists)
    @example([0.1, -0.5, 0.2, 0.9], 0, True, [1, 3])  # w = 0 and w = 1 are the lag itself
    @example([0.1, -0.5, 0.2, 0.9], 1, False, [2])
    @example([0.3] * 9 + [-0.7] * 9, 7, True, [3, 4, 12])  # rows shorter than the window, one cut inside it
    def test_box_means_in_rows_equal_moving_average(self, values, w, rectify, cuts):
        x = np.asarray(values, dtype=float)
        box = _BoxMean(x.size, w, rectify)
        bounds = sorted({0, x.size, *(c for c in cuts if 0 < c < x.size)})
        streamed = np.concatenate([box.push(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] or [np.empty(0)])
        whole = moving_average(CorrelationTrace(x, SR), max(w, 0.4) / SR, rectify).values
        assert streamed.tobytes() == whole.tobytes()
        assert np.array_equal(streamed, reference_moving_average(np.abs(x) if rectify else x, w))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_energy_carried_across_batches_equals_index_array_formula(self, workers, monkeypatch):
        # The lead-0 energy each batch gets from the running prefix sum, one block per batch.
        rng = np.random.default_rng(26 + workers)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        for m in (1, 5, 37):
            n = 9 * block_step(m) + int(rng.integers(0, block_step(m)))
            monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, m) * workers)
            s = rng.uniform(-1, 1, n) * rng.choice([1.0, 1e-9], n)  # quiet stretches reach the clamp
            p = rng.uniform(-1, 1, m)
            denom = np.sqrt(np.maximum(reference_window_energy(s, m), EPS_ENERGY) * sum_of_squares(p))
            expected = np.clip(_sliding_dot(s, [p])[0] / denom, -1.0, 1.0)
            assert np.array_equal(normalized_cross_correlate(clip(s), clip(p)).values, expected), m

    def test_one_running_sum_per_call(self, monkeypatch):
        pushed, real_push = [], _WindowSums.push

        def push_spy(self, x):
            pushed.append((self.w, self.of, x.size))
            return real_push(self, x)

        n = 4 * block_step(50)
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", 3 * _fft_length(n, 50))
        monkeypatch.setattr(_WindowSums, "push", push_spy)
        rng = np.random.default_rng(27)
        normalized_cross_correlate(clip(rng.uniform(-1, 1, n)), clip(rng.uniform(-1, 1, 50)))
        assert len(pushed) > 3 and {(w, of) for w, of, _ in pushed} == {(50, np.square)}
        assert sum(size for _, _, size in pushed) == n  # each sample squared once


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
    """The engine's one entry for a dictionary: every decision it returns is read off the traces it keeps."""

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
        kept = []
        peaks, runs = scan_group(s, impulses, continuous, 0.5, 0.3, kept)
        assert len(peaks) == len(runs) == 2 and len(kept) == 4  # impulses first
        for (lags, values), (trace, averaged) in zip(peaks, kept[:2]):
            assert averaged is None and lags.size > 0
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(trace, 0.5)
        for p, found, (trace, averaged) in zip(continuous, runs, kept[2:]):
            assert averaged.values.tobytes() == moving_average(trace, p.duration_s, rectify=True).values.tobytes()
            assert found.starts.size > 0
            assert list(zip(*(column.tolist() for column in found))) == reference_runs(averaged.values, 0.3)
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
    )
    @example(["quiet", "loud", "tone", "quiet"], 0.5, 2, 0, [2, 0, 1], 1)  # dead first and last blocks
    @example(["loud"], 0.3, 1, 1, [0, 1, 2], 1)  # a one-block take
    @example(["zero", "tone", "zero", "loud", "noise"], 0.9, 3, 2, [2, 1, 0], 1)  # exact zeros, the last pattern a tone
    @example(["quiet", "loud", "quiet", "tone", "quiet"], 0.5, 1, 3, [2, 0, 1], 3)  # live blocks moved within a batch
    @example(["noise", "mixed", "quiet"], 0.5, 2, 4, [0, 1, 2], 1)  # a block that only its quietest windows keep live
    def test_peaks_equal_the_unscreened_reference(self, kinds, threshold, workers, seed, order, per_batch):
        rng = np.random.default_rng(seed)
        patterns = screen_patterns(rng, order)
        n = (len(kinds) - 1) * SCREEN_STEP + int(rng.integers(SCREEN_M, SCREEN_STEP + 1))
        s = block_take(rng, kinds, patterns, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_WORKERS", workers)
            mp.setattr(correlate, "_BATCH_SAMPLES", _fft_length(n, SCREEN_M) * workers * per_batch)
            screened, _ = scan_group(s, patterns, (), threshold, threshold)
            kept = []
            unscreened, _ = scan_group(s, patterns, (), threshold, threshold, kept)
        for p, (lags, values), (kept_lags, kept_values), (trace, _) in zip(patterns, screened, unscreened, kept):
            reference = normalized_cross_correlate(s, p)
            assert trace.values.tobytes() == reference.values.tobytes()
            assert np.array_equal(lags, kept_lags) and np.array_equal(values, kept_values)
            assert list(zip(lags.tolist(), values.tolist())) == find_local_maxima(reference, threshold)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clipped_plateau_between_dead_blocks(self, workers, monkeypatch):
        """A run of 1.0 fills two live blocks; the blocks before and after it are dead, and their stand-ins bound it.

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
        stand_ins, real_quiet = [], correlate._quiet_row

        def quiet_spy(lo):
            stand_ins.append(lo)
            return real_quiet(lo)

        monkeypatch.setattr(correlate, "_quiet_row", quiet_spy)
        trace = normalized_cross_correlate(clip(s), pattern)
        assert np.all(trace.values[step : 3 * step] == 1.0)
        for threshold in (0.5, 0.9):
            stand_ins.clear()
            (lags, values), = scan_group(clip(s), [pattern], (), threshold, threshold)[0]
            assert trace.values[step - 1] < threshold and trace.values[3 * step] < threshold
            assert {0, 3 * step} <= set(stand_ins)  # the blocks on either side of the plateau were screened out
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
        scan_group(s, tones, (), 0.5, 0.5, [])  # kept traces are never screened
        assert sum(rows) == blocks * len(tones)
        rows.clear()
        scan_group(s, [], tones, 0.5, 0.5)  # nor are continuous patterns
        assert sum(rows) == blocks * len(tones)
        burst = clip(rng.uniform(-1, 1, SCREEN_M))
        nfft = _fft_length(s.samples.size, SCREEN_M)
        assert correlate._noise_ratio(np.conj(np.fft.rfft(burst.samples, nfft)), nfft, SCREEN_M, 0.5) >= correlate._NOISE_GATE
        rows.clear()
        scan_group(s, [burst], (), 0.5, 0.5)  # nor is a pattern that fails the gate
        assert sum(rows) == blocks
