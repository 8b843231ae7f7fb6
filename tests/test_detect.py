import importlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundcue import (
    AudioClip,
    Candidate,
    Candidates,
    DetectionError,
    DetectorConfig,
    GroundTruth,
    PatternKind,
    PlantedInstance,
    SoundPattern,
    detect,
    find_local_maxima,
    make_pattern,
    place_instances,
    resample,
    serialize,
    strength,
    suppress,
)
from soundcue import correlate
from soundcue.correlate import (
    EPS_ENERGY,
    CorrelationTrace,
    Runs,
    _fft_length,
    moving_average,
    normalized_cross_correlate,
    sum_of_squares,
    window_energy,
)
from conftest import SR, Recorder, reference_moving_average, reference_runs, reference_window_energy, silent_clip


EPS = np.finfo(float).eps
LAYOUT_ULPS = 16


def layout_bound(s, m):
    """Per lag, how far an m-sample pattern's correlation may move when the take is cut into other blocks.

    In one pass with longer patterns, a pattern's lags come from the
    longest one's blocks. The FFT's sliding dot product then moves by a
    few eps times the norms of the take and the pattern, so the
    normalized value moves by LAYOUT_ULPS * eps * sqrt(take energy /
    window energy) at most: a few ulps where the window holds sound, more
    only where rounding noise is divided by a near-silent window. The
    largest factor seen over 40 random dictionaries was 0.66, not 16.
    Its window energy comes from the longest one's blocks too, and moves
    by eps times its block's energy: that stays within the bound at the
    peaks compared here, not at a near-silent window after loud samples
    (`TestEntryPointsAgree` checks the two parts apart).
    """
    return LAYOUT_ULPS * EPS * np.sqrt(sum_of_squares(s.samples) / window_energy(s, m))


def reference_suppress(candidates, patterns):
    """Greedy suppression that tests every candidate against every kept one."""
    ordered = sorted(candidates, key=lambda c: (-c.correlation_value, c.lag_time_s, c.pattern_id))
    kept = []
    for cand in ordered:
        clear = all(
            abs(cand.lag_time_s - other.lag_time_s) > patterns[other.pattern_id].duration_s / 2
            for other in kept
        )
        if clear:
            kept.append(cand)
    return sorted(kept, key=lambda c: (c.lag_time_s, c.pattern_id))


def bisect_suppress(candidates, patterns):
    """Greedy suppression that bisects the sorted kept times for the neighbours that can reject a candidate.

    The large-input oracle: O(n log n) for spread-out candidates, where
    `reference_suppress` is quadratic.
    """
    ordered = sorted(candidates, key=lambda c: (-c.correlation_value, c.lag_time_s, c.pattern_id))
    if not ordered:
        return []
    half = {pid: patterns[pid].duration_s / 2 for pid in {c.pattern_id for c in ordered}}
    reach = max(half.values())
    reach += 4 * math.ulp(reach + max(abs(c.lag_time_s) for c in ordered))
    kept_times, kept_halves, kept = [], [], []  # kept_times sorted, kept_halves beside them
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


def candidate_arrays(candidates):
    """The `Candidate`s as `Candidates` arrays, their pattern ids in order of first appearance."""
    candidates = list(candidates)
    index = {pid: i for i, pid in enumerate(dict.fromkeys(c.pattern_id for c in candidates))}
    return Candidates(
        tuple(index),
        [index[c.pattern_id] for c in candidates],
        [c.lag_time_s for c in candidates],
        [c.correlation_value for c in candidates],
    )


def suppressed(candidates, patterns):
    """`suppress` on a list of `Candidate`s, its survivors as a list."""
    return list(suppress(candidate_arrays(candidates), patterns))


def constant_pattern(pattern_id, n, sample_rate_hz):
    """An impulse pattern lasting exactly n / sample_rate_hz seconds."""
    return SoundPattern(pattern_id, AudioClip(np.full(n, 0.5), sample_rate_hz), PatternKind.IMPULSE)


# Durations 1/16, 1/8, 1/4 s are dyadic, so times on the 1/64 s grid below
# land exactly half a duration apart; 0.1 s and 0.25 s have inexact halves.
SUPPRESS_PATTERNS = {
    "a": constant_pattern("a", 4, 64),
    "b": constant_pattern("b", 8, 64),
    "c": constant_pattern("c", 16, 64),
    "d": constant_pattern("d", 10, 100),
    "e": constant_pattern("e", 25, 100),
}
# Grid times, grid times nudged by a few ulps (rounding at a bisection edge),
# and arbitrary times.
candidate_times = st.one_of(
    st.integers(0, 192).map(lambda k: k / 64),
    st.builds(lambda k, d: k / 100 + d * math.ulp(k / 100), st.integers(0, 300), st.integers(-8, 8)),
    st.floats(0.0, 3.0),
)
candidate_sets = st.lists(
    st.builds(
        Candidate,
        st.sampled_from(sorted(SUPPRESS_PATTERNS)),
        candidate_times,
        st.one_of(st.sampled_from([0.6, 0.75, 0.9]), st.floats(0.5, 1.0)),  # value ties
    ),
    max_size=60,
)


def plant(clips, planted, duration=6.0, noise=0.0, seed=1, allow_overlap=False):
    plan = GroundTruth(
        duration_s=duration,
        sample_rate_hz=SR,
        seed=seed,
        noise_rms=noise,
        planted=tuple(planted),
        allow_overlap=allow_overlap,
    )
    return place_instances(clips, plan)


def impulse_candidates(s, pattern):
    """The suppressed candidates `detect` finds for one impulse pattern, as its events."""
    return list(detect(s, [pattern]).tracks[0].events)


class TestImpulseCandidates:
    def test_silence_is_empty(self, dictionary):
        assert impulse_candidates(silent_clip(2.0), dictionary["tick"]) == []

    def test_two_exact_copies(self, dictionary):
        tick = dictionary["tick"]
        s = plant({"tick": tick.clip}, [PlantedInstance("tick", onset_s=0.5), PlantedInstance("tick", onset_s=1.2)])
        candidates = impulse_candidates(s, tick)
        assert len(candidates) == 2
        for got, expected in zip(candidates, (0.5, 1.2)):
            assert abs(got.t_s - expected) <= 1 / SR
            assert got.peak_correlation == pytest.approx(1.0, abs=1e-6)

    def test_quiet_copy_in_noise(self, dictionary):
        tick = dictionary["tick"]
        s = plant({"tick": tick.clip}, [PlantedInstance("tick", onset_s=0.8, amplitude=0.3)], noise=0.03)
        candidates = impulse_candidates(s, tick)
        assert len(candidates) == 1
        assert abs(candidates[0].t_s - 0.8) < 0.005


class TestEnergyBits:
    """Energies are summed on the calling thread, so their bits do not depend on how many threads BLAS may use."""

    SCRIPT = """
import numpy as np
from soundcue import AudioClip, PatternKind, SoundPattern, strength
rng = np.random.default_rng(5)
for n in (10_001, 50_000, 200_000):
    window = AudioClip(rng.uniform(-1, 1, n), 44100)
    pattern = SoundPattern("p", AudioClip(rng.uniform(-1, 1, 20_000), 44100), PatternKind.CONTINUOUS)
    print(strength(window, pattern).hex())
"""

    def test_strength_bits_equal_with_one_blas_thread(self):
        src = str(Path(importlib.import_module("soundcue").__file__).resolve().parents[1])
        outputs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert len(outputs[0].split()) == 3 and outputs[0] == outputs[1]


class TestSuppress:
    def pattern(self, pattern_id, duration_s):
        clip = make_pattern("tonal_burst", duration_s, seed=hash(pattern_id) % 100, sample_rate_hz=SR)
        return SoundPattern(pattern_id, clip, PatternKind.IMPULSE)

    def test_single_candidate_survives(self):
        patterns = {"a": self.pattern("a", 0.2)}
        cands = [Candidate("a", 1.0, 0.9)]
        assert suppressed(cands, patterns) == cands

    def test_weaker_candidate_inside_window_removed(self):
        patterns = {"a": self.pattern("a", 0.2), "b": self.pattern("b", 0.2)}
        survivors = suppressed([Candidate("a", 1.00, 0.9), Candidate("b", 1.05, 0.7)], patterns)
        assert survivors == [Candidate("a", 1.00, 0.9)]

    def test_disjoint_windows_coexist(self):
        patterns = {"a": self.pattern("a", 0.2), "b": self.pattern("b", 0.2)}
        cands = [Candidate("a", 1.0, 0.6), Candidate("b", 2.0, 0.95)]
        assert suppressed(cands, patterns) == cands

    def test_pairwise_gap_property(self):
        rng = np.random.default_rng(17)
        patterns = {p: self.pattern(p, d) for p, d in (("a", 0.1), ("b", 0.25), ("c", 0.4))}
        cands = [
            Candidate(rng.choice(list(patterns)), float(rng.uniform(0, 5)), float(rng.uniform(0.5, 1.0)))
            for _ in range(120)
        ]
        survivors = suppressed(cands, patterns)
        for i, a in enumerate(survivors):
            for b in survivors[i + 1 :]:
                gap = abs(a.lag_time_s - b.lag_time_s)
                smallest = min(patterns[a.pattern_id].duration_s, patterns[b.pattern_id].duration_s)
                assert gap > smallest / 2

    def test_tie_broken_by_time_then_id(self):
        patterns = {"a": self.pattern("a", 0.2), "b": self.pattern("b", 0.2)}
        survivors = suppressed([Candidate("b", 1.05, 0.8), Candidate("a", 1.0, 0.8)], patterns)
        assert survivors == [Candidate("a", 1.0, 0.8)]

    @settings(max_examples=400, deadline=None)
    @given(candidate_sets)
    # A kept candidate within its half duration of a later one, but just
    # below the rounded window start t - 0.05 or past the window end t + 0.125.
    @example([Candidate("d", 0.009999999999999992, 0.9), Candidate("d", 0.06, 0.8)])
    @example([Candidate("e", 0.17500000000000002, 0.9), Candidate("e", 0.05, 0.8)])
    # A kept candidate earlier than one kept before it: the kept times must stay sorted.
    @example([Candidate("a", 0.453125, 0.9), Candidate("a", 0.484375, 0.75), Candidate("c", 0.34375, 0.75)])
    # Exactly half a duration apart, which suppresses (the test is strict), and a time tie across patterns.
    @example([Candidate("b", 1.0, 0.9), Candidate("a", 1.0625, 0.9), Candidate("c", 1.0625, 0.8)])
    def test_matches_reference(self, candidates):
        assert suppressed(candidates, SUPPRESS_PATTERNS) == reference_suppress(candidates, SUPPRESS_PATTERNS)

    @pytest.mark.parametrize("shape", ["chain", "isolated", "pairs"])
    def test_worst_cases_match_bisect_oracle(self, shape):
        """Large inputs of the three shapes that bound the loop: a chain, lone candidates, close pairs.

        In the chain each candidate lies within half a duration of a slightly
        better one, so only every other one survives and no candidate is
        alone; isolated candidates are decided without the loop; in close
        pairs the loop runs once per pair.
        """
        d = SUPPRESS_PATTERNS["c"].duration_s  # 0.25 s
        rng = np.random.default_rng(31)
        if shape == "chain":
            n = 2000
            times = np.arange(n) * (0.4 * d)
            values = 0.99 - np.arange(n) * 1e-5
            ids = ["c"] * n
        elif shape == "isolated":
            n = 20000
            times = np.arange(n) * (1.5 * d)
            values = rng.uniform(0.5, 1.0, n)
            ids = rng.choice(sorted(SUPPRESS_PATTERNS), n).tolist()
        else:
            n = 20000
            times = np.repeat(np.arange(n // 2) * (1.5 * d), 2) + np.tile([0.0, 0.1 * d], n // 2)
            values = rng.choice([0.6, 0.75, 0.9], n)  # ties inside pairs
            ids = rng.choice(sorted(SUPPRESS_PATTERNS), n).tolist()
        cands = [Candidate(pid, float(t), float(v)) for pid, t, v in zip(ids, times, values)]
        arrays = candidate_arrays(cands)
        start = time.perf_counter()
        survivors = suppress(arrays, SUPPRESS_PATTERNS)
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        expected = bisect_suppress(cands, SUPPRESS_PATTERNS)
        oracle_elapsed = time.perf_counter() - start
        print(f"{shape}: {n} candidates, suppress {elapsed:.4f} s, bisect loop {oracle_elapsed:.4f} s")
        assert list(survivors) == expected
        assert len(survivors) == {"chain": n // 2, "isolated": n, "pairs": n // 2}[shape]

    @settings(max_examples=200, deadline=None)
    @given(candidate_sets)
    def test_bisect_oracle_matches_reference(self, candidates):
        assert bisect_suppress(candidates, SUPPRESS_PATTERNS) == reference_suppress(candidates, SUPPRESS_PATTERNS)

    def test_candidates_are_arrays_with_a_length(self):
        cands = [Candidate("b", 1.0, 0.8), Candidate("a", 0.5, 0.9), Candidate("b", 2.0, 0.7)]
        arrays = Candidates(("b", "a"), [0, 1, 0], [1.0, 0.5, 2.0], [0.8, 0.9, 0.7])
        assert len(arrays) == 3 and list(arrays) == cands
        assert arrays.pattern_ids == ("b", "a") and arrays.pattern_index.tolist() == [0, 1, 0]
        assert not arrays.lag_time_s.flags.writeable
        assert len(suppress(Candidates((), [], [], []), SUPPRESS_PATTERNS)) == 0
        with pytest.raises(ValueError):
            Candidates(("a",), [0, 1], [0.0, 1.0], [0.9, 0.9])  # index 1 names no pattern
        with pytest.raises(ValueError):
            Candidates(("a",), [0], [0.0, 1.0], [0.9])


# At its peak `detect` holds, beside the take, the ring of batch buffers (the spectra, products,
# inverse transforms and energies of one batch per worker: about 4 budgets), each pattern's
# spectrum and a boxcar's prefix sum: under 6 batch budgets, whatever the take's length.
PEAK_BUDGETS = 6


def continuous_intervals(s, pattern, cfg):
    """(t_begin_s, t_end_s) of each event `detect` finds for one continuous pattern."""
    return [(e.t_begin_s, e.t_end_s) for e in detect(s, [pattern], cfg).tracks[0].events]


class TestContinuous:
    def test_silence_is_empty(self, dictionary):
        assert continuous_intervals(silent_clip(2.0), dictionary["chhh"], DetectorConfig()) == []

    def test_tiled_segment_recovered(self, dictionary):
        chhh = dictionary["chhh"]
        s = plant({"chhh": chhh.clip}, [PlantedInstance("chhh", t_begin_s=2.0, t_end_s=3.0)])
        intervals = continuous_intervals(s, chhh, DetectorConfig())
        assert len(intervals) == 1
        (t_begin, t_end), dt = intervals[0], chhh.duration_s
        assert abs(t_begin - 2.0) <= dt
        assert abs(t_end - 3.0) <= dt

    def test_short_segment_filtered_by_min_duration(self):
        clip = make_pattern("tonal_burst", 0.02, seed=4, sample_rate_hz=SR)
        pattern = SoundPattern("zip", clip, PatternKind.CONTINUOUS)
        s = plant({"zip": clip}, [PlantedInstance("zip", t_begin_s=1.0, t_end_s=1.05)])
        cfg = DetectorConfig(continuous_min_duration_s=0.15)
        assert continuous_intervals(s, pattern, cfg) == []
        # the same construction passes once the filter allows short events
        relaxed = DetectorConfig(continuous_min_duration_s=0.0)
        assert len(continuous_intervals(s, pattern, relaxed)) == 1


class TestStrength:
    def test_reference_instance_is_one(self, dictionary):
        tick = dictionary["tick"]
        assert strength(tick.clip, tick) == pytest.approx(1.0)

    def test_half_amplitude(self, dictionary):
        tick = dictionary["tick"]
        half = AudioClip(0.5 * tick.clip.samples, SR)
        assert strength(half, tick) == pytest.approx(0.5)

    def test_repeated_instance_is_sqrt_two(self, dictionary):
        tick = dictionary["tick"]
        doubled = AudioClip(np.concatenate([tick.clip.samples, tick.clip.samples]), SR)
        assert strength(doubled, tick) == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_homogeneity(self, dictionary):
        tick = dictionary["tick"]
        rng = np.random.default_rng(2)
        x = AudioClip(rng.uniform(-0.5, 0.5, 1000), SR)
        scaled = AudioClip(0.3 * x.samples, SR)
        assert strength(scaled, tick) == pytest.approx(0.3 * strength(x, tick), rel=1e-9)


class TestDetect:
    def test_silence_gives_empty_timeline(self, dictionary):
        tl = detect(silent_clip(3.0), list(dictionary.values()))
        assert tl.tracks[0].events == ()
        assert tl.duration_s == 3.0

    def test_figure_fixture_recovered(self, dictionary, figure_plan, figure_sequence):
        tl = detect(figure_sequence, list(dictionary.values()))
        events = tl.tracks[0].events
        impulses = [e for e in events if e.kind is PatternKind.IMPULSE]
        continuous = [e for e in events if e.kind is PatternKind.CONTINUOUS]
        expected_impulses = sorted(
            (p.pattern_id, p.onset_s) for p in figure_plan.planted if p.kind is PatternKind.IMPULSE
        )
        got_impulses = sorted((e.pattern_id, e.t_s) for e in impulses)
        assert len(got_impulses) == len(expected_impulses)
        for (gid, gt), (eid, et) in zip(got_impulses, expected_impulses):
            assert gid == eid
            assert abs(gt - et) < 0.010
        (seg,) = continuous
        dt = dictionary["chhh"].duration_s
        assert seg.pattern_id == "chhh"
        assert abs(seg.t_begin_s - 2.0) <= dt and abs(seg.t_end_s - 3.0) <= dt

    def test_absent_pattern_produces_no_events(self, dictionary):
        tick = dictionary["tick"]
        s = plant({"tick": tick.clip}, [PlantedInstance("tick", onset_s=1.0)])
        tl = detect(s, list(dictionary.values()))
        assert {e.pattern_id for e in tl.tracks[0].events} == {"tick"}

    def test_amplitude_invariance(self, dictionary, figure_sequence):
        patterns = list(dictionary.values())
        base = detect(figure_sequence, patterns)
        for a in (0.25, 0.5):
            scaled = detect(AudioClip(a * figure_sequence.samples, SR), patterns)
            base_events = base.tracks[0].events
            scaled_events = scaled.tracks[0].events
            assert [(e.pattern_id, e.onset_s, e.end_s) for e in base_events] == [
                (e.pattern_id, e.onset_s, e.end_s) for e in scaled_events
            ]
            for b, s_ in zip(base_events, scaled_events):
                assert s_.strength == pytest.approx(a * b.strength, rel=1e-6)

    def test_thresholds_filter_events(self, dictionary, figure_sequence):
        strict = DetectorConfig(impulse_threshold=0.999999, continuous_threshold=0.999999)
        tl = detect(figure_sequence, list(dictionary.values()), strict)
        assert tl.tracks[0].events == ()

    def test_reported_values_respect_thresholds(self, dictionary, figure_sequence):
        cfg = DetectorConfig()
        tl = detect(figure_sequence, list(dictionary.values()), cfg)
        for event in tl.tracks[0].events:
            if event.kind is PatternKind.IMPULSE:
                assert event.peak_correlation > cfg.impulse_threshold
            else:
                assert event.peak_correlation > cfg.continuous_threshold

    def test_deterministic_serialization(self, dictionary, figure_sequence):
        patterns = list(dictionary.values())
        first = serialize(detect(figure_sequence, patterns))
        second = serialize(detect(figure_sequence, patterns))
        assert first == second

    def test_pattern_resampled_to_sequence_rate(self, dictionary):
        tick = dictionary["tick"]
        s = plant({"tick": tick.clip}, [PlantedInstance("tick", onset_s=1.0)])
        from soundcue import resample

        lowrate = SoundPattern("tick", resample(tick.clip, 22050), PatternKind.IMPULSE)
        tl = detect(s, [lowrate])
        (event,) = tl.tracks[0].events
        assert abs(event.t_s - 1.0) < 0.005

    def test_impulse_window_clamped_at_end(self, dictionary):
        # the take ends two thirds into a tick: its [onset, onset + d] window runs past the end
        tick = dictionary["tick"]
        kept = 2 * len(tick.clip) // 3
        samples = np.zeros(SR)
        samples[-kept:] = tick.clip.samples[:kept]
        s = AudioClip(samples, SR)
        (event,) = detect(s, [tick]).tracks[0].events
        assert event.t_s + tick.duration_s > s.duration_s
        assert event.strength == pytest.approx(strength(AudioClip(tick.clip.samples[:kept], SR), tick), rel=1e-12)

    def test_without_suppression_every_candidate_is_an_event(self, dictionary, figure_sequence):
        patterns = list(dictionary.values())
        cfg = DetectorConfig(suppression=False)
        candidates = sorted(
            (pattern.id, lag / SR, value)
            for pattern in patterns
            if pattern.kind is PatternKind.IMPULSE
            for lag, value in find_local_maxima(
                normalized_cross_correlate(figure_sequence, pattern.clip), cfg.impulse_threshold
            )
        )
        events = detect(figure_sequence, patterns, cfg).tracks[0].events
        impulses = sorted(
            (e.pattern_id, e.t_s, e.peak_correlation) for e in events if e.kind is PatternKind.IMPULSE
        )
        # The dictionary mixes lengths: each pattern's lags come from the longest one's blocks.
        assert [(pid, t) for pid, t, _ in impulses] == [(pid, t) for pid, t, _ in candidates]
        bounds = {p.id: layout_bound(figure_sequence, len(p.clip)) for p in patterns}
        for (pid, t, got), (_, _, want) in zip(impulses, candidates):
            assert abs(got - want) <= bounds[pid][round(t * SR)]
        suppressed = detect(figure_sequence, patterns).tracks[0].events
        assert len(impulses) > len([e for e in suppressed if e.kind is PatternKind.IMPULSE])
        assert [e for e in events if e.kind is PatternKind.CONTINUOUS] == [
            e for e in suppressed if e.kind is PatternKind.CONTINUOUS
        ]

    def test_one_engine_call_and_one_prefix_per_block_per_take(self, dictionary, figure_sequence, monkeypatch):
        """The whole dictionary, of three lengths, goes through one engine call, which builds each block's prefix sum of s^2 once."""
        tick_twin = make_pattern("noise_burst", dictionary["tick"].duration_s, seed=11, sample_rate_hz=SR)
        chhh_twin = make_pattern("tonal_burst", dictionary["chhh"].duration_s, seed=12, sample_rate_hz=SR)
        patterns = [  # lengths interleaved: tick, chhh, poc, tick, chhh
            dictionary["tick"],
            dictionary["chhh"],
            dictionary["poc"],
            SoundPattern("tock", tick_twin, PatternKind.IMPULSE),
            SoundPattern("shhh", chhh_twin, PatternKind.CONTINUOUS),
        ]
        groups, built = [], []
        real_dot, real_prefix = correlate._sliding_dot, correlate._block_prefix

        def dot_spy(s, p, *args, **kwargs):
            groups.append(sorted(len(row) for row in p))
            return real_dot(s, p, *args, **kwargs)

        def prefix_spy(blocks, *args):
            built.append(blocks.shape)
            return real_prefix(blocks, *args)

        monkeypatch.setattr(correlate, "_WORKERS", 2)
        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        monkeypatch.setattr(correlate, "_block_prefix", prefix_spy)
        result = detect(figure_sequence, patterns)
        lengths = sorted(len(p.clip) for p in patterns)
        layout = correlate._Layout.of(len(figure_sequence), max(lengths))
        assert groups == [lengths] and len(set(lengths)) == 3  # one call for every length
        assert {nfft for _, nfft in built} == {layout.nfft}  # the longest pattern's blocks serve every length
        assert sum(k for k, _ in built) == layout.blocks  # every block's prefix built once
        assert len(built) == layout.batches  # in the workers, batch by batch
        assert {e.pattern_id for e in result.tracks[0].events} >= {"tick", "poc", "chhh"}

    def test_memory_holds_one_pattern_at_a_time(self, monkeypatch):
        """Without a recorder, `detect` holds the batches in flight beside the take, and no take-length array.

        With continuous patterns of two lengths among the patterns, the
        peak is a few batch budgets (8 * _BATCH_SAMPLES bytes each), the
        same on a 20 s and a 60 s take to within one budget. One
        take-length array is 1.7 budgets at 20 s and 5.0 at 60 s.
        """
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        patterns = [
            SoundPattern(f"{kind.value}_{i}", make_pattern("tonal_burst", d, seed=20 + i, sample_rate_hz=SR), kind)
            for i, (d, kind) in enumerate(
                ((0.1, PatternKind.IMPULSE), (0.2, PatternKind.CONTINUOUS),
                 (0.2, PatternKind.IMPULSE), (0.1, PatternKind.CONTINUOUS))
            )
        ]
        planted = [PlantedInstance("impulse_0", onset_s=2.0), PlantedInstance("impulse_2", onset_s=9.0),
                   PlantedInstance("continuous_1", t_begin_s=4.0, t_end_s=6.0),
                   PlantedInstance("continuous_3", t_begin_s=12.0, t_end_s=14.0)]
        budget = 8 * correlate._BATCH_SAMPLES
        peaks = {}
        for duration in (20.0, 60.0):
            s = plant({p.id: p.clip for p in patterns}, planted, duration=duration, noise=0.02)
            tracemalloc.start()
            try:
                events = detect(s, patterns).tracks[0].events
                _, peaks[duration] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert {e.pattern_id for e in events} == {p.id for p in patterns}
        assert max(peaks.values()) <= PEAK_BUDGETS * budget, peaks
        assert abs(peaks[60.0] - peaks[20.0]) <= budget, peaks

    def test_memory_holds_no_impulse_trace(self, monkeypatch):
        """Impulse patterns of one length hold the batches in flight, with their blocks' energies, never a trace."""
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", 1 << 17)  # small batches, so the take dominates
        patterns = [
            SoundPattern(f"cue{i}", make_pattern("tonal_burst", 0.1, seed=30 + i, sample_rate_hz=SR), PatternKind.IMPULSE)
            for i in range(4)
        ]
        planted = [PlantedInstance(f"cue{i % 4}", onset_s=1.0 + 1.5 * i) for i in range(12)]
        s = plant({p.id: p.clip for p in patterns}, planted, duration=20.0, noise=0.02)
        tracemalloc.start()
        try:
            events = detect(s, patterns).tracks[0].events
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted((e.pattern_id, round(e.t_s, 2)) for e in events) == sorted(
            (p.pattern_id, round(p.onset_s, 2)) for p in planted
        )
        assert peak <= 2 * s.samples.nbytes + 8 * correlate._BATCH_SAMPLES

    def test_empty_dictionary_rejected(self):
        with pytest.raises(DetectionError):
            detect(silent_clip(1.0), [])

    def test_duplicate_ids_rejected(self, dictionary):
        tick = dictionary["tick"]
        with pytest.raises(DetectionError):
            detect(silent_clip(1.0), [tick, tick])


@st.composite
def mixed_dictionaries(draw):
    """Impulse and continuous patterns of two lengths, one stored at half the take's rate."""
    patterns = []
    for i in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(PatternKind))
        duration = draw(st.sampled_from([0.02, 0.04]))
        rate = SR // 2 if i == 0 and draw(st.booleans()) else SR
        shape = draw(st.sampled_from(["tonal_burst", "noise_burst"]))
        clip = make_pattern(shape, duration, seed=draw(st.integers(0, 50)), sample_rate_hz=rate)
        patterns.append(SoundPattern(f"p{i}", clip, kind))
    return patterns


class TestEntryPointsAgree:
    """`detect` with a `record` callback decides as without one, and records the reference traces."""

    @settings(max_examples=30, deadline=None)
    @given(mixed_dictionaries(), st.data())
    def test_same_timeline(self, patterns, data):
        planted = []
        for k in range(data.draw(st.integers(0, 6))):
            pattern = data.draw(st.sampled_from(patterns))
            onset = 0.05 + 0.11 * k + data.draw(st.floats(0.0, 0.01))
            if pattern.kind is PatternKind.IMPULSE:
                planted.append(PlantedInstance(pattern.id, onset_s=round(onset, 4)))
            else:
                planted.append(PlantedInstance(pattern.id, t_begin_s=round(onset, 4), t_end_s=round(onset + 0.1, 4)))
        clips = {p.id: p.clip if p.clip.sample_rate_hz == SR else resample(p.clip, SR) for p in patterns}
        s = plant(clips, planted, duration=1.0, noise=data.draw(st.sampled_from([0.0, 0.05])), allow_overlap=True)
        cfg = DetectorConfig(
            impulse_threshold=data.draw(st.sampled_from([0.2, 0.5])),
            continuous_min_duration_s=0.0,
            suppression=data.draw(st.booleans()),
        )
        for workers in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(correlate, "_WORKERS", workers)
                mp.setattr(correlate, "_BATCH_SAMPLES", 1 << 14)  # one or two blocks a batch: several batches
                recorded = Recorder()
                batch = serialize(detect(s, patterns, cfg))
                assert batch == serialize(detect(s, patterns, cfg, record=recorded))
                assert sorted(pattern_id for pattern_id, averaged in recorded.batches if not averaged) == sorted(clips)
                one_length = len({len(clip) for clip in clips.values()}) == 1
                longest = max((clip.samples for clip in clips.values()), key=len)
                for pattern in patterns:
                    aligned = clips[pattern.id]  # at the take's rate
                    trace = CorrelationTrace(recorded.trace(pattern.id), SR)
                    reference = normalized_cross_correlate(s, aligned)
                    if one_length:  # the layout `normalized_cross_correlate` uses: the same bits
                        assert trace.values.tobytes() == reference.values.tobytes()
                    else:  # cut into the longest pattern's blocks, which its window energies are anchored at too
                        raw = correlate._whole(s.samples, [aligned.samples, longest])[0]
                        energies = np.maximum(reference_window_energy(s.samples, len(aligned), longest.size), EPS_ENERGY)
                        expected = np.clip(raw / np.sqrt(energies * sum_of_squares(aligned.samples)), -1.0, 1.0)
                        assert trace.values.tobytes() == expected.tobytes()
                        alone = correlate._whole(s.samples, [aligned.samples])[0]
                        norms = np.sqrt(sum_of_squares(s.samples) * sum_of_squares(aligned.samples))
                        assert np.all(np.abs(raw - alone) <= LAYOUT_ULPS * EPS * norms)
                    if pattern.kind is PatternKind.IMPULSE:
                        assert (pattern.id, True) not in recorded.batches
                    else:  # summed per block of the longest pattern's layout
                        averaged = recorded.trace(pattern.id, True)
                        expected = reference_moving_average(np.abs(trace.values), len(aligned), longest.size)
                        assert averaged.tobytes() == expected.tobytes()
                        if one_length:
                            assert averaged.tobytes() == moving_average(trace, aligned.duration_s, True).values.tobytes()


@st.composite
def dictionaries_of_several_lengths(draw):
    """Impulse and continuous patterns of two or three lengths, the first stored at half the take's rate."""
    durations = draw(st.lists(st.sampled_from([0.02, 0.03, 0.05]), min_size=2, max_size=3, unique=True))
    patterns = []
    for i in range(draw(st.integers(len(durations), 5))):
        # p0's length is its own: resampled, the same duration could be a sample off another's.
        duration = durations[i] if i < len(durations) else draw(st.sampled_from(durations[1:]))
        kind = (PatternKind.IMPULSE, PatternKind.CONTINUOUS)[i] if i < 2 else draw(st.sampled_from(PatternKind))
        shape = draw(st.sampled_from(["tonal_burst", "noise_burst"]))
        rate = SR // 2 if i == 0 else SR
        patterns.append(SoundPattern(f"p{i}", make_pattern(shape, duration, seed=draw(st.integers(0, 50)), sample_rate_hz=rate), kind))
    return patterns


class TestOnePass:
    """One engine pass over the whole dictionary decides as one `detect` per pattern length."""

    @settings(max_examples=25, deadline=None)
    @given(dictionaries_of_several_lengths(), st.data())
    def test_equals_the_union_of_one_detect_per_length(self, patterns, data):
        aligned = {p.id: p if p.clip.sample_rate_hz == SR else replace(p, clip=resample(p.clip, SR)) for p in patterns}
        planted = []
        for k in range(data.draw(st.integers(0, 6), label="instances")):
            pattern = data.draw(st.sampled_from(patterns), label="planted")
            onset = round(0.05 + 0.11 * k + data.draw(st.floats(0.0, 0.01), label="jitter"), 4)
            if pattern.kind is PatternKind.IMPULSE:
                planted.append(PlantedInstance(pattern.id, onset_s=onset))
            else:
                planted.append(PlantedInstance(pattern.id, t_begin_s=onset, t_end_s=round(onset + 0.1, 4)))
        noise = data.draw(st.sampled_from([0.0, 0.05]), label="noise")
        s = plant({pid: p.clip for pid, p in aligned.items()}, planted, duration=1.0, noise=noise, allow_overlap=True)
        cfg = DetectorConfig(
            impulse_threshold=data.draw(st.sampled_from([0.2, 0.5]), label="threshold"),
            continuous_min_duration_s=0.0,
            suppression=data.draw(st.booleans(), label="suppression"),
        )
        by_length = {}
        for pattern in patterns:
            by_length.setdefault(len(aligned[pattern.id].clip), []).append(pattern)
        assert 2 <= len(by_length) <= 3
        union = [
            event
            for group in by_length.values()
            for event in detect(s, group, replace(cfg, suppression=False)).tracks[0].events
        ]
        if cfg.suppression:  # suppression runs across lengths, over the union's impulse candidates
            candidates = candidate_arrays(
                Candidate(e.pattern_id, e.t_s, e.peak_correlation) for e in union if e.kind is PatternKind.IMPULSE
            )
            survivors = {(c.pattern_id, c.lag_time_s) for c in suppress(candidates, aligned)}
            union = [e for e in union if e.kind is PatternKind.CONTINUOUS or (e.pattern_id, e.t_s) in survivors]

        def order(event):
            return event.onset_s, event.end_s, event.pattern_id

        got, union = sorted(detect(s, patterns, cfg).tracks[0].events, key=order), sorted(union, key=order)
        assert [replace(e, peak_correlation=1.0) for e in got] == [replace(e, peak_correlation=1.0) for e in union]
        for event, expected in zip(got, union):
            m = len(aligned[event.pattern_id].clip)
            first = max(round(event.onset_s * SR) - m, 0)  # a box mean reads up to m lags before its run
            bound = layout_bound(s, m)[first : round(event.end_s * SR) + 1].max()
            assert abs(event.peak_correlation - expected.peak_correlation) <= bound


def cut_rows(n, cuts):
    bounds = sorted({0, n, *(c for c in cuts if 0 < c < n)})
    return list(zip(bounds, bounds[1:]))


class TestStreamedContinuous:
    """A continuous pattern's lags, box-averaged and thresholded batch by batch, decide the whole trace's intervals."""

    RATE = 100

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.2, 0.6, 0.9, -0.9, 1.0]), min_size=1, max_size=80),
        st.integers(1, 9),
        st.lists(st.integers(0, 80), max_size=8),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.sampled_from([0.0, 0.05, 0.15]),
    )
    @example([0.0] * 3 + [0.9] * 4 + [0.0] * 3, 1, [5], 0.5, 0.0)  # a run that crosses a batch edge
    @example([0.0] * 3 + [0.9] * 6 + [0.0] * 3, 1, [4, 7], 0.5, 0.0)  # a run that fills a whole batch
    @example([0.0] * 5 + [-0.9] * 4, 3, [6, 8], 0.5, 0.0)  # a run that touches the end of the take
    @example([0.9] * 3 + [0.0] + [0.9] * 3, 2, [2, 5], 0.5, 0.0)  # two runs whose supports touch
    def test_rows_decide_like_the_whole_trace(self, values, w, cuts, threshold, min_duration):
        """Blocks of w + 1 lags, in batches cut at the blocks that hold the cuts."""
        detect_module = importlib.import_module("soundcue.detect")
        v, rate = np.asarray(values, dtype=float), self.RATE
        pattern = SoundPattern("c", AudioClip(np.full(w, 0.5), rate), PatternKind.CONTINUOUS)
        cfg = DetectorConfig(continuous_threshold=threshold, continuous_min_duration_s=min_duration)
        step = w + 1
        blocks = -(-v.size // step)
        rows = np.concatenate((v, np.zeros(blocks * step - v.size))).reshape(blocks, step)
        box = correlate._Box(v.size, w, threshold)
        for lo, hi in cut_rows(blocks, [c // step for c in cuts]):
            batch = rows[lo:hi].copy()
            box.push([box.found(batch, lo)], min(hi * step, v.size))  # a worker writes the means over the lags
        duration = v.size / rate
        streamed = detect_module._continuous_intervals(box.decided(), pattern, cfg, rate, duration)
        averaged = reference_moving_average(np.abs(v), w, step=step)
        rows = reference_runs(averaged, threshold)
        whole_runs = Runs(*(np.array([row[k] for row in rows]) for k in range(3)))
        whole = detect_module._continuous_intervals(whole_runs, pattern, cfg, rate, duration)
        assert streamed == whole

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_block_per_batch_decides_like_the_default(self, dictionary, workers, monkeypatch):
        shhh = make_pattern("tonal_burst", dictionary["tick"].duration_s, seed=13, sample_rate_hz=SR)
        patterns = [*dictionary.values(), SoundPattern("shhh", shhh, PatternKind.CONTINUOUS)]
        planted = [
            PlantedInstance("tick", onset_s=0.5),
            PlantedInstance("chhh", t_begin_s=2.0, t_end_s=3.5),  # across the first block edge
            PlantedInstance("shhh", t_begin_s=4.0, t_end_s=4.6),
            PlantedInstance("poc", onset_s=5.2),
            PlantedInstance("chhh", t_begin_s=7.9, t_end_s=9.0),  # to the end of the take
        ]
        s = plant({p.id: p.clip for p in patterns}, planted, duration=9.0, noise=0.02)
        cfg = DetectorConfig(continuous_min_duration_s=0.0)
        default = detect(s, patterns, cfg).tracks[0].events
        assert {e.pattern_id for e in default if e.kind is PatternKind.CONTINUOUS} == {"chhh", "shhh"}
        m = len(dictionary["chhh"].clip)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(len(s), m) * workers)
        assert -(-len(s) // (_fft_length(len(s), m) - m + 1)) >= 3  # chhh's batches, one block each
        assert detect(s, patterns, cfg).tracks[0].events == default

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_recorded_scan_picks_impulse_peaks_as_the_plain_one(self, dictionary, workers, monkeypatch):
        """Under `record`, only continuous clips get a `_Box`, and the impulse peaks are the plain scan's.

        A constant "knock" scores exactly 1.0 on a constant stretch whose
        windows cross the first batch edge (one block per batch): the
        plateau is carried across it. Samples are multiples of 2^-10, so
        the window energies there are exact.
        """
        m = 3000
        knock = SoundPattern("knock", AudioClip(np.full(m, 0.5), SR), PatternKind.IMPULSE)
        patterns = [dictionary["tick"], knock, dictionary["chhh"]]
        s = np.round(np.random.default_rng(70).uniform(-0.035, 0.035, 3 * SR) * 1024) / 1024
        step = correlate._Layout.of(s.size, len(dictionary["chhh"].clip)).step
        lo, hi = step - 200, step + 199  # the lags whose windows lie in the stretch
        s[lo - 1] = s[hi + m] = 0.0
        s[lo : hi + m] = 2.0**-10
        planted = [PlantedInstance("tick", onset_s=1.4), PlantedInstance("chhh", t_begin_s=1.9, t_end_s=2.9)]
        s = AudioClip(s + plant({p.id: p.clip for p in patterns}, planted, duration=3.0).samples, SR)  # past block 1
        built, real_box = [], correlate._Box

        def box_spy(*args, **kwargs):
            built.append(real_box(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(correlate, "_Box", box_spy)
        monkeypatch.setattr(correlate, "_WORKERS", workers)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", _fft_length(len(s), len(dictionary["chhh"].clip)) * workers)
        cfg = DetectorConfig(continuous_min_duration_s=0.0)
        plain = detect(s, patterns, cfg).tracks[0].events
        recorded = Recorder()
        events = detect(s, patterns, cfg, record=recorded).tracks[0].events
        assert len(built) == 2 and {box.w for box in built} == {len(dictionary["chhh"].clip)}  # chhh's, once per scan
        assert events == plain
        assert recorded.batches.keys() == {("tick", False), ("knock", False), ("chhh", False), ("chhh", True)}
        trace = recorded.trace("knock")
        assert np.all(trace[lo : hi + 1] == 1.0) and trace[lo - 1] < 1.0 and trace[hi + 1] < 1.0
        assert {"tick", "knock", "chhh"} <= {e.pattern_id for e in plain}
        assert any(e.pattern_id == "knock" and e.t_s == (lo + hi) // 2 / SR for e in plain)

    def test_traces_and_events_independent_of_workers_and_batches(self, dictionary, monkeypatch):
        """A three-length group's NCC and box-mean bytes and its events are the same on 1, 2 or 3 workers
        with batches of one block up to the default budget: each block's energies are its own."""
        shhh = make_pattern("tonal_burst", dictionary["tick"].duration_s, seed=13, sample_rate_hz=SR)
        patterns = [*dictionary.values(), SoundPattern("shhh", shhh, PatternKind.CONTINUOUS)]
        planted = [
            PlantedInstance("tick", onset_s=0.5),
            PlantedInstance("chhh", t_begin_s=2.0, t_end_s=3.5),
            PlantedInstance("shhh", t_begin_s=4.0, t_end_s=4.6),
            PlantedInstance("poc", onset_s=5.2, amplitude=0.01),  # quiet beside loud blocks
            PlantedInstance("tick", onset_s=7.0, amplitude=0.05),
        ]
        s = plant({p.id: p.clip for p in patterns}, planted, duration=9.0, noise=0.02)
        cfg = DetectorConfig(continuous_min_duration_s=0.0)
        assert len({len(p.clip) for p in patterns}) == 3
        layout = correlate._Layout.of(len(s), max(len(p.clip) for p in patterns))
        results, batches = [], set()
        for workers in (1, 2, 3):
            for budget in (layout.nfft, 2 * layout.nfft, 3 * layout.nfft, correlate._BATCH_SAMPLES):
                with monkeypatch.context() as patch:
                    patch.setattr(correlate, "_WORKERS", workers)
                    patch.setattr(correlate, "_BATCH_SAMPLES", budget)
                    batches.add(correlate._Layout.of(len(s), layout.m_max).batches)
                    recorded = Recorder()
                    events = detect(s, patterns, cfg, record=recorded).tracks[0].events
                    assert detect(s, patterns, cfg).tracks[0].events == events  # screened, without a recorder
                traces = {key: recorded.trace(*key).tobytes() for key in recorded.batches}
                results.append((traces, events))
        assert len(batches) >= 4 and len(results[0][0]) == 6  # four NCCs and two box means
        assert all(result == results[0] for result in results[1:])
