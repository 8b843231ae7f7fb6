import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundcue import (
    AnimationCurves,
    AnimationError,
    BallisticParams,
    EventInstance,
    FixedPlacement,
    LanePlacement,
    PatternKind,
    SquashParams,
    TailMode,
    UniformRectPlacement,
    curves_to_csv,
    sample,
    slide_segment,
    solve_bounce,
    spawn_from_impulses,
    squash_profile,
    steer_vertical,
)
from soundcue.animate import _time_blocks

G = 9.81


def impulse(t, strength=1.0):
    return EventInstance("tap", PatternKind.IMPULSE, t_s=t, strength=strength, peak_correlation=0.9)


def reference_scales(scale_functions, duration_s, fps):
    """Every scale function evaluated on every frame, multiplied in order."""
    times = np.arange(int(math.floor(duration_s * fps + 1e-9)) + 1) / fps
    scales = np.ones((times.size, 3))
    for fn in scale_functions:
        scales = scales * fn(times)
    return scales


# Impacts on the 1/64 s grid with dyadic squash durations put frames at 64 fps
# exactly on impact +/- half; the grid reaches t = 0 and past the sampled span.
bump_strategy = st.tuples(
    st.one_of(st.integers(0, 4 * 64).map(lambda k: k / 64), st.floats(0.0, 4.0)),
    st.floats(0.0, 2.5),
    st.sampled_from([2 / 64, 8 / 64, 0.15, 0.5, 1.0]),
)

# Strictly increasing bounce impacts; distinct floats may lie one ulp apart.
impact_times = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12, unique=True).map(sorted)


@st.composite
def steer_intervals(draw):
    """(ups, downs): the gaps between sorted breakpoints, each up, down or idle, so intervals touch or not."""
    points = sorted(draw(st.lists(st.floats(0.0, 30.0), min_size=2, max_size=12, unique=True)))
    labels = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=len(points) - 1, max_size=len(points) - 1))
    gaps = list(zip(points, points[1:]))
    return [g for g, d in zip(gaps, labels) if d == 1], [g for g, d in zip(gaps, labels) if d == -1]


def around(times):
    """Each time and the floats one ulp below and above it, none negative."""
    times = np.asarray(times, dtype=np.float64)
    near = np.concatenate((times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf)))
    return near[near >= 0.0]


class TestSolveBounce:
    def test_two_events_analytics(self):
        traj = solve_bounce([1.0, 2.0], BallisticParams(g=G))
        # take-off speed g*(t2-t1)/2, apex g*delta^2/8 at the midpoint
        z = traj.height(np.array([1.0, 1.5, 2.0]))
        assert z[0] == 0.0 and z[2] == 0.0
        assert z[1] == pytest.approx(1.22625, abs=1e-12)
        tau = 1e-6
        speed = traj.height(np.array([1.0 + tau]))[0] / tau
        assert speed == pytest.approx(4.905, abs=1e-4)

    def test_empty_events_rest(self):
        traj = solve_bounce([], BallisticParams())
        assert np.all(traj.height(np.linspace(0, 5, 100)) == 0.0)

    def test_single_event_free_fall(self):
        traj = solve_bounce([0.5], BallisticParams(g=G))
        assert traj.height(np.array([0.0]))[0] == pytest.approx(G * 0.25 / 2, abs=1e-12)
        assert traj.height(np.array([0.5]))[0] == 0.0

    def test_zero_at_every_event(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            times = np.cumsum(rng.uniform(0.05, 1.5, rng.integers(1, 15))) + rng.uniform(0, 1)
            traj = solve_bounce(times.tolist())
            assert np.max(np.abs(traj.height(times))) < 1e-9

    def test_nonnegative_between_events(self):
        traj = solve_bounce([0.3, 0.9, 1.0, 2.5])
        grid = np.linspace(0, 4, 20001)
        assert traj.height(grid).min() >= -1e-9

    def test_tail_rest(self):
        traj = solve_bounce([1.0, 2.0], BallisticParams(tail_mode=TailMode.REST))
        assert np.all(traj.height(np.linspace(2.0, 5.0, 50)) <= 1e-12)

    def test_tail_repeats_last_interval(self):
        traj = solve_bounce([1.0, 2.0], BallisticParams(tail_mode=TailMode.REPEAT_LAST_INTERVAL))
        assert traj.height(np.array([2.5]))[0] == pytest.approx(1.22625, abs=1e-12)
        assert traj.height(np.array([3.0]))[0] == 0.0
        assert np.all(traj.height(np.linspace(3.0, 5.0, 20)) == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(impact_times, st.sampled_from(list(TailMode)), st.floats(0.1, 50.0))
    def test_floor_hits_property(self, times, tail_mode, g):
        traj = solve_bounce(times, BallisticParams(g=g, tail_mode=tail_mode))
        impacts = list(times)
        if tail_mode is TailMode.REPEAT_LAST_INTERVAL and len(times) >= 2:
            impacts.append(times[-1] + (times[-1] - times[-2]))  # the repeated interval's landing
        assert np.all(traj.height(np.asarray(impacts)) == 0.0)
        grid = np.concatenate((np.linspace(0.0, impacts[-1] + 1.0, 4001), around(impacts)))
        assert traj.height(grid).min() >= 0.0

    def test_unsorted_events_rejected(self):
        with pytest.raises(AnimationError):
            solve_bounce([2.0, 1.0])
        with pytest.raises(AnimationError):
            solve_bounce([1.0, 1.0])


class TestSquashProfile:
    def test_identity_outside_window(self):
        profile = squash_profile(2.0, 1.0, SquashParams(amplitude=0.3, duration_s=0.15))
        scales = profile.scale(np.array([0.0, 1.9, 2.1, 5.0]))
        assert np.all(scales == 1.0)

    def test_full_squash_at_impact(self):
        profile = squash_profile(2.0, 1.0, SquashParams(amplitude=0.3, duration_s=0.15))
        sx, sy, sz = profile.scale(np.array([2.0]))[0]
        assert sz == pytest.approx(0.7)
        assert sx == sy == pytest.approx(1 / np.sqrt(0.7))

    def test_zero_strength_no_deformation(self):
        profile = squash_profile(2.0, 0.0, SquashParams(strength_scaling=True))
        assert np.all(profile.scale(np.array([2.0])) == 1.0)

    def test_strength_clamped(self):
        params = SquashParams(amplitude=0.3, strength_clamp=2.0)
        hard = squash_profile(1.0, 50.0, params)
        assert hard.scale(np.array([1.0]))[0][2] == pytest.approx(1 - 0.6)

    def test_volume_preserved_throughout(self):
        profile = squash_profile(1.0, 1.5, SquashParams())
        scales = profile.scale(np.linspace(0.8, 1.2, 500))
        assert np.max(np.abs(scales.prod(axis=1) - 1.0)) < 1e-9

    def test_degenerate_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SquashParams(amplitude=0.6, strength_clamp=2.0)


class TestSlideSegment:
    def test_linear_displacement(self):
        seg = slide_segment((1.0, 2.0), speed=1.0)
        x = seg.displacement(np.array([0.5, 1.0, 1.5, 2.0, 3.0]))
        assert x.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_zero_speed_still_squashes(self):
        seg = slide_segment((1.0, 2.0), speed=0.0, squash=SquashParams(amplitude=0.3))
        assert np.all(seg.displacement(np.linspace(0, 3, 10)) == 0.0)
        assert seg.scale(np.array([1.5]))[0][2] == pytest.approx(0.7)

    def test_squash_held_between_eases(self):
        seg = slide_segment((1.0, 2.0), speed=1.0, squash=SquashParams(amplitude=0.2))
        inner = seg.scale(np.linspace(1.06, 1.94, 50))
        assert np.max(np.abs(inner[:, 2] - 0.8)) < 1e-12
        edges = seg.scale(np.array([1.0, 2.0]))
        assert np.all(edges == 1.0)

    def test_volume_preserved(self):
        seg = slide_segment((0.5, 1.5), speed=2.0)
        scales = seg.scale(np.linspace(0, 2, 400))
        assert np.max(np.abs(scales.prod(axis=1) - 1.0)) < 1e-9

    def test_identity_outside_support(self):
        seg = slide_segment((0.3, 1.7), speed=1.0, squash=SquashParams(amplitude=0.4))
        assert seg.support == (0.3, 1.7)
        outside = np.array([-1.0, 0.0, np.nextafter(0.3, 0.0), 0.3, 1.7, np.nextafter(1.7, 2.0), 5.0])
        assert np.array_equal(seg(outside), np.ones((outside.size, 3)))
        inside = np.linspace(0.3, 1.7, 33)
        assert np.array_equal(seg(inside), seg.scale(inside))

    def test_reversed_interval_rejected(self):
        with pytest.raises(AnimationError):
            slide_segment((2.0, 1.0), speed=1.0)


class TestSteerVertical:
    def test_integrates_up(self):
        curve = steer_vertical([(1.0, 2.0)], [], speed=2.0, bounds=(0.0, 10.0))
        assert curve.height(np.array([2.0]))[0] == pytest.approx(2.0)
        assert curve.height(np.array([5.0]))[0] == pytest.approx(2.0)

    def test_clamped_at_bounds(self):
        curve = steer_vertical([(0.0, 10.0)], [], speed=2.0, bounds=(0.0, 3.0))
        assert curve.height(np.array([10.0]))[0] == 3.0
        down = steer_vertical([], [(0.0, 10.0)], speed=2.0, bounds=(-1.0, 3.0))
        assert down.height(np.array([10.0]))[0] == -1.0

    def test_no_intervals_constant(self):
        curve = steer_vertical([], [], speed=1.0, bounds=(0.0, 3.0), start_height=1.5)
        assert np.all(curve.height(np.linspace(0, 10, 20)) == 1.5)

    def test_descent_resumes_from_saturated_height(self):
        curve = steer_vertical([(0.0, 10.0)], [(11.0, 12.0)], speed=1.0, bounds=(0.0, 3.0))
        assert curve.height(np.array([12.0]))[0] == pytest.approx(2.0)

    def test_continuous_everywhere(self):
        curve = steer_vertical([(1.0, 2.0), (4.0, 5.0)], [(2.5, 3.5)], speed=3.0, bounds=(0.0, 2.0))
        t = np.linspace(0, 6, 60001)
        z = curve.height(t)
        assert np.max(np.abs(np.diff(z))) <= 3.0 * (t[1] - t[0]) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        steer_intervals(), st.floats(0.0, 20.0), st.floats(-5.0, 5.0), st.floats(1e-3, 10.0), st.floats(-20.0, 20.0)
    )
    def test_height_within_bounds_property(self, intervals, speed, z_min, span, start_height):
        ups, downs = intervals
        z_max = z_min + span
        curve = steer_vertical(ups, downs, speed, (z_min, z_max), start_height)
        grid = np.concatenate((np.linspace(0.0, 31.0, 4001), around([t for iv in ups + downs for t in iv])))
        z = curve.height(grid)
        assert np.all((z_min <= z) & (z <= z_max))

    def test_overlap_rejected_with_names(self):
        with pytest.raises(AnimationError) as err:
            steer_vertical([(1.0, 2.0)], [(1.5, 2.5)], speed=1.0, bounds=(0.0, 3.0))
        assert "[1.0, 2.0]" in str(err.value) and "[1.5, 2.5]" in str(err.value)


class TestSpawnFromImpulses:
    def test_linear_size(self):
        spawns = spawn_from_impulses([impulse(1.0, strength=1.0)], "dart", 0.1, 0.1, FixedPlacement(), 0)
        assert spawns[0].size == pytest.approx(0.2)
        assert spawns[0].t_s == 1.0

    def test_strength_ignored_when_slope_zero(self):
        events = [impulse(0.5, strength=0.3), impulse(1.5, strength=2.9)]
        spawns = spawn_from_impulses(events, "drop", 0.1, 0.0, FixedPlacement(), 0)
        assert [s.size for s in spawns] == [0.1, 0.1]

    def test_lane_placement(self):
        spawns = spawn_from_impulses([impulse(1.0)], "laser_high", 0.1, 0.0, LanePlacement(1.5), 0)
        assert spawns[0].position == (0.0, 0.0, 1.5)

    def test_seeded_positions_reproducible(self):
        events = [impulse(t) for t in (0.5, 1.0, 2.0)]
        rect = UniformRectPlacement((-5, 5), (-5, 5))
        first = spawn_from_impulses(events, "drop", 0.1, 0.1, rect, 42)
        second = spawn_from_impulses(events, "drop", 0.1, 0.1, rect, 42)
        assert [s.position for s in first] == [s.position for s in second]
        other = spawn_from_impulses(events, "drop", 0.1, 0.1, rect, 43)
        assert [s.position for s in first] != [s.position for s in other]
        for s in first:
            x, y, z = s.position
            assert -5 <= x <= 5 and -5 <= y <= 5 and z == 0.0

    def test_stream_per_entity_index(self):
        rect = UniformRectPlacement((-5, 5), (-5, 5))
        short = spawn_from_impulses([impulse(0.5)], "drop", 0.1, 0.0, rect, 7)
        longer = spawn_from_impulses([impulse(0.5), impulse(1.5)], "drop", 0.1, 0.0, rect, 7)
        assert short[0].position == longer[0].position


class TestSample:
    def test_constant_providers(self):
        curves = sample([], [], duration_s=1.0, fps=10)
        assert curves.times.tolist() == pytest.approx(np.arange(11) / 10)
        assert np.all(curves.positions == 0.0)
        assert np.all(curves.scales == 1.0)

    def test_bounce_apex_on_grid(self):
        traj = solve_bounce([1.0, 2.0], BallisticParams(g=G))
        curves = sample([traj.position], [], duration_s=3.0, fps=100)
        index = int(round(1.5 * 100))
        assert curves.times[index] == pytest.approx(1.5)
        assert curves.positions[index][2] == pytest.approx(1.22625, abs=1e-9)

    def test_overlapping_squashes_multiply_volume_one(self):
        p1 = squash_profile(1.0, 1.0, SquashParams(duration_s=0.5))
        p2 = squash_profile(1.1, 1.0, SquashParams(duration_s=0.5))
        curves = sample([], [p1.scale, p2.scale], duration_s=2.0, fps=200)
        volume = curves.scales.prod(axis=1)
        assert np.max(np.abs(volume - 1.0)) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        bumps=st.lists(bump_strategy, max_size=12),
        slides=st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 2.0), st.integers(0, 16).map(lambda k: k / 8)),  # on frames, or not
                st.one_of(st.floats(0.01, 2.0), st.sampled_from([0.125, 0.25, 1.0])),
                st.integers(0, 12),
            ),
            max_size=3,
        ),
        duration_s=st.integers(0, 24).map(lambda k: k / 8),
        fps=st.sampled_from([24.0, 60.0, 64.0, 100.0, 120.0]),
    )
    # Two overlapping bumps with a slide between them in provider order: any
    # other order of the three products changes the last bit of some frames.
    @example(bumps=[(0.74, 1.3, 0.5), (0.87, 1.4, 0.5)], slides=[(0.5, 1.0, 1)], duration_s=2.0, fps=60.0)
    def test_windowed_bumps_equal_all_frames_evaluation(self, bumps, slides, duration_s, fps):
        profiles = [squash_profile(t, strength, SquashParams(duration_s=d)) for t, strength, d in bumps]
        providers = list(profiles)
        functions = [p.scale for p in profiles]
        for begin, length, at in slides:  # held slide squashes among the bumps, at any place in provider order
            segment = slide_segment((begin, begin + length), speed=1.0)
            providers.insert(at, segment)
            functions.insert(at, segment.scale)
        curves = sample([], providers, duration_s, fps)
        assert np.array_equal(curves.scales, reference_scales(functions, duration_s, fps))

    @pytest.mark.parametrize(
        "impact, fps",
        [
            (1.0, 64.0),  # frames exactly at impact -/+ half
            (0.20833333333333334, 24.0),  # frame 2 lies below the rounded impact - half, yet passes the bump's test
            (0.08333333333333333, 24.0),  # frame 5 lies past the rounded impact + half, yet passes the bump's test
        ],
    )
    def test_bump_evaluated_on_its_own_frames(self, impact, fps):
        profile = squash_profile(impact, 1.0, SquashParams(duration_s=0.25))
        seen = []

        class Spy:
            support = profile.support

            def __call__(self, t):
                seen.append(t.copy())
                return profile(t)

        curves = sample([], [Spy()], duration_s=10.0, fps=fps)
        (frames,) = seen
        accepted = curves.times[np.abs(curves.times - impact) <= 0.125]
        assert np.isin(accepted, frames).all()
        assert frames.size <= accepted.size + 2

    def test_positions_sum(self):
        traj = solve_bounce([1.0, 2.0])
        seg = slide_segment((0.5, 1.5), speed=1.0)
        curves = sample([traj.position, seg.position], [], duration_s=2.0, fps=50)
        index = int(round(1.5 * 50))
        assert curves.positions[index][0] == pytest.approx(1.0)
        assert curves.positions[index][2] == pytest.approx(1.22625, abs=1e-9)


def reference_csv(curves):
    """One row per frame, each value converted and formatted on its own."""
    lines = ["t,px,py,pz,sx,sy,sz"]
    for i in range(curves.times.size):
        row = [curves.times[i], *curves.positions[i], *curves.scales[i]]
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


class TestCurvesCsv:
    @pytest.mark.parametrize("frames", [1, 4095, 4096, 4097, 2 * 4096 + 3])
    def test_matches_per_value_formatting(self, frames):
        traj = solve_bounce([0.31, 0.77, 5.0])
        seg = slide_segment((1.0, 2.5), speed=-0.7)
        bump = squash_profile(0.77, 1.3)
        curves = sample([traj.position, seg.position], [bump, seg.scale], duration_s=(frames - 1) / 100, fps=100)
        assert curves.times.size == frames
        assert curves_to_csv(curves) == reference_csv(curves)

    def test_header_and_rows(self):
        curves = sample([], [], duration_s=0.2, fps=10)
        text = curves_to_csv(curves)
        lines = text.splitlines()
        assert lines[0] == "t,px,py,pz,sx,sy,sz"
        assert len(lines) == 1 + 3
        assert lines[1] == "0.0,0.0,0.0,0.0,1.0,1.0,1.0"

    def test_roundtrip_floats(self):
        traj = solve_bounce([0.31, 0.77])
        curves = sample([traj.position], [], duration_s=1.0, fps=60)
        lines = curves_to_csv(curves).splitlines()[1:]
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert parsed[:, 3].tolist() == curves.positions[:, 2].tolist()


def _float(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Values where formatting is easy to get wrong: signed zeros, NaNs that
# differ only in sign or payload, infinities, subnormals, and the points
# where repr switches between positional and exponent notation.
EDGE_VALUES = [
    0.0, -0.0, math.nan, _float(0xFFF8000000000000), _float(0x7FF8000000000001), math.inf, -math.inf,
    5e-324, -2.225073858507201e-308, 1e16, 9999999999999998.0, 1e-05, 0.0001, -1e-05, 1 / 3, 1.0,
]
table_pools = st.lists(st.sampled_from(EDGE_VALUES) | st.floats(width=64), min_size=1, max_size=12)


def curves_of(table):
    return AnimationCurves("object", 100.0, table[:, 0], table[:, 1:4], table[:, 4:7])


class TestCurvesCsvFormatter:
    """`curves_to_csv` formats each distinct value once; its bytes stay those of `reference_csv`."""

    @settings(max_examples=30, deadline=None)
    @given(
        pool=table_pools,
        rows=st.sampled_from([1, 4095, 4096, 4097, 2 * 4096 + 3]),
        seed=st.integers(0, 2**32 - 1),
        distinct_share=st.sampled_from([0.0, 0.1, 1.0]),
    )
    # Signed zeros mixed in every column: a unique over float values would merge them.
    @example(pool=[-0.0, 0.0], rows=4097, seed=0, distinct_share=0.0)
    def test_matches_per_value_formatting(self, pool, rows, seed, distinct_share):
        rng = np.random.default_rng(seed)
        table = rng.choice(np.array(pool), size=(rows, 7))
        # Some cells take arbitrary bit patterns: all but never repeated.
        arbitrary = rng.random((rows, 7)) < distinct_share
        table[arbitrary] = rng.integers(0, 2**64, size=int(arbitrary.sum()), dtype=np.uint64).view(np.float64)
        curves = curves_of(table)
        assert curves_to_csv(curves) == reference_csv(curves)

    def test_equal_grids_share_the_formatted_time_column(self):
        _time_blocks.cache_clear()
        bounce = sample([solve_bounce([0.5, 1.25]).position], [], duration_s=100.0, fps=120)
        still = sample([], [], duration_s=100.0, fps=120)
        assert bounce.times is not still.times
        assert curves_to_csv(bounce) == reference_csv(bounce)
        assert curves_to_csv(still) == reference_csv(still)
        info = _time_blocks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_grid_one_ulp_apart_is_formatted_afresh(self):
        _time_blocks.cache_clear()
        curves = sample([], [], duration_s=50.0, fps=120)
        times = curves.times.copy()
        times[4097] = np.nextafter(times[4097], np.inf)
        shifted = AnimationCurves("shifted", curves.fps, times, curves.positions, curves.scales)
        assert curves_to_csv(curves) == reference_csv(curves)
        assert curves_to_csv(shifted) == reference_csv(shifted)
        assert _time_blocks.cache_info().misses == 2

    def test_negative_zero_start_is_formatted_afresh(self):
        _time_blocks.cache_clear()
        curves = sample([], [], duration_s=1.0, fps=120)
        times = curves.times.copy()
        times[0] = -0.0
        signed = AnimationCurves("signed", curves.fps, times, curves.positions, curves.scales)
        assert curves_to_csv(curves).splitlines()[1].startswith("0.0,")
        assert curves_to_csv(signed).splitlines()[1].startswith("-0.0,")
        assert curves_to_csv(signed) == reference_csv(signed)
        assert _time_blocks.cache_info().misses == 2

    def test_memory_beyond_the_text_stays_below_the_table(self):
        """600 s at 120 fps, every value distinct: the writer holds its text
        twice while it joins the blocks, and less than the table's own bytes
        beside it (no copy of the table, no per-value string objects kept)."""
        rng = np.random.default_rng(7)
        frames = 600 * 120 + 1
        curves = AnimationCurves(
            "object", 120.0, np.arange(frames) / 120, rng.standard_normal((frames, 3)), rng.random((frames, 3)) + 0.5
        )
        table_bytes = curves.times.nbytes + curves.positions.nbytes + curves.scales.nbytes
        _time_blocks.cache_clear()
        tracemalloc.start()
        try:
            text = curves_to_csv(curves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 2 * len(text) < table_bytes
