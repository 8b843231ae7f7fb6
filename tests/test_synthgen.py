import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcue import (
    DetectorConfig,
    FixturePlan,
    GroundTruth,
    PatternDef,
    PatternKind,
    PlanError,
    PlantedInstance,
    SchemaError,
    SoundPattern,
    detect,
    make_pattern,
    normalized_cross_correlate,
    parse_plan,
    place_instances,
    realize,
    serialize_plan,
)
from soundcue.audio import MAX_WAV_RATE_HZ
from soundcue.synthgen import pattern_length
from conftest import SR, file_names, mutated_json, well_formed_path


class TestMakePattern:
    def test_same_seed_identical(self):
        a = make_pattern("tonal_burst", 0.12, seed=9, sample_rate_hz=SR)
        b = make_pattern("tonal_burst", 0.12, seed=9, sample_rate_hz=SR)
        assert a.samples.tolist() == b.samples.tolist()

    def test_distinct_seeds_weakly_correlated(self):
        a = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
        b = make_pattern("tonal_burst", 0.12, seed=2, sample_rate_hz=SR)
        trace = normalized_cross_correlate(a, b)
        assert np.max(np.abs(trace.values)) < 0.5

    def test_sample_count(self):
        clip = make_pattern("noise_burst", 0.1, seed=0, sample_rate_hz=SR)
        assert len(clip) == 4410

    def test_peak_normalized(self):
        for shape in ("tonal_burst", "noise_burst"):
            clip = make_pattern(shape, 0.2, seed=3, sample_rate_hz=SR)
            assert np.max(np.abs(clip.samples)) == pytest.approx(0.9)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            make_pattern("square_burst", 0.1, seed=0)


class TestPlaceInstances:
    def test_single_clean_instance_scores_one(self):
        clip = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
        plan = GroundTruth(2.0, SR, seed=0, noise_rms=0.0, planted=(PlantedInstance("p", onset_s=0.7),))
        seq = place_instances({"p": clip}, plan)
        trace = normalized_cross_correlate(seq, clip)
        lag = int(np.argmax(trace.values))
        assert trace.values[lag] == pytest.approx(1.0, abs=1e-9)
        assert lag == int(round(0.7 * SR))

    def test_figure_plan_detected_exactly(self, dictionary, figure_plan, figure_sequence):
        tl = detect(figure_sequence, list(dictionary.values()), DetectorConfig())
        events = tl.tracks[0].events
        planted_impulses = [p for p in figure_plan.planted if p.kind is PatternKind.IMPULSE]
        got_impulses = [e for e in events if e.kind is PatternKind.IMPULSE]
        assert len(got_impulses) == len(planted_impulses)
        assert len([e for e in events if e.kind is PatternKind.CONTINUOUS]) == 1

    def test_noise_free_variant_detected_exactly(self, dictionary, figure_plan):
        from dataclasses import replace

        clips = {pid: p.clip for pid, p in dictionary.items()}
        seq = place_instances(clips, replace(figure_plan, noise_rms=0.0))
        tl = detect(seq, list(dictionary.values()))
        assert len(tl.tracks[0].events) == len(figure_plan.planted)

    def test_out_of_range_instance_rejected(self):
        clip = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
        plan = GroundTruth(1.0, SR, seed=0, noise_rms=0.0, planted=(PlantedInstance("p", onset_s=0.95),))
        with pytest.raises(PlanError):
            place_instances({"p": clip}, plan)

    def test_overlap_rejected_unless_allowed(self):
        clip = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
        planted = (PlantedInstance("p", onset_s=0.5), PlantedInstance("p", onset_s=0.55))
        with pytest.raises(PlanError):
            place_instances({"p": clip}, GroundTruth(2.0, SR, 0, 0.0, planted))
        place_instances({"p": clip}, GroundTruth(2.0, SR, 0, 0.0, planted, allow_overlap=True))

    def test_unknown_pattern_rejected(self):
        plan = GroundTruth(1.0, SR, 0, 0.0, (PlantedInstance("ghost", onset_s=0.1),))
        with pytest.raises(PlanError):
            place_instances({}, plan)

    def test_distorted_instance_lowers_peak_without_side_effects(self):
        clip = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
        pattern = SoundPattern("p", clip, PatternKind.IMPULSE)
        planted = (
            PlantedInstance("p", onset_s=0.5),
            PlantedInstance("p", onset_s=1.5, distort=0.5714, distort_seed=99),
        )
        seq = place_instances({"p": clip}, GroundTruth(3.0, SR, 0, 0.0, planted))
        tl = detect(seq, [pattern])
        clean, degraded = tl.tracks[0].events
        # the clean instance is untouched: no global rescale happened
        assert clean.peak_correlation > 0.999
        assert clean.strength == pytest.approx(1.0, abs=1e-6)
        assert 0.5 < degraded.peak_correlation < 0.75

    def test_determinism(self, dictionary, figure_plan):
        clips = {pid: p.clip for pid, p in dictionary.items()}
        a = place_instances(clips, figure_plan)
        b = place_instances(clips, figure_plan)
        assert a.samples.tolist() == b.samples.tolist()


class TestFixturePlan:
    def plan_text(self):
        plan = FixturePlan(
            duration_s=4.0,
            sample_rate_hz=SR,
            seed=5,
            noise_rms=0.01,
            patterns=(
                PatternDef("tick", PatternKind.IMPULSE, "tonal_burst", 0.12, 1),
                PatternDef("chhh", PatternKind.CONTINUOUS, "tonal_burst", 0.25, 3),
            ),
            planted=(
                PlantedInstance("tick", onset_s=0.5),
                PlantedInstance("chhh", t_begin_s=1.5, t_end_s=2.5),
            ),
        )
        return serialize_plan(plan), plan

    def test_roundtrip(self):
        text, plan = self.plan_text()
        assert parse_plan(text) == plan
        assert serialize_plan(parse_plan(text)) == text

    def test_realize_matches_manual_construction(self):
        _, plan = self.plan_text()
        seq, clips = realize(plan)
        manual = place_instances(clips, plan)
        assert seq.samples.tolist() == manual.samples.tolist()

    def test_planted_unknown_pattern(self):
        text, _ = self.plan_text()
        with pytest.raises(SchemaError):
            parse_plan(text.replace('"pattern": "tick"', '"pattern": "tock"'))

    def test_bad_interval(self):
        text, _ = self.plan_text()
        with pytest.raises(SchemaError):
            parse_plan(text.replace('"t_begin": 1.5', '"t_begin": 3.0'))

    @pytest.mark.parametrize("duration", ["0.0", "-0.12"])
    def test_nonpositive_pattern_duration_names_path(self, duration):
        text, _ = self.plan_text()
        with pytest.raises(SchemaError) as err:
            parse_plan(text.replace('"duration_s": 0.12', f'"duration_s": {duration}'))
        assert err.value.path == "patterns[0].duration_s"


seeds = st.integers(-(2**70), 2**70)


@st.composite
def plans(draw):
    rate = draw(st.integers(1, MAX_WAV_RATE_HZ))
    patterns = []
    for pattern_id in draw(st.lists(file_names, unique=True, max_size=3)):
        pattern_s = draw(st.floats(4 / rate, 1e3))
        if pattern_length(pattern_s, rate) < 4:  # rounding at the floor
            continue
        kind = draw(st.sampled_from(PatternKind))
        shape = draw(st.sampled_from(["tonal_burst", "noise_burst"]))
        patterns.append(PatternDef(pattern_id, kind, shape, pattern_s, draw(seeds)))
    planted = []
    for definition in draw(st.lists(st.sampled_from(patterns), max_size=4)) if patterns else []:
        t0, t1 = sorted((draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))))
        fields = dict(
            amplitude=draw(st.floats(0.0, 1e6, exclude_min=True)),
            distort=draw(st.floats(0.0, 1.0, exclude_max=True)),
            distort_seed=draw(seeds),
        )
        if t0 == t1 or draw(st.booleans()):
            planted.append(PlantedInstance(definition.id, onset_s=t0, **fields))
        else:
            planted.append(PlantedInstance(definition.id, t_begin_s=t0, t_end_s=t1, **fields))
    return FixturePlan(
        duration_s=draw(st.floats(0.0, 1e6, exclude_min=True)),
        sample_rate_hz=rate,
        seed=draw(seeds),
        noise_rms=draw(st.floats(0.0, 1e6)),
        patterns=tuple(patterns),
        planted=tuple(planted),
        allow_overlap=draw(st.booleans()),
    )


class TestPlanProperties:
    @settings(max_examples=200, deadline=None)
    @given(plans())
    def test_parse_after_serialize_is_identity(self, plan):
        text = serialize_plan(plan)
        assert parse_plan(text) == plan
        assert serialize_plan(parse_plan(text)) == text

    @settings(max_examples=250, deadline=None)
    @given(plans(), st.data())
    def test_mutated_document_is_rejected_or_round_trips(self, plan, data):
        text = mutated_json(json.loads(serialize_plan(plan)), data)
        try:
            parsed = parse_plan(text)
        except SchemaError as exc:
            assert well_formed_path(exc.path), exc.path
            return
        assert parse_plan(serialize_plan(parsed)) == parsed
