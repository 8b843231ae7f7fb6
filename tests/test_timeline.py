import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcue import (
    EventInstance,
    PatternKind,
    SchemaError,
    SoundCueError,
    Timeline,
    Track,
    deserialize,
    merge,
    serialize,
)
from conftest import mutated_json, well_formed_path


def impulse(pattern_id, t, strength=1.0, peak=0.9):
    return EventInstance(
        pattern_id=pattern_id, kind=PatternKind.IMPULSE, t_s=t, strength=strength, peak_correlation=peak
    )


def continuous(pattern_id, t0, t1, strength=1.0, peak=0.7):
    return EventInstance(
        pattern_id=pattern_id,
        kind=PatternKind.CONTINUOUS,
        t_begin_s=t0,
        t_end_s=t1,
        strength=strength,
        peak_correlation=peak,
    )


class TestEventInstance:
    def test_impulse_needs_single_time(self):
        with pytest.raises(ValueError):
            EventInstance("a", PatternKind.IMPULSE, 1.0, 0.9, t_begin_s=0.0, t_end_s=1.0)

    def test_continuous_needs_ordered_interval(self):
        with pytest.raises(ValueError):
            continuous("a", 2.0, 2.0)

    def test_strength_nonnegative(self):
        with pytest.raises(ValueError):
            impulse("a", 1.0, strength=-0.1)

    def test_peak_in_unit_interval(self):
        with pytest.raises(ValueError):
            impulse("a", 1.0, peak=0.0)
        with pytest.raises(ValueError):
            impulse("a", 1.0, peak=1.1)


class TestTimeline:
    def test_events_sorted_within_track(self):
        track = Track("main", (impulse("b", 2.0), impulse("a", 1.0), continuous("c", 0.5, 1.2)))
        assert [e.onset_s for e in track.events] == [0.5, 1.0, 2.0]

    def test_tie_broken_by_pattern_id(self):
        track = Track("main", (impulse("b", 1.0), impulse("a", 1.0)))
        assert [e.pattern_id for e in track.events] == ["a", "b"]

    def test_tracks_canonically_ordered(self):
        tl = Timeline((Track("zeta"), Track("alpha")), 1.0)
        assert [t.track_id for t in tl.tracks] == ["alpha", "zeta"]

    def test_duplicate_track_ids_rejected(self):
        with pytest.raises(SoundCueError):
            Timeline((Track("x"), Track("x")), 1.0)

    def test_event_beyond_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline((Track("main", (impulse("a", 5.0),)),), 1.0)


class TestMerge:
    def test_single_timeline_unchanged(self):
        tl = Timeline((Track("main", (impulse("a", 1.0),)),), 3.0)
        assert merge([tl]) == tl

    def test_two_tracks_max_duration(self):
        t1 = Timeline((Track("hero", (impulse("a", 1.0),)),), 3.0)
        t2 = Timeline((Track("laser", (impulse("b", 2.5),)),), 5.0)
        merged = merge([t1, t2])
        assert len(merged.tracks) == 2
        assert merged.duration_s == 5.0

    def test_overlapping_events_preserved_exactly(self):
        e1 = impulse("a", 1.2345, strength=0.7, peak=0.81)
        e2 = continuous("c", 1.0, 2.0, strength=1.9, peak=0.63)
        merged = merge(
            [Timeline((Track("x", (e1,)),), 4.0), Timeline((Track("y", (e2,)),), 4.0)]
        )
        assert merged.track("x").events == (e1,)
        assert merged.track("y").events == (e2,)

    def test_duplicate_track_across_inputs(self):
        with pytest.raises(SoundCueError):
            merge([Timeline((Track("m"),), 1.0), Timeline((Track("m"),), 2.0)])

    def test_associative_and_commutative(self):
        a = Timeline((Track("a", (impulse("p", 0.5),)),), 2.0)
        b = Timeline((Track("b",),), 3.0)
        c = Timeline((Track("c", (continuous("q", 0.1, 0.9),)),), 1.0)
        assert merge([merge([a, b]), c]) == merge([a, merge([b, c])]) == merge([c, b, a])


class TestSerialization:
    def test_empty_roundtrip(self):
        tl = Timeline((), 0.0)
        assert deserialize(serialize(tl)) == tl

    def test_mixed_roundtrip_exact(self):
        tl = Timeline(
            (
                Track(
                    "main",
                    (impulse("tick", 0.5000000000000123, strength=1.2, peak=0.97),
                     continuous("chhh", 2.0, 3.0000000001, strength=2.5, peak=0.61)),
                    source_audio="take1.wav",
                ),
            ),
            10.0,
        )
        assert deserialize(serialize(tl)) == tl

    def test_serialization_deterministic(self):
        tl = Timeline((Track("main", (impulse("a", 1.0),)),), 2.0)
        assert serialize(tl) == serialize(tl)
        assert serialize(deserialize(serialize(tl))) == serialize(tl)

    def test_missing_t_end_names_field(self):
        import json

        doc = json.loads(serialize(Timeline((Track("main", (continuous("c", 1.0, 2.0),)),), 3.0)))
        del doc["tracks"][0]["events"][0]["t_end"]
        with pytest.raises(SchemaError) as err:
            deserialize(json.dumps(doc))
        assert "tracks[0].events[0].t_end" in str(err.value)

    def test_negative_duration_names_its_field(self):
        with pytest.raises(SchemaError) as err:
            deserialize('{"duration_s": -1, "tracks": []}')
        assert (err.value.path, err.value.reason) == ("duration_s", "duration_s must be >= 0, got -1.0")

    @pytest.mark.parametrize(
        "event, field",
        [
            ({"kind": "impulse", "t": -1}, "t"),
            ({"kind": "impulse", "t": 4}, "t"),
            ({"kind": "continuous", "t_begin": -1, "t_end": 1}, "t_begin"),
            ({"kind": "continuous", "t_begin": 1, "t_end": 4}, "t_end"),
        ],
    )
    def test_event_outside_duration_names_its_time(self, event, field):
        ok = {"kind": "impulse", "t": 1, "pattern": "tick", "strength": 1.0, "peak_correlation": 0.9}
        bad = {"pattern": "tick", "strength": 1.0, "peak_correlation": 0.9, **event}
        doc = {"duration_s": 3.0, "tracks": [{"track_id": "a", "events": []}, {"track_id": "b", "events": [ok, bad]}]}
        with pytest.raises(SchemaError) as err:
            deserialize(json.dumps(doc))
        onset = float(event.get("t", event.get("t_begin")))
        assert err.value.path == f"tracks[1].events[1].{field}"
        assert err.value.reason == f"event for 'tick' at {onset} lies outside [0, 3.0]"

    def test_not_json(self):
        with pytest.raises(SchemaError):
            deserialize("{nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError) as err:
            deserialize('{"duration_s": 1.0, "tracks": [], "extra": 1}')
        assert "extra" in str(err.value)

    @pytest.mark.parametrize("key, path", [("extra", "tracks[0].extra"), ("", "tracks[0]['']"), ("a.b", "tracks[0]['a.b']")])
    def test_unknown_field_path_quotes_a_key_that_is_no_name(self, key, path):
        with pytest.raises(SchemaError) as err:
            deserialize(json.dumps({"duration_s": 1.0, "tracks": [{"track_id": "a", "events": [], key: 1}]}))
        assert (err.value.path, err.value.reason) == (path, "unknown field")


ids = st.text(max_size=6)


@st.composite
def timelines(draw):
    duration = draw(st.floats(0.0, 1e6))
    times = st.floats(0.0, duration)
    tracks = []
    for track_id in draw(st.lists(ids, unique=True, max_size=3)):
        events = []
        for _ in range(draw(st.integers(0, 4))):
            fields = dict(
                pattern_id=draw(ids),
                strength=draw(st.floats(0.0, 1e6)),
                peak_correlation=draw(st.floats(0.0, 1.0 + 1e-6, exclude_min=True)),
            )
            t0, t1 = sorted((draw(times), draw(times)))
            if t0 == t1 or draw(st.booleans()):
                events.append(EventInstance(kind=PatternKind.IMPULSE, t_s=t0, **fields))
            else:
                events.append(EventInstance(kind=PatternKind.CONTINUOUS, t_begin_s=t0, t_end_s=t1, **fields))
        tracks.append(Track(track_id, tuple(events), draw(st.none() | ids)))
    return Timeline(tuple(tracks), duration)


class TestSerializationProperties:
    @settings(max_examples=200, deadline=None)
    @given(timelines())
    def test_parse_after_serialize_is_identity(self, tl):
        text = serialize(tl)
        assert deserialize(text) == tl
        assert serialize(deserialize(text)) == text

    def test_duplicate_track_ids_are_a_schema_error(self):
        tracks = [{"track_id": "a", "events": []}, {"track_id": "a", "events": []}]
        with pytest.raises(SchemaError, match="duplicate track id"):
            deserialize(json.dumps({"duration_s": 1.0, "tracks": tracks}))

    @settings(max_examples=250, deadline=None)
    @given(timelines(), st.data())
    def test_mutated_document_is_rejected_or_round_trips(self, tl, data):
        text = mutated_json(json.loads(serialize(tl)), data)
        try:
            parsed = deserialize(text)
        except SchemaError as exc:
            assert well_formed_path(exc.path), exc.path
            return
        assert deserialize(serialize(parsed)) == parsed
