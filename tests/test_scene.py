import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcue import (
    AnimationError,
    BounceAction,
    EventInstance,
    FixedPlacement,
    LanePlacement,
    ObjectSpec,
    PatternKind,
    SceneConfig,
    SceneError,
    SchemaError,
    SlideAction,
    SpawnAction,
    SquashParams,
    SteerAction,
    TailMode,
    Timeline,
    Track,
    UniformRectPlacement,
    animation_document,
    build_animation,
    parse_scene,
    serialize_scene,
)
from soundcue import animate, scene
from conftest import file_names, mutated_json, well_formed_path

KINDS = {
    "tick": PatternKind.IMPULSE,
    "pop": PatternKind.IMPULSE,
    "tack": PatternKind.IMPULSE,
    "peww": PatternKind.IMPULSE,
    "paww": PatternKind.IMPULSE,
    "pom": PatternKind.IMPULSE,
    "chhh": PatternKind.CONTINUOUS,
    "hooo": PatternKind.CONTINUOUS,
    "heee": PatternKind.CONTINUOUS,
}


def impulse(pattern_id, t, strength=1.0):
    return EventInstance(pattern_id, PatternKind.IMPULSE, t_s=t, strength=strength, peak_correlation=0.9)


def continuous(pattern_id, t0, t1):
    return EventInstance(pattern_id, PatternKind.CONTINUOUS, t_begin_s=t0, t_end_s=t1, strength=1.0, peak_correlation=0.7)


def scene_doc(**overrides):
    doc = {
        "fps": 60,
        "seed": 42,
        "objects": [
            {
                "object_id": "ball",
                "track_id": "main",
                "bindings": {"tick": {"kind": "bounce_hard"}},
            }
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseScene:
    def test_minimal_defaults(self):
        cfg = parse_scene(scene_doc(), KINDS)
        assert cfg.fps == 60.0
        assert cfg.gravity == 9.81
        assert cfg.seed == 42
        assert cfg.objects[0].bindings["tick"].kind == "bounce_hard"

    def test_slide_on_impulse_pattern_rejected(self):
        doc = scene_doc()
        broken = doc.replace('"bounce_hard"', '"slide"')
        with pytest.raises(SchemaError) as err:
            parse_scene(broken, KINDS)
        assert "tick" in str(err.value)

    def test_unknown_action_kind(self):
        doc = scene_doc().replace('"bounce_hard"', '"teleport"')
        with pytest.raises(SchemaError) as err:
            parse_scene(doc, KINDS)
        assert "teleport" in str(err.value)

    def test_unknown_pattern_id(self):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"]["zap"] = {"kind": "bounce_hard"}
        with pytest.raises(SchemaError) as err:
            parse_scene(json.dumps(doc), KINDS)
        assert "zap" in str(err.value)

    def test_without_kinds_defers_binding_checks(self):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"]["zap"] = {"kind": "bounce_hard"}
        cfg = parse_scene(json.dumps(doc))  # no dictionary available
        assert "zap" in cfg.objects[0].bindings

    def test_three_pattern_scene_roundtrips(self):
        doc = {
            "fps": 60,
            "seed": 0,
            "gravity": 9.81,
            "objects": [
                {
                    "object_id": "ball",
                    "track_id": "main",
                    "bindings": {
                        "tick": {"kind": "bounce_hard"},
                        "pop": {"kind": "bounce_soft", "squash_amplitude": 0.25},
                        "chhh": {"kind": "slide", "speed": 1.5},
                    },
                }
            ],
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        text = serialize_scene(cfg)
        again = parse_scene(text, KINDS)
        assert again == cfg
        assert serialize_scene(again) == text  # idempotent

    def test_every_action_kind_roundtrips(self):
        doc = {
            "fps": 48,
            "seed": 9,
            "gravity": 9.81,
            "duration_override_s": 7.5,
            "objects": [
                {
                    "object_id": "a",
                    "track_id": "t1",
                    "bindings": {
                        "tick": {"kind": "bounce_hard", "drift_speed": 0.4, "tail": "repeat_last"},
                        "pop": {"kind": "bounce_soft", "squash_amplitude": 0.2, "strength_clamp": 3.0},
                        "chhh": {"kind": "slide", "speed": 2.0},
                        "hooo": {"kind": "move_up", "speed": 1.5, "z_max": 4.0},
                        "heee": {"kind": "move_down", "speed": 1.5, "z_max": 4.0},
                    },
                },
                {
                    "object_id": "b",
                    "track_id": "t2",
                    "bindings": {
                        "tack": {"kind": "spawn_dart", "size_base": 0.2, "size_per_strength": 0.3,
                                 "placement": {"kind": "fixed", "position": [1, 2, 3]}},
                        "peww": {"kind": "spawn_laser_low", "placement": {"kind": "lane", "height": 0.25}},
                        "paww": {"kind": "spawn_laser_high"},
                        "pom": {"kind": "spawn_raindrop",
                                "placement": {"kind": "uniform_rect", "x_range": [-2, 2], "y_range": [0, 4]}},
                    },
                },
            ],
        }
        kinds = dict(KINDS, tack=PatternKind.IMPULSE)
        cfg = parse_scene(json.dumps(doc), kinds)
        text = serialize_scene(cfg)
        assert parse_scene(text, kinds) == cfg
        assert serialize_scene(parse_scene(text, kinds)) == text

    @pytest.mark.parametrize(
        "pattern_id, action",
        [
            ("chhh", {"kind": "slide", "squash_amplitude": 1.5}),
            ("tick", {"kind": "spawn_dart", "size_base": 0.0}),
            ("tick", {"kind": "spawn_raindrop", "size_base": -0.1}),
            ("hooo", {"kind": "move_up", "z_min": 3.0, "z_max": 3.0}),
            ("heee", {"kind": "move_down", "z_min": 4.0, "z_max": 1.0}),
            ("hooo", {"kind": "move_up", "speed": -1.0}),
        ],
    )
    def test_invalid_action_value_names_binding_path(self, pattern_id, action):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"] = {pattern_id: action}
        with pytest.raises(SchemaError) as err:
            parse_scene(json.dumps(doc))
        assert err.value.path == f"objects[0].bindings[{pattern_id!r}]"

    def test_unknown_spawn_entity_rejected_when_built(self):
        with pytest.raises(ValueError) as err:
            SpawnAction("bogus", 0.1, 0.0, FixedPlacement())
        assert "'bogus'" in str(err.value)
        assert all(entity in str(err.value) for entity in ("dart", "laser_low", "laser_high", "raindrop"))

    def test_missing_required_field_names_path(self):
        doc = json.loads(scene_doc())
        del doc["objects"][0]["track_id"]
        with pytest.raises(SchemaError) as err:
            parse_scene(json.dumps(doc))
        assert "objects[0].track_id" in str(err.value)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("fps", "x", "expected a number, got str"),
            ("gravity", "x", "expected a number, got str"),
            ("seed", "x", "expected an integer, got str"),
            ("fps", 0, "fps must be positive and finite, got 0.0"),
            ("gravity", -1, "gravity must be positive, got -1.0"),
            ("duration_override_s", -1, "duration_override_s must be >= 0, got -1.0"),
        ],
    )
    def test_bad_setting_is_reported_at_its_field(self, field, value, reason):
        with pytest.raises(SchemaError) as err:
            parse_scene(scene_doc(**{field: value}), KINDS)
        assert (err.value.path, err.value.reason) == (field, reason)

    @pytest.mark.parametrize("object_id", ["", ".", "..", "../escaped", "sub/dir", "a\\b", "a\x00b"])
    def test_object_id_that_cannot_name_a_file_is_rejected(self, object_id):
        doc = json.loads(scene_doc())
        doc["objects"][0]["object_id"] = object_id
        with pytest.raises(SchemaError) as err:
            parse_scene(json.dumps(doc), KINDS)
        assert err.value.path == "objects[0].object_id"
        assert repr(object_id) in err.value.reason

    @pytest.mark.parametrize("object_id", ["..x", "a.b", "-", " ", "ball:1", "\u00e9t\u00e9"])
    def test_object_id_that_names_a_file_is_kept(self, object_id):
        doc = json.loads(scene_doc())
        doc["objects"][0]["object_id"] = object_id
        assert parse_scene(json.dumps(doc), KINDS).objects[0].object_id == object_id

    def test_null_duration_override_means_none(self):
        assert parse_scene(scene_doc(duration_override_s=None), KINDS).duration_override_s is None

    def test_negative_duration_override_rejected_when_built(self):
        with pytest.raises(ValueError, match="duration_override_s must be >= 0"):
            SceneConfig(objects=(), duration_override_s=-1.0)

    def test_readme_scene_binds_only_the_readme_manifest_patterns(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
        (manifest,) = [b for b in blocks if isinstance(b, list)]
        (scene,) = [b for b in blocks if isinstance(b, dict)]
        kinds = {entry["id"]: PatternKind(entry["kind"]) for entry in manifest}
        cfg = parse_scene(json.dumps(scene), kinds)
        assert {pid for o in cfg.objects for pid in o.bindings} <= set(kinds)


class TestBuildAnimation:
    def _three_objects(self):
        doc = json.loads(scene_doc(fps=100))
        doc["objects"] = [
            {"object_id": name, "track_id": "main", "bindings": {"tick": {"kind": "bounce_soft", "drift_speed": v}}}
            for name, v in (("a", 0.0), ("b", 1.0), ("c", -2.0))
        ]
        tl = Timeline((Track("main", (impulse("tick", 0.5), impulse("tick", 1.5))),), 2.0)
        return tl, parse_scene(json.dumps(doc), KINDS)

    def test_curves_are_sampled_when_read(self, monkeypatch):
        sampled = []

        def spy(*args, **kwargs):
            sampled.append(kwargs["object_id"])
            return animate.sample(*args, **kwargs)

        monkeypatch.setattr(scene, "sample", spy)
        tl, cfg = self._three_objects()
        out = build_animation(tl, cfg)
        assert sampled == []
        assert len(out.curves) == 3
        assert out.curves.object_ids == ("a", "b", "c")
        assert json.loads(animation_document(out))["objects"] == ["a", "b", "c"]
        assert sampled == []
        assert out.curves[1].object_id == "b"
        assert out.curves[-1].object_id == "c"
        assert sampled == ["b", "c"]
        assert [c.object_id for c in out.curves] == ["a", "b", "c"]
        assert [c.object_id for c in out.curves[::-2]] == ["c", "a"]
        with pytest.raises(IndexError):
            out.curves[3]

    def test_each_read_samples_the_same_curves(self):
        tl, cfg = self._three_objects()
        out = build_animation(tl, cfg)
        for first, again in zip(out.curves, tuple(out.curves)):
            assert first is not again
            for name in ("times", "positions", "scales"):
                assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
        assert out.curves[2].positions[-1, 0] == -2.0 * 2.0

    def test_too_many_frames_rejected_before_any_read(self):
        tl, cfg = self._three_objects()
        with pytest.raises(AnimationError, match="more frames than an array can hold"):
            build_animation(tl, dataclasses.replace(cfg, fps=1e300))

    def test_empty_timeline_resting_objects(self):
        cfg = parse_scene(scene_doc(), KINDS)
        tl = Timeline((Track("main"),), 2.0)
        out = build_animation(tl, cfg)
        (curves,) = out.curves
        assert np.all(curves.positions == 0.0)
        assert np.all(curves.scales == 1.0)
        assert out.spawns == ()

    def test_missing_track_rejected(self):
        cfg = parse_scene(scene_doc(), KINDS)
        with pytest.raises(SceneError):
            build_animation(Timeline((Track("other"),), 1.0), cfg)

    def test_bounce_curve_hits_zero_on_events(self):
        cfg = parse_scene(scene_doc(fps=1000), KINDS)
        tl = Timeline((Track("main", (impulse("tick", 1.0), impulse("tick", 2.0))),), 3.0)
        out = build_animation(tl, cfg)
        z = out.curves[0].positions[:, 2]
        assert z[1000] == pytest.approx(0.0, abs=1e-9)
        assert z[2000] == pytest.approx(0.0, abs=1e-9)
        assert z[1500] == pytest.approx(1.22625, abs=1e-9)

    def test_soft_bounce_attaches_squash(self):
        doc = json.loads(scene_doc(fps=1000))
        doc["objects"][0]["bindings"] = {
            "tick": {"kind": "bounce_hard"},
            "pop": {"kind": "bounce_soft", "squash_amplitude": 0.3, "strength_scaling": False},
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (impulse("tick", 1.0), impulse("pop", 2.0))),), 3.0)
        out = build_animation(tl, cfg)
        curves = out.curves[0]
        # bounce solves over the union of hard+soft events
        assert curves.positions[2000][2] == pytest.approx(0.0, abs=1e-9)
        assert curves.positions[1500][2] == pytest.approx(1.22625, abs=1e-9)
        # squash only around the soft event
        assert curves.scales[2000][2] == pytest.approx(0.7)
        assert curves.scales[1000][2] == 1.0

    def test_slide_advances_displacement(self):
        doc = json.loads(scene_doc(fps=100))
        doc["objects"][0]["bindings"] = {"chhh": {"kind": "slide", "speed": 1.0}}
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (continuous("chhh", 1.0, 2.0),)),), 3.0)
        out = build_animation(tl, cfg)
        x = out.curves[0].positions[:, 0]
        assert x[150] == pytest.approx(0.5)
        assert x[299] == pytest.approx(1.0)

    def test_steering_pair(self):
        doc = json.loads(scene_doc(fps=100))
        doc["objects"][0]["bindings"] = {
            "hooo": {"kind": "move_up", "speed": 2.0, "z_min": 0.0, "z_max": 5.0},
            "heee": {"kind": "move_down", "speed": 2.0, "z_min": 0.0, "z_max": 5.0},
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (continuous("hooo", 1.0, 2.0), continuous("heee", 3.0, 3.5))),), 4.0)
        out = build_animation(tl, cfg)
        z = out.curves[0].positions[:, 2]
        assert z[200] == pytest.approx(2.0)
        assert z[350] == pytest.approx(1.0)

    def test_steering_pair_must_agree(self):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"] = {
            "hooo": {"kind": "move_up", "speed": 2.0},
            "heee": {"kind": "move_down", "speed": 3.0},
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (continuous("hooo", 1.0, 2.0),)),), 3.0)
        with pytest.raises(SceneError):
            build_animation(tl, cfg)

    def test_event_action_kind_mismatch_caught_at_build(self):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"] = {"tick": {"kind": "slide"}}
        cfg = parse_scene(json.dumps(doc))  # parsed without the dictionary
        tl = Timeline((Track("main", (impulse("tick", 1.0),)),), 2.0)
        with pytest.raises(SceneError):
            build_animation(tl, cfg)

    def test_nonpositive_spawn_size_names_binding_path(self):
        doc = json.loads(scene_doc())
        doc["objects"][0]["bindings"] = {"tick": {"kind": "spawn_dart", "size_base": 0.2, "size_per_strength": -0.5}}
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (impulse("tick", 0.5, strength=0.2), impulse("tick", 1.0, strength=0.6))),), 2.0)
        with pytest.raises(SceneError, match=r"objects\[0\]\.bindings\['tick'\]"):
            build_animation(tl, cfg)

    def test_laser_scene_spawn_times_match_events(self):
        doc = {
            "fps": 60,
            "seed": 42,
            "objects": [
                {
                    "object_id": "launcher",
                    "track_id": "laser",
                    "bindings": {
                        "peww": {"kind": "spawn_laser_low"},
                        "paww": {"kind": "spawn_laser_high"},
                    },
                },
                {
                    "object_id": "hero",
                    "track_id": "hero",
                    "bindings": {
                        "tick": {"kind": "bounce_hard"},
                        "chhh": {"kind": "slide"},
                    },
                },
            ],
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        laser = Track("laser", (impulse("peww", 0.5), impulse("paww", 1.25), impulse("peww", 2.0)))
        hero = Track("hero", (impulse("tick", 0.8), continuous("chhh", 1.5, 2.5)))
        tl = Timeline((laser, hero), 3.0)
        out = build_animation(tl, cfg)
        assert [s.t_s for s in out.spawns] == [0.5, 1.25, 2.0]
        assert [s.entity_kind for s in out.spawns] == ["laser_low", "laser_high", "laser_low"]
        assert {c.object_id for c in out.curves} == {"launcher", "hero"}
        heights = {"laser_low": 0.5, "laser_high": 1.5}
        for s in out.spawns:
            assert s.position == (0.0, 0.0, heights[s.entity_kind])

    def test_rain_seed_determinism(self):
        doc = {
            "fps": 30,
            "seed": 42,
            "objects": [
                {
                    "object_id": "sky",
                    "track_id": "main",
                    "bindings": {"pom": {"kind": "spawn_raindrop"}},
                }
            ],
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        events = tuple(impulse("pom", 0.2 * (i + 1), strength=0.5 + 0.1 * i) for i in range(10))
        tl = Timeline((Track("main", events),), 3.0)
        first = build_animation(tl, cfg)
        second = build_animation(tl, cfg)
        assert [s.position for s in first.spawns] == [s.position for s in second.spawns]
        assert len(first.spawns) == 10
        reseeded = parse_scene(json.dumps(doc).replace('"seed": 42', '"seed": 43'), KINDS)
        third = build_animation(tl, reseeded)
        assert [s.position for s in first.spawns] != [s.position for s in third.spawns]
        assert [s.t_s for s in first.spawns] == [s.t_s for s in third.spawns]
        assert [s.size for s in first.spawns] == [s.size for s in third.spawns]

    def test_unbound_patterns_ignored(self, caplog):
        import logging

        cfg = parse_scene(scene_doc(), KINDS)
        tl = Timeline((Track("main", (impulse("tick", 1.0), impulse("pop", 1.5))),), 2.0)
        with caplog.at_level(logging.INFO, logger="soundcue.scene"):
            out = build_animation(tl, cfg)
        assert out.spawns == ()
        assert any("'pop'" in record.getMessage() for record in caplog.records)

    def test_unbound_pairs_logged_once_per_build(self, caplog):
        """One INFO line per build counts the unbound (pattern, object) pairs; each pair has its own DEBUG line."""
        import logging

        doc = json.loads(scene_doc())
        doc["objects"] = [dict(doc["objects"][0], object_id=f"ball{i}") for i in range(3)]
        cfg = parse_scene(json.dumps(doc), KINDS)
        unbound = [f"u{k}" for k in range(8)]
        tl = Timeline((Track("main", tuple(impulse(pid, 0.1 + 0.1 * k) for k, pid in enumerate(unbound))),), 2.0)
        with caplog.at_level(logging.DEBUG, logger="soundcue.scene"):
            build_animation(tl, cfg)
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(info) == 1 and info[0].startswith("24 (pattern, object) pair(s)")
        assert "'u0'" not in info[0]  # too many to name
        assert len(debug) == 24 and all("no binding" in line for line in debug)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="soundcue.scene"):
            build_animation(Timeline((Track("main", (impulse("u0", 0.5),)),), 2.0), cfg)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith("3 (pattern, object) pair(s)") and "'u0' on 'ball2'" in line

    def test_duration_override(self):
        cfg = parse_scene(scene_doc(duration_override_s=5.0), KINDS)
        tl = Timeline((Track("main"),), 2.0)
        out = build_animation(tl, cfg)
        assert out.duration_s == 5.0
        assert out.curves[0].times[-1] == pytest.approx(5.0)


class TestAnimationDocument:
    def test_document_shape(self):
        doc = {
            "fps": 30,
            "seed": 5,
            "objects": [
                {"object_id": "sky", "track_id": "main", "bindings": {"pom": {"kind": "spawn_raindrop"}}}
            ],
        }
        cfg = parse_scene(json.dumps(doc), KINDS)
        tl = Timeline((Track("main", (impulse("pom", 1.0),)),), 2.0)
        out = build_animation(tl, cfg)
        parsed = json.loads(animation_document(out))
        assert parsed["objects"] == ["sky"]
        assert parsed["fps"] == 30.0
        (spawn,) = parsed["spawns"]
        assert spawn["kind"] == "raindrop"
        assert spawn["t"] == 1.0
        assert len(spawn["position"]) == 3


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(0.0, 1e6, exclude_min=True)
unit = st.floats(0.0, 1.0, exclude_max=True)


def _ordered_pair(draw, values=finite):
    return tuple(sorted((draw(values), draw(values))))


@st.composite
def placements(draw):
    kind = draw(st.sampled_from(["fixed", "lane", "uniform_rect"]))
    if kind == "fixed":
        return FixedPlacement(tuple(draw(finite) for _ in range(3)))
    if kind == "lane":
        return LanePlacement(draw(finite))
    bounded = st.floats(-1e300, 1e300)
    return UniformRectPlacement(_ordered_pair(draw, bounded), _ordered_pair(draw, bounded))


@st.composite
def actions(draw):
    kind = draw(st.sampled_from(["bounce_hard", "bounce_soft", "slide", "steer", "spawn"]))
    if kind == "bounce_hard":
        return BounceAction(soft=False, drift_speed=draw(finite), tail=draw(st.sampled_from(TailMode)))
    if kind == "bounce_soft":
        amplitude, clamp = draw(unit), draw(st.floats(0.0, 1e6))
        if amplitude * clamp >= 1.0:
            clamp = 0.0
        squash = SquashParams(amplitude, draw(positive), draw(st.booleans()), clamp)
        return BounceAction(soft=True, squash=squash, drift_speed=draw(finite), tail=draw(st.sampled_from(TailMode)))
    if kind == "slide":
        return SlideAction(speed=draw(finite), squash_amplitude=draw(st.floats(0.0, 0.5, exclude_max=True)))
    if kind == "steer":
        z_min, z_max = _ordered_pair(draw, st.floats(-1e300, 1e300))
        if z_min == z_max:
            z_max = math.nextafter(z_min, math.inf)
        direction, speed = draw(st.sampled_from([1, -1])), draw(st.floats(0.0, 1e6))
        return SteerAction(direction=direction, speed=speed, z_min=z_min, z_max=z_max)
    entity = draw(st.sampled_from(["dart", "laser_low", "laser_high", "raindrop"]))
    return SpawnAction(entity, draw(positive), draw(finite), draw(placements()))


names = st.text(max_size=6)
scenes = st.builds(
    SceneConfig,
    objects=st.lists(
        st.builds(ObjectSpec, object_id=file_names, track_id=names, bindings=st.dictionaries(names, actions(), max_size=3)),
        max_size=3,
        unique_by=lambda o: o.object_id,
    ).map(tuple),
    fps=st.floats(0.0, 1e6, exclude_min=True),
    seed=st.integers(-(2**70), 2**70),
    gravity=positive,
    duration_override_s=st.none() | st.floats(min_value=0.0, allow_infinity=False),
)


class TestSceneProperties:
    @settings(max_examples=200, deadline=None)
    @given(scenes)
    def test_parse_after_serialize_is_identity(self, cfg):
        text = serialize_scene(cfg)
        assert parse_scene(text) == cfg
        assert serialize_scene(parse_scene(text)) == text

    @settings(max_examples=250, deadline=None)
    @given(scenes, st.data(), st.booleans())
    def test_mutated_document_is_rejected_or_round_trips(self, cfg, data, with_kinds):
        text = mutated_json(json.loads(serialize_scene(cfg)), data)
        try:
            parsed = parse_scene(text, KINDS if with_kinds else None)
        except SchemaError as exc:
            assert well_formed_path(exc.path), exc.path
            return
        assert parse_scene(serialize_scene(parsed)) == parsed
