"""Scene configuration: which pattern triggers which action on which object.

A scene document is JSON with global settings (fps, seed, gravity) and a
list of objects, each bound to one timeline track and carrying a map
from pattern id to action. Parsing fills every default explicitly, so a
parsed config re-serializes to a self-contained document and
parse(serialize(cfg)) is the identity.

Action kinds and the pattern kinds they require:
  bounce_hard, bounce_soft, spawn_dart, spawn_laser_low,
  spawn_laser_high, spawn_raindrop        -> impulse patterns
  slide, move_up, move_down               -> continuous patterns
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from . import docio
from .animate import (
    BallisticParams,
    FixedPlacement,
    LanePlacement,
    PlacementRule,
    SquashParams,
    TailMode,
    UniformRectPlacement,
    frame_count,
    on_axis,
    sample,
    slide_segment,
    solve_bounce,
    spawn_from_impulses,
    squash_profile,
    steer_vertical,
)
from .errors import AnimationError, SceneError, SchemaError
from .timeline import PatternKind, Timeline

logger = logging.getLogger(__name__)
_UNBOUND_LISTED = 4  # unbound (pattern, object) pairs the one INFO line of a build names

# Spawn action kind -> (entity kind, default placement, default size_per_strength).
_SPAWNS = {
    "spawn_dart": ("dart", FixedPlacement((0.0, 0.0, 0.0)), 0.1),
    "spawn_laser_low": ("laser_low", LanePlacement(0.5), 0.0),
    "spawn_laser_high": ("laser_high", LanePlacement(1.5), 0.0),
    "spawn_raindrop": ("raindrop", UniformRectPlacement((-5.0, 5.0), (-5.0, 5.0)), 0.1),
}
_SPAWN_KIND = {entity: kind for kind, (entity, _, _) in _SPAWNS.items()}


@dataclass(frozen=True)
class BounceAction:
    soft: bool
    squash: SquashParams = SquashParams()
    drift_speed: float = 0.0
    tail: TailMode = TailMode.REST

    @property
    def kind(self) -> str:
        return "bounce_soft" if self.soft else "bounce_hard"

    requires = PatternKind.IMPULSE


@dataclass(frozen=True)
class SlideAction:
    speed: float = 1.0
    squash_amplitude: float = 0.3

    kind = "slide"
    requires = PatternKind.CONTINUOUS

    def __post_init__(self):
        self.squash  # validates the amplitude

    @property
    def squash(self) -> SquashParams:
        """The squash held over each slide interval."""
        return SquashParams(amplitude=self.squash_amplitude)


@dataclass(frozen=True)
class SteerAction:
    direction: int  # +1 up, -1 down
    speed: float = 1.0
    z_min: float = 0.0
    z_max: float = 3.0

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        if not self.z_min < self.z_max:
            raise ValueError(f"needs z_min < z_max, got ({self.z_min}, {self.z_max})")

    @property
    def kind(self) -> str:
        return "move_up" if self.direction > 0 else "move_down"

    requires = PatternKind.CONTINUOUS


@dataclass(frozen=True)
class SpawnAction:
    entity_kind: str
    size_base: float
    size_per_strength: float
    placement: PlacementRule

    def __post_init__(self):
        if self.entity_kind not in _SPAWN_KIND:
            raise ValueError(f"entity_kind must be one of {', '.join(sorted(_SPAWN_KIND))}, got {self.entity_kind!r}")
        if self.size_base <= 0:
            raise ValueError(f"size_base must be positive, got {self.size_base}")

    @property
    def kind(self) -> str:
        return _SPAWN_KIND[self.entity_kind]

    requires = PatternKind.IMPULSE


ActionSpec = Union[BounceAction, SlideAction, SteerAction, SpawnAction]


@dataclass(frozen=True)
class ObjectSpec:
    object_id: str
    track_id: str
    bindings: Mapping[str, ActionSpec]

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))


class _SettingError(ValueError):
    """A scene setting out of its range; `field` names the setting."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} must be {rule}, got {value}")
        self.field = field


@dataclass(frozen=True)
class SceneConfig:
    objects: tuple
    fps: float = 60.0
    seed: int = 0
    gravity: float = 9.81
    duration_override_s: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.fps < math.inf:
            raise _SettingError("fps", "positive and finite", self.fps)
        if self.gravity <= 0:
            raise _SettingError("gravity", "positive", self.gravity)
        if self.duration_override_s is not None and self.duration_override_s < 0:
            raise _SettingError("duration_override_s", ">= 0", self.duration_override_s)
        ids = [o.object_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique")
        object.__setattr__(self, "objects", tuple(self.objects))


class ObjectCurves(Sequence):
    """Each scene object's `AnimationCurves`, in scene order, sampled when read.

    It keeps each object's providers, not its frames. Reading `curves[i]`,
    or each item while iterating, calls `sample` for that object, so a
    caller that writes the objects one at a time holds one object's frames.
    `len()`, indexing, slicing and iteration behave as on a tuple of the
    curves; `object_ids` names the objects without sampling.
    """

    def __init__(self, motions, duration_s: float, fps: float):
        self._motions = tuple(motions)  # (object_id, position providers, scale providers)
        self._duration_s = duration_s
        self._fps = fps

    @property
    def object_ids(self) -> tuple:
        return tuple(object_id for object_id, _, _ in self._motions)

    def __len__(self) -> int:
        return len(self._motions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        object_id, positions, scales = self._motions[index]
        return sample(positions, scales, self._duration_s, self._fps, object_id=object_id)


@dataclass(frozen=True)
class AnimationOutput:
    curves: ObjectCurves  # AnimationCurves per object, in scene order, sampled when read
    spawns: tuple  # SpawnEvent, time-sorted
    fps: float
    seed: int
    duration_s: float


def _position(value, path: str) -> tuple:
    raw = docio.as_array(value, path)
    if len(raw) != 3:
        raise SchemaError(path, "expected 3 components")
    return tuple(docio.as_number(c, f"{path}[{i}]") for i, c in enumerate(raw))


def _range(value, path: str) -> tuple:
    raw = docio.as_array(value, path)
    if len(raw) != 2:
        raise SchemaError(path, "expected [low, high]")
    lo = docio.as_number(raw[0], f"{path}[0]")
    hi = docio.as_number(raw[1], f"{path}[1]")
    if not lo <= hi:
        raise SchemaError(path, f"needs low <= high, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise SchemaError(path, f"spans more than a float can hold, got [{lo}, {hi}]")
    return lo, hi


def _parse_placement(obj, path: str) -> PlacementRule:
    with docio.Fields(obj, path) as f:
        kind = f.read("kind", docio.as_string)
        if kind == "fixed":
            return FixedPlacement(f.read("position", _position))
        if kind == "lane":
            return LanePlacement(f.read("height", docio.as_number))
        if kind == "uniform_rect":
            return UniformRectPlacement(f.read("x_range", _range), f.read("y_range", _range))
        raise SchemaError(f.at("kind"), f"unknown placement kind {kind!r}")


def _placement_to_obj(placement: PlacementRule) -> dict:
    if isinstance(placement, FixedPlacement):
        return {"kind": "fixed", "position": [float(c) for c in placement.position]}
    if isinstance(placement, LanePlacement):
        return {"kind": "lane", "height": float(placement.height)}
    return {
        "kind": "uniform_rect",
        "x_range": [float(c) for c in placement.x_range],
        "y_range": [float(c) for c in placement.y_range],
    }


def _parse_action(obj, path: str) -> ActionSpec:
    with docio.Fields(obj, path) as f:
        kind = f.read("kind", docio.as_string)
        try:
            if kind in ("bounce_hard", "bounce_soft"):
                squash = BounceAction.squash
                if kind == "bounce_soft":
                    squash = SquashParams(
                        amplitude=f.read("squash_amplitude", docio.as_number, squash.amplitude),
                        duration_s=f.read("squash_duration_s", docio.as_number, squash.duration_s),
                        strength_scaling=f.read("strength_scaling", docio.as_boolean, squash.strength_scaling),
                        strength_clamp=f.read("strength_clamp", docio.as_number, squash.strength_clamp),
                    )
                return BounceAction(
                    soft=kind == "bounce_soft",
                    squash=squash,
                    drift_speed=f.read("drift_speed", docio.as_number, BounceAction.drift_speed),
                    tail=f.enum("tail", TailMode, "tail mode", BounceAction.tail),
                )
            if kind == "slide":
                return SlideAction(
                    speed=f.read("speed", docio.as_number, SlideAction.speed),
                    squash_amplitude=f.read("squash_amplitude", docio.as_number, SlideAction.squash_amplitude),
                )
            if kind in ("move_up", "move_down"):
                return SteerAction(
                    direction=1 if kind == "move_up" else -1,
                    speed=f.read("speed", docio.as_number, SteerAction.speed),
                    z_min=f.read("z_min", docio.as_number, SteerAction.z_min),
                    z_max=f.read("z_max", docio.as_number, SteerAction.z_max),
                )
            if kind in _SPAWNS:
                entity_kind, placement, size_per_strength = _SPAWNS[kind]
                return SpawnAction(
                    entity_kind=entity_kind,
                    size_base=f.read("size_base", docio.as_number, 0.1),
                    size_per_strength=f.read("size_per_strength", docio.as_number, size_per_strength),
                    placement=f.read("placement", _parse_placement, placement),
                )
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
        raise SchemaError(f.at("kind"), f"unknown action kind {kind!r}")


def _action_to_obj(action: ActionSpec) -> dict:
    if isinstance(action, BounceAction):
        obj = {"kind": action.kind, "drift_speed": float(action.drift_speed), "tail": action.tail.value}
        if action.soft:
            obj.update(
                squash_amplitude=float(action.squash.amplitude),
                squash_duration_s=float(action.squash.duration_s),
                strength_scaling=action.squash.strength_scaling,
                strength_clamp=float(action.squash.strength_clamp),
            )
        return obj
    if isinstance(action, SlideAction):
        return {"kind": "slide", "speed": float(action.speed), "squash_amplitude": float(action.squash_amplitude)}
    if isinstance(action, SteerAction):
        return {
            "kind": action.kind,
            "speed": float(action.speed),
            "z_min": float(action.z_min),
            "z_max": float(action.z_max),
        }
    return {
        "kind": action.kind,
        "size_base": float(action.size_base),
        "size_per_strength": float(action.size_per_strength),
        "placement": _placement_to_obj(action.placement),
    }


def _parse_bindings(value, path: str, pattern_kinds: Optional[Mapping[str, PatternKind]]) -> dict:
    bindings = {}
    for pattern_id, action_obj in docio.as_object(value, path).items():
        action_path = f"{path}[{pattern_id!r}]"
        action = _parse_action(action_obj, action_path)
        if pattern_kinds is not None:
            if pattern_id not in pattern_kinds:
                raise SchemaError(action_path, f"pattern {pattern_id!r} is not in the dictionary")
            if pattern_kinds[pattern_id] is not action.requires:
                raise SchemaError(
                    action_path,
                    f"action {action.kind!r} requires a {action.requires.value} pattern "
                    f"but {pattern_id!r} is {pattern_kinds[pattern_id].value}",
                )
        bindings[pattern_id] = action
    return bindings


def _parse_object(obj, path: str, pattern_kinds: Optional[Mapping[str, PatternKind]]) -> ObjectSpec:
    with docio.Fields(obj, path) as f:
        return ObjectSpec(
            object_id=f.read("object_id", docio.as_file_name),
            track_id=f.read("track_id", docio.as_string),
            bindings=f.read("bindings", lambda value, where: _parse_bindings(value, where, pattern_kinds)),
        )


def parse_scene(text, pattern_kinds: Optional[Mapping[str, PatternKind]] = None) -> SceneConfig:
    """Parse and validate a scene document.

    When `pattern_kinds` (the detection dictionary's id -> kind map) is
    given, bindings are checked eagerly: unknown pattern ids and
    action/pattern kind mismatches fail here with a field path instead of
    at synthesis time.
    """
    with docio.Fields(docio.parse_json(text, "scene") if isinstance(text, str) else text) as f:
        settings = dict(
            fps=f.read("fps", docio.as_number, SceneConfig.fps),
            gravity=f.read("gravity", docio.as_number, SceneConfig.gravity),
            seed=f.read("seed", docio.as_integer, SceneConfig.seed),
            duration_override_s=f.read("duration_override_s", docio.nullable(docio.as_number), None),
        )
        objects = f.read("objects", docio.array_of(lambda obj, path: _parse_object(obj, path, pattern_kinds)))
    try:
        return SceneConfig(objects=tuple(objects), **settings)
    except _SettingError as exc:
        raise SchemaError(f.at(exc.field), str(exc)) from exc
    except ValueError as exc:
        raise SchemaError("", str(exc)) from exc


def serialize_scene(cfg: SceneConfig) -> str:
    root = {
        "fps": float(cfg.fps),
        "seed": int(cfg.seed),
        "gravity": float(cfg.gravity),
        "objects": [
            {
                "object_id": o.object_id,
                "track_id": o.track_id,
                "bindings": {pid: _action_to_obj(a) for pid, a in sorted(o.bindings.items())},
            }
            for o in cfg.objects
        ],
    }
    if cfg.duration_override_s is not None:
        root["duration_override_s"] = float(cfg.duration_override_s)
    return docio.dump_json(root)


def binding_seed(master_seed: int, object_id: str, pattern_id: str) -> int:
    """Stable per-binding sub-seed so spawn streams never collide or drift."""
    digest = hashlib.sha256(f"{object_id}\x00{pattern_id}".encode()).digest()
    return (int(master_seed) ^ int.from_bytes(digest[:8], "big")) & ((1 << 63) - 1)


def build_animation(timeline: Timeline, cfg: SceneConfig) -> AnimationOutput:
    """Drive the animation primitives from a timeline per the scene bindings.

    Every binding is resolved and every check made here; the curves are
    sampled later, one object at a time, when `curves` is read.
    """
    duration = cfg.duration_override_s if cfg.duration_override_s is not None else timeline.duration_s
    tracks = {t.track_id: t for t in timeline.tracks}
    motions = []
    all_spawns = []
    unbound = []  # (pattern, object) pairs whose events no binding reads
    for index, obj in enumerate(cfg.objects):
        if obj.track_id not in tracks:
            raise SceneError(f"object {obj.object_id!r} references missing track {obj.track_id!r}")
        track = tracks[obj.track_id]
        by_pattern = {}
        for event in track.events:
            by_pattern.setdefault(event.pattern_id, []).append(event)
        for pattern_id in sorted(set(by_pattern) - set(obj.bindings)):
            logger.debug("track %r: pattern %r has no binding on %r, ignoring", track.track_id, pattern_id, obj.object_id)
            unbound.append(f"{pattern_id!r} on {obj.object_id!r}")

        position_providers = []
        scale_providers = []
        bounce_times = []
        bounce_actions = []
        soft_events = []
        steer_actions = []
        ups, downs = [], []

        for pattern_id, action in sorted(obj.bindings.items()):
            events = by_pattern.get(pattern_id, [])
            for event in events:
                if event.kind is not action.requires:
                    raise SceneError(
                        f"object {obj.object_id!r}: action {action.kind!r} on pattern {pattern_id!r} "
                        f"requires {action.requires.value} events but got {event.kind.value}"
                    )
            if isinstance(action, BounceAction):
                bounce_actions.append(action)
                bounce_times.extend(e.t_s for e in events)
                if action.soft:
                    soft_events.extend((e, action.squash) for e in events)
                if action.drift_speed != 0.0:
                    speed = action.drift_speed
                    position_providers.append(on_axis(0, lambda t, v=speed: v * t))
            elif isinstance(action, SlideAction):
                for event in events:
                    segment = slide_segment((event.t_begin_s, event.t_end_s), action.speed, action.squash)
                    position_providers.append(segment.position)
                    scale_providers.append(segment)
            elif isinstance(action, SteerAction):
                steer_actions.append(action)
                target = ups if action.direction > 0 else downs
                target.extend((e.t_begin_s, e.t_end_s) for e in events)
            elif isinstance(action, SpawnAction):
                seed = binding_seed(cfg.seed, obj.object_id, pattern_id)
                try:
                    spawns = spawn_from_impulses(
                        events,
                        action.entity_kind,
                        action.size_base,
                        action.size_per_strength,
                        action.placement,
                        seed,
                    )
                except AnimationError as exc:
                    raise SceneError(f"objects[{index}].bindings[{pattern_id!r}]: {exc}") from exc
                all_spawns.extend(spawns)

        if bounce_actions:
            tails = {a.tail for a in bounce_actions}
            if len(tails) > 1:
                raise SceneError(f"object {obj.object_id!r}: bounce bindings disagree on tail mode")
            if bounce_times:
                trajectory = solve_bounce(
                    sorted(bounce_times), BallisticParams(g=cfg.gravity, tail_mode=tails.pop())
                )
                position_providers.append(trajectory.position)
            for event, squash in soft_events:
                scale_providers.append(squash_profile(event.t_s, event.strength, squash))
        if steer_actions:
            speeds = {a.speed for a in steer_actions}
            bounds = {(a.z_min, a.z_max) for a in steer_actions}
            if len(speeds) > 1 or len(bounds) > 1:
                raise SceneError(
                    f"object {obj.object_id!r}: move_up/move_down bindings disagree on speed or bounds"
                )
            curve = steer_vertical(ups, downs, speeds.pop(), bounds.pop())
            position_providers.append(curve.position)

        frame_count(duration, cfg.fps)  # the check `sample` makes, so bad input fails before any output
        motions.append((obj.object_id, tuple(position_providers), tuple(scale_providers)))

    if unbound:
        listed = ": " + ", ".join(unbound) if len(unbound) <= _UNBOUND_LISTED else " (listed at DEBUG level)"
        logger.info("%d (pattern, object) pair(s) have events but no binding, ignored%s", len(unbound), listed)
    all_spawns.sort(key=lambda sp: (sp.t_s, sp.entity_kind, sp.size))
    return AnimationOutput(
        curves=ObjectCurves(motions, duration, cfg.fps),
        spawns=tuple(all_spawns),
        fps=cfg.fps,
        seed=cfg.seed,
        duration_s=duration,
    )


def animation_document(output: AnimationOutput) -> str:
    """The structured animation document: global settings plus the spawn list."""
    return docio.dump_json(
        {
            "duration_s": float(output.duration_s),
            "fps": float(output.fps),
            "seed": int(output.seed),
            "objects": list(output.curves.object_ids),
            "spawns": [
                {
                    "t": float(sp.t_s),
                    "kind": sp.entity_kind,
                    "size": float(sp.size),
                    "position": [float(c) for c in sp.position],
                }
                for sp in output.spawns
            ],
        }
    )
