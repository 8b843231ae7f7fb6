"""Detected-event timeline shared by the detector and the animation layer.

A timeline groups events into named tracks (one per recorded soundtrack)
and serializes to a canonical JSON document: keys sorted, floats in their
shortest round-trip form, so two equal timelines always produce identical
bytes and a serialize/deserialize round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from . import docio
from .errors import SchemaError, SoundCueError

PEAK_TOLERANCE = 1e-6


class PatternKind(Enum):
    IMPULSE = "impulse"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class EventInstance:
    """One detected instance: a single onset (impulse) or an interval."""

    pattern_id: str
    kind: PatternKind
    strength: float
    peak_correlation: float
    t_s: Optional[float] = None
    t_begin_s: Optional[float] = None
    t_end_s: Optional[float] = None

    def __post_init__(self):
        if self.kind is PatternKind.IMPULSE:
            if self.t_s is None or self.t_begin_s is not None or self.t_end_s is not None:
                raise ValueError("impulse events carry exactly t_s")
        elif self.kind is PatternKind.CONTINUOUS:
            if self.t_s is not None or self.t_begin_s is None or self.t_end_s is None:
                raise ValueError("continuous events carry exactly t_begin_s/t_end_s")
            if not self.t_begin_s < self.t_end_s:
                raise ValueError(f"continuous event needs t_begin_s < t_end_s, got [{self.t_begin_s}, {self.t_end_s}]")
        else:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.strength < 0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")
        if not 0.0 < self.peak_correlation <= 1.0 + PEAK_TOLERANCE:
            raise ValueError(f"peak_correlation must lie in (0, 1], got {self.peak_correlation}")

    @property
    def onset_s(self) -> float:
        return self.t_s if self.kind is PatternKind.IMPULSE else self.t_begin_s

    @property
    def end_s(self) -> float:
        return self.t_s if self.kind is PatternKind.IMPULSE else self.t_end_s


@dataclass(frozen=True)
class Track:
    """Events detected from one soundtrack. Events are kept time-sorted."""

    track_id: str
    events: tuple = ()
    source_audio: Optional[str] = None

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda e: (e.onset_s, e.pattern_id)))
        object.__setattr__(self, "events", ordered)


@dataclass(frozen=True)
class Timeline:
    """Tracks in canonical (lexicographic) order plus the overall duration."""

    tracks: tuple = ()
    duration_s: float = 0.0

    def __post_init__(self):
        ordered = tuple(sorted(self.tracks, key=lambda t: t.track_id))
        ids = [t.track_id for t in ordered]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise SoundCueError(f"duplicate track id(s): {', '.join(dupes)}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        for track in ordered:
            for event in track.events:
                if event.onset_s < 0 or event.end_s > self.duration_s:
                    raise ValueError(
                        f"event for {event.pattern_id!r} at {event.onset_s} lies outside [0, {self.duration_s}]"
                    )
        object.__setattr__(self, "tracks", ordered)

    def track(self, track_id: str) -> Track:
        for t in self.tracks:
            if t.track_id == track_id:
                return t
        raise KeyError(track_id)


def merge(timelines: Iterable[Timeline]) -> Timeline:
    """Combine timelines track-for-track; events are never modified.

    Track ids must be unique across the inputs; the result's duration is
    the maximum of the inputs'.
    """
    timelines = list(timelines)
    tracks = tuple(t for tl in timelines for t in tl.tracks)
    duration = max((tl.duration_s for tl in timelines), default=0.0)
    return Timeline(tracks=tracks, duration_s=duration)


def _event_to_obj(event: EventInstance) -> dict:
    obj = {
        "kind": event.kind.value,
        "pattern": event.pattern_id,
        "strength": float(event.strength),
        "peak_correlation": float(event.peak_correlation),
    }
    if event.kind is PatternKind.IMPULSE:
        obj["t"] = float(event.t_s)
    else:
        obj["t_begin"] = float(event.t_begin_s)
        obj["t_end"] = float(event.t_end_s)
    return obj


def serialize(timeline: Timeline) -> str:
    tracks = []
    for track in timeline.tracks:
        obj = {"track_id": track.track_id, "events": [_event_to_obj(e) for e in track.events]}
        if track.source_audio is not None:
            obj["source_audio"] = track.source_audio
        tracks.append(obj)
    return docio.dump_json({"duration_s": float(timeline.duration_s), "tracks": tracks})


def _event_from_obj(obj, path: str) -> EventInstance:
    with docio.Fields(obj, path) as f:
        kind = f.enum("kind", PatternKind, "event kind")
        pattern_id = f.read("pattern", docio.as_string)
        strength = f.read("strength", docio.as_number)
        peak_correlation = f.read("peak_correlation", docio.as_number)
        impulse = kind is PatternKind.IMPULSE
        t_s = f.read("t", docio.as_number) if impulse else None
        t_begin_s = None if impulse else f.read("t_begin", docio.as_number)
        t_end_s = None if impulse else f.read("t_end", docio.as_number)
    try:
        return EventInstance(pattern_id, kind, strength, peak_correlation, t_s, t_begin_s, t_end_s)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _track_from_obj(obj, path: str) -> Track:
    with docio.Fields(obj, path) as f:
        return Track(
            track_id=f.read("track_id", docio.as_string),
            events=tuple(f.read("events", docio.array_of(_event_from_obj))),
            source_audio=f.read("source_audio", docio.nullable(docio.as_string), None),
        )


def deserialize(text: str) -> Timeline:
    with docio.Fields(docio.parse_json(text, "timeline")) as f:
        duration = f.read("duration_s", docio.as_number)
        tracks = f.read("tracks", docio.array_of(_track_from_obj))
    try:
        return Timeline(tracks=tuple(tracks), duration_s=duration)
    except (ValueError, SoundCueError) as exc:
        raise SchemaError("", str(exc)) from exc


def write_timeline(timeline: Timeline, path) -> None:
    from pathlib import Path

    Path(path).write_text(serialize(timeline), encoding="utf-8")


def read_timeline(path) -> Timeline:
    return deserialize(docio.read_text(path, "timeline"))
