"""Command line front end.

Subcommands:
  detect  one WAV + pattern manifest -> timeline document
  synth   timeline document + scene document -> curve tables + spawn list
  run     detect every input track, merge, synth (one-shot pipeline)
  gen     render a synthetic fixture plan into WAVs + ground truth

Exit codes: 0 success, 2 input/validation error (a SoundCueError or an
OSError), 64 usage error. Any other exception is a bug in soundcue and
propagates with its traceback. All randomness flows from --seed /
document seeds; outputs are byte-identical across runs for identical
inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import docio, parallel, scene, synthgen, timeline
from .animate import csv_blocks
from .audio import load_wav, read_wav_header, save_wav
from .detect import DetectorConfig, SoundPattern, check_dictionary, detect
from .errors import SchemaError, SoundCueError
from .timeline import PatternKind, Timeline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _track_id(value: str) -> str:
    """The --track-id flag, which names the output files."""
    try:
        return docio.as_file_name(value, "")
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(exc.reason) from exc


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--impulse-threshold", type=float, default=0.5)
    p.add_argument("--continuous-threshold", type=float, default=0.5)
    p.add_argument("--min-continuous-duration", type=float, default=0.15)
    p.add_argument("--no-suppression", action="store_true", help="keep all candidate peaks")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="soundcue", description="Sound-cue detection and event-synchronized animation synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect pattern instances in a recording")
    p.add_argument("sequence", help="input WAV recording")
    p.add_argument("--patterns", required=True, help="pattern manifest (JSON list of {id, path, kind})")
    p.add_argument("--track-id", type=_track_id, default=None, help="track name (default: WAV file stem)")
    _add_detect_flags(p)
    p.add_argument("--report", action="store_true", help="also write the correlation traces as CSV")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("synth", help="synthesize animation from a timeline and a scene")
    p.add_argument("timeline", help="timeline document")
    p.add_argument("--scene", required=True, help="scene document")
    p.add_argument("--fps", type=float, default=None, help="override the scene fps")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="detect + merge + synth in one step")
    p.add_argument(
        "--track",
        action="append",
        default=None,
        metavar="NAME=WAV",
        help="input soundtrack as track-name=path (repeatable)",
    )
    p.add_argument("--patterns", required=True)
    p.add_argument("--scene", required=True)
    _add_detect_flags(p)
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic fixture from a plan")
    p.add_argument("--plan", required=True, help="fixture plan document")
    p.add_argument("--seed", type=int, default=None, help="override the plan seed")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_gen)
    return parser


def _relative_path(value, path: str) -> str:
    rel = docio.as_string(value, path)
    if "\x00" in rel:
        raise SchemaError(path, "contains a NUL character")
    return rel


def _manifest_pattern(obj, where: str, directory: Path, ids: set) -> SoundPattern:
    with docio.Fields(obj, where) as f:
        pattern_id = f.read("id", docio.as_string)
        rel = f.read("path", _relative_path)
        kind = f.enum("kind", PatternKind, "pattern kind")
    if pattern_id in ids:
        raise SchemaError(f.at("id"), f"pattern id {pattern_id!r} is given twice; pattern ids must be unique")
    ids.add(pattern_id)
    clip = load_wav(directory / rel)
    try:
        return SoundPattern(id=pattern_id, clip=clip, kind=kind)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from exc


def _load_manifest(path) -> list[SoundPattern]:
    """The manifest's patterns: at least one, with distinct ids, each id checked before its WAV is read."""
    manifest_path = Path(path)
    entries = docio.parse_json(docio.read_text(manifest_path, "manifest"), "manifest")
    if docio.as_array(entries, "") == []:
        raise SchemaError("", "manifest is empty: the pattern dictionary needs at least one pattern")
    ids = set()
    return docio.array_of(lambda obj, where: _manifest_pattern(obj, where, manifest_path.parent, ids))(entries, "")


def _detector_config(args) -> DetectorConfig:
    cfg = DetectorConfig(suppression=not args.no_suppression)
    for flag, field, value in (
        ("--impulse-threshold", "impulse_threshold", args.impulse_threshold),
        ("--continuous-threshold", "continuous_threshold", args.continuous_threshold),
        ("--min-continuous-duration", "continuous_min_duration_s", args.min_continuous_duration),
    ):
        try:
            cfg = dataclasses.replace(cfg, **{field: value})
        except ValueError as exc:
            raise SoundCueError(f"{flag}: {exc}") from exc
    return cfg


class _CorrelationReport:
    """`detect --report`'s recorder: a wide CSV of every pattern's traces, one column each, sorted by pattern id.

    `detect` calls it with each pattern's trace and box means, batch by
    batch. It writes the whole blocks of rows every column has reached, and
    the rest once all are complete: about one batch per column and one
    block of text are held, whatever the take's length.
    """

    def __init__(self, out, patterns, sequence):
        self.out, self.n, self.rate, self.written = out, len(sequence), sequence.sample_rate_hz, 0  # rows written
        self.pending = {}  # (pattern id, averaged) -> the column's values not yet written, in column order
        for pattern in sorted(patterns, key=lambda p: p.id):
            for averaged in (False, True) if pattern.kind is PatternKind.CONTINUOUS else (False,):
                self.pending[pattern.id, averaged] = np.empty(0)
        names = ["t", *(("avg_" if averaged else "ncc_") + pattern_id for pattern_id, averaged in self.pending)]
        out.write(",".join(map(docio.csv_cell, names)) + "\n")

    def __call__(self, pattern_id: str, averaged: bool, values: np.ndarray) -> None:
        self.pending[pattern_id, averaged] = np.concatenate((self.pending[pattern_id, averaged], values))
        rows, ready = docio.CSV_BLOCK_ROWS, min(v.size for v in self.pending.values())
        count = ready if self.written + ready == self.n else ready // rows * rows  # rows to write now
        for lo in range(0, count, rows):
            times = np.arange(self.written + lo, self.written + min(lo + rows, count)) / self.rate
            columns = (times, *(v[lo : lo + times.size] for v in self.pending.values()))
            self.out.write(docio.csv_block([docio.format_floats(v) for v in columns]))
        self.pending = {key: v[count:] for key, v in self.pending.items()}
        self.written += count


class _Outputs:
    """A command's output files, written under temporary names in `out_dir` and renamed into place together.

    `path(name)` gives the temporary path whose file becomes `name` once
    the block ends without an error; `name` may lie in a subdirectory of
    `out_dir`, such as `patterns/tick.wav`, and the temporary file sits
    beside its final one. On an error or an interrupt, every temporary
    file is removed, and so are the directories the block created,
    `out_dir` and those subdirectories among them: a failed command
    leaves no file that looks finished.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.staged: list[tuple[Path, Path]] = []  # (temporary, final)

    def __enter__(self) -> "_Outputs":
        # The directories made for out_dir, innermost first.
        self.created = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def path(self, name: str) -> Path:
        final = self.out_dir / name
        # The subdirectories made for it, innermost first, are removed before those made earlier.
        self.created[:0] = [d for d in (final.parent, *final.parent.parents) if not d.exists()]
        final.parent.mkdir(parents=True, exist_ok=True)
        temporary = final.parent / f".{final.name}.{os.getpid()}.tmp"
        self.staged.append((temporary, final))
        return temporary

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for temporary, final in self.staged:
                os.replace(temporary, final)
            return
        for temporary, _ in self.staged:
            temporary.unlink(missing_ok=True)
        for directory in self.created:
            try:
                directory.rmdir()
            except OSError:  # something else has been put there since
                break


def cmd_detect(args) -> None:
    patterns = _load_manifest(args.patterns)
    cfg = _detector_config(args)
    sequence = load_wav(args.sequence)
    track_id = Path(args.sequence).stem if args.track_id is None else args.track_id
    timeline_path = Path(args.out_dir) / f"{track_id}.timeline.json"
    with _Outputs(Path(args.out_dir)) as outputs:
        if args.report:  # written as the one detection pass reads the traces
            with open(outputs.path(f"{track_id}.correlation.csv"), "w", encoding="utf-8") as out:
                record = _CorrelationReport(out, patterns, sequence)
                result = detect(sequence, patterns, cfg, track_id, str(args.sequence), record)
        else:
            result = detect(sequence, patterns, cfg, track_id, str(args.sequence))
        timeline.write_timeline(result, outputs.path(timeline_path.name))
    events = result.tracks[0].events
    print(f"detected {len(events)} event(s) on track {track_id!r} -> {timeline_path}")


def _frame_ranges(frames: int) -> list:
    """`frames` cut into one contiguous range of whole CSV blocks per writer process.

    There is one writer per usable CPU where processes can be forked
    (`parallel.processes`), but no more than leaves each at least two
    blocks: forking and reaping a process costs about as much as
    formatting one block.
    """
    rows = docio.CSV_BLOCK_ROWS
    blocks = -(-frames // rows)
    count = parallel.processes(blocks // 2)
    edges = [blocks * k // count * rows for k in range(count)] + [frames]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _append(path: Path, parts) -> None:
    """Append the files `parts` to `path` in order, copied by the kernel."""
    with open(path, "r+b") as out:  # not "ab": sendfile refuses a file opened to append
        out.seek(0, os.SEEK_END)
        for part in parts:
            with open(part, "rb") as source:
                while os.sendfile(out.fileno(), source.fileno(), None, 1 << 30):
                    pass


def _write_animation(output: scene.AnimationOutput, outputs: _Outputs) -> None:
    """Write each object's curve CSV, then `animation.json`.

    Each CSV is cut into `_frame_ranges`. This process writes the first
    range of every object to the object's file; a forked process per
    further range samples every object on its own frames only and writes
    them to a part file beside it. Once all are done the parts are
    appended in order and removed, on failure too. Each process samples
    an object when it writes it and writes a block at a time, so it holds
    one object's frames of its range and one block of text at once.
    """
    curves = output.curves
    ranges = _frame_ranges(curves.frame_count)
    paths = [outputs.path(f"{object_id}_curves.csv") for object_id in curves.object_ids]
    files = [paths] + [[path.with_suffix(f".part{k}") for path in paths] for k in range(1, len(ranges))]

    def write_range(k: int) -> None:
        for index, path in enumerate(files[k]):
            with open(path, "w", encoding="utf-8") as out:
                out.writelines(csv_blocks(curves.on_frames(index, ranges[k]), header=k == 0))

    try:
        parallel.split(write_range, len(ranges))
        if len(ranges) > 1:
            for index, path in enumerate(paths):
                _append(path, [parts[index] for parts in files[1:]])
    finally:
        for parts in files[1:]:
            for part in parts:
                part.unlink(missing_ok=True)
    outputs.path("animation.json").write_text(scene.animation_document(output), encoding="utf-8")


def _scene_overrides(cfg, args):
    if args.fps is not None:
        try:
            cfg = dataclasses.replace(cfg, fps=args.fps)
        except ValueError as exc:
            raise SoundCueError(f"--fps: {exc}") from exc
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _consumed(tl: Timeline, cfg) -> int:
    count = 0
    tracks = {t.track_id: t for t in tl.tracks}
    for obj in cfg.objects:
        track = tracks.get(obj.track_id)
        if track is None:
            continue
        count += sum(1 for e in track.events if e.pattern_id in obj.bindings)
    return count


def cmd_synth(args) -> None:
    tl = timeline.read_timeline(args.timeline)
    scene_cfg = _scene_overrides(scene.parse_scene(docio.read_text(args.scene, "scene")), args)
    output = scene.build_animation(tl, scene_cfg)
    with _Outputs(Path(args.out_dir)) as outputs:
        _write_animation(output, outputs)
    print(
        f"synthesized {len(output.curves)} object(s), {_consumed(tl, scene_cfg)} event(s) consumed, "
        f"{output.duration_s:.3f} s at {output.fps} fps, {len(output.spawns)} spawn(s)"
    )


def _usage_error(message: str) -> SystemExit:
    print(f"soundcue: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def cmd_run(args) -> None:
    if not args.track:
        raise _usage_error("run needs at least one --track NAME=WAV")
    specs = {}
    for item in args.track:
        name, sep, wav = item.partition("=")
        if not sep or not name or not wav:
            raise _usage_error(f"--track expects NAME=WAV, got {item!r}")
        if name in specs:
            raise _usage_error(f"--track {name!r} is given twice")
        specs[name] = wav
    patterns = _load_manifest(args.patterns)
    cfg = _detector_config(args)
    scene_cfg = _scene_overrides(
        scene.parse_scene(
            docio.read_text(args.scene, "scene"),
            pattern_kinds={p.id: p.kind for p in patterns},
        ),
        args,
    )
    for name, wav in specs.items():  # every track's header, before any track is loaded or correlated
        header = read_wav_header(wav)
        check_dictionary(patterns, header.frames, header.sample_rate_hz, name)
    merged = timeline.merge([detect(load_wav(wav), patterns, cfg, name, wav) for name, wav in specs.items()])
    out_dir = Path(args.out_dir)
    output = scene.build_animation(merged, scene_cfg)
    with _Outputs(out_dir) as outputs:
        timeline.write_timeline(merged, outputs.path("timeline.json"))
        _write_animation(output, outputs)
    n_events = sum(len(t.events) for t in merged.tracks)
    print(
        f"detected {n_events} event(s) on {len(merged.tracks)} track(s); "
        f"synthesized {len(output.curves)} object(s), {len(output.spawns)} spawn(s) -> {out_dir}"
    )


def cmd_gen(args) -> None:
    plan = synthgen.parse_plan(docio.read_text(args.plan, "plan"))
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    sequence, clips = synthgen.realize(plan)
    out_dir = Path(args.out_dir)
    with _Outputs(out_dir) as outputs:
        save_wav(sequence, outputs.path("sequence.wav"), sample_format="float32")
        manifest = []
        for definition in plan.patterns:
            rel = f"patterns/{definition.id}.wav"
            save_wav(clips[definition.id], outputs.path(rel), sample_format="float32")
            manifest.append({"id": definition.id, "kind": definition.kind.value, "path": rel})
        outputs.path("patterns.json").write_text(docio.dump_json(manifest), encoding="utf-8")
        outputs.path("groundtruth.json").write_text(synthgen.serialize_plan(plan), encoding="utf-8")
    print(f"generated {sequence.duration_s:.3f} s fixture with {len(plan.patterns)} pattern(s) -> {out_dir}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (SoundCueError, OSError) as exc:
        print(f"soundcue: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
