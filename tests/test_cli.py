import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from soundcue import AudioClip, correlate, load_wav, make_pattern, read_timeline, resample, save_wav, scene
from soundcue import cli
from soundcue.cli import main

SR = 44100


def write_plan(path: Path, **overrides):
    plan = {
        "duration_s": 6.0,
        "sample_rate_hz": SR,
        "seed": 7,
        "noise_rms": 0.02,
        "patterns": [
            {"id": "tick", "kind": "impulse", "shape": "tonal_burst", "duration_s": 0.12, "seed": 1},
            {"id": "poc", "kind": "impulse", "shape": "noise_burst", "duration_s": 0.10, "seed": 2},
            {"id": "chhh", "kind": "continuous", "shape": "tonal_burst", "duration_s": 0.25, "seed": 3},
        ],
        "planted": [
            {"pattern": "tick", "t": 0.5},
            {"pattern": "poc", "t": 1.5, "amplitude": 0.8},
            {"pattern": "chhh", "t_begin": 2.2, "t_end": 3.2},
            {"pattern": "tick", "t": 4.5, "amplitude": 0.6},
        ],
    }
    plan.update(overrides)
    path.write_text(json.dumps(plan), encoding="utf-8")
    return plan


def write_scene(path: Path, doc=None):
    doc = doc or {
        "fps": 100,
        "seed": 42,
        "objects": [
            {
                "object_id": "ball",
                "track_id": "take",
                "bindings": {
                    "tick": {"kind": "bounce_hard"},
                    "chhh": {"kind": "slide"},
                    "poc": {"kind": "spawn_raindrop"},
                },
            }
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return doc


@pytest.fixture()
def fixture_dir(tmp_path):
    plan_path = tmp_path / "plan.json"
    write_plan(plan_path)
    out = tmp_path / "fixture"
    assert main(["gen", "--plan", str(plan_path), "--out-dir", str(out)]) == 0
    return out


class TestGen:
    def test_outputs_exist(self, fixture_dir):
        assert (fixture_dir / "sequence.wav").exists()
        assert (fixture_dir / "patterns.json").exists()
        assert (fixture_dir / "groundtruth.json").exists()
        assert (fixture_dir / "patterns" / "tick.wav").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        write_plan(plan_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(a)]) == 0
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(b)]) == 0
        assert (a / "sequence.wav").read_bytes() == (b / "sequence.wav").read_bytes()
        assert (a / "groundtruth.json").read_bytes() == (b / "groundtruth.json").read_bytes()

    def test_plan_outside_duration_exit_2(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        write_plan(plan_path, planted=[{"pattern": "tick", "t": 5.95}])
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "tick" in capsys.readouterr().err

    def test_seed_flag_overrides_plan(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        write_plan(plan_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(a), "--seed", "99"]) == 0
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(b)]) == 0
        assert (a / "sequence.wav").read_bytes() != (b / "sequence.wav").read_bytes()
        assert json.loads((a / "groundtruth.json").read_text())["seed"] == 99


class TestDetect:
    def test_recovers_ground_truth(self, fixture_dir, tmp_path):
        out = tmp_path / "det"
        code = main([
            "detect", str(fixture_dir / "sequence.wav"),
            "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(out),
        ])
        assert code == 0
        tl = read_timeline(out / "take.timeline.json")
        truth = json.loads((fixture_dir / "groundtruth.json").read_text())
        events = tl.tracks[0].events
        impulses = [e for e in events if e.kind.value == "impulse"]
        planted_impulses = [p for p in truth["planted"] if "t" in p]
        assert len(impulses) == len(planted_impulses)
        for event, planted in zip(impulses, sorted(planted_impulses, key=lambda p: p["t"])):
            assert event.pattern_id == planted["pattern"]
            assert abs(event.t_s - planted["t"]) < 0.010
        (segment,) = [e for e in events if e.kind.value == "continuous"]
        assert abs(segment.t_begin_s - 2.2) <= 0.25
        assert abs(segment.t_end_s - 3.2) <= 0.25

    def test_missing_pattern_file_exit_2(self, fixture_dir, tmp_path, capsys):
        manifest = json.loads((fixture_dir / "patterns.json").read_text())
        manifest[0]["path"] = "patterns/ghost.wav"
        broken = fixture_dir / "broken.json"
        broken.write_text(json.dumps(manifest))
        code = main([
            "detect", str(fixture_dir / "sequence.wav"),
            "--patterns", str(broken), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "ghost.wav" in capsys.readouterr().err

    def test_high_threshold_drops_degraded_instance(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        write_plan(
            plan_path,
            noise_rms=0.0,
            planted=[
                {"pattern": "tick", "t": 0.5},
                {"pattern": "tick", "t": 2.0, "distort": 0.5714, "distort_seed": 99},
            ],
        )
        fixture = tmp_path / "fx"
        assert main(["gen", "--plan", str(plan_path), "--out-dir", str(fixture)]) == 0
        args = ["detect", str(fixture / "sequence.wav"), "--patterns", str(fixture / "patterns.json"),
                "--track-id", "take"]
        low, high = tmp_path / "low", tmp_path / "high"
        assert main(args + ["--out-dir", str(low)]) == 0
        assert main(args + ["--out-dir", str(high), "--impulse-threshold", "0.9"]) == 0
        low_events = read_timeline(low / "take.timeline.json").tracks[0].events
        high_events = read_timeline(high / "take.timeline.json").tracks[0].events
        low_ticks = [e for e in low_events if abs(e.t_s - 2.0) < 0.01]
        assert len(low_ticks) == 1 and 0.5 < low_ticks[0].peak_correlation < 0.9
        assert [e for e in high_events if abs(e.t_s - 2.0) < 0.01] == []
        assert [e.t_s for e in high_events] == [e.t_s for e in low_events if abs(e.t_s - 2.0) >= 0.01]

    def test_min_continuous_duration_flag(self, fixture_dir, tmp_path):
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take"]
        strict = tmp_path / "strict"
        assert main(args + ["--out-dir", str(strict), "--min-continuous-duration", "2.0"]) == 0
        events = read_timeline(strict / "take.timeline.json").tracks[0].events
        assert [e for e in events if e.kind.value == "continuous"] == []
        assert [e for e in events if e.kind.value == "impulse"] != []

    def test_report_writes_traces(self, fixture_dir, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "detect", str(fixture_dir / "sequence.wav"),
            "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(out), "--report",
        ])
        assert code == 0
        header = (out / "take.correlation.csv").read_text().splitlines()[0]
        assert header == "t,ncc_chhh,avg_chhh,ncc_poc,ncc_tick"

    @pytest.mark.parametrize("flags", [[], ["--no-suppression"]])
    def test_report_shows_the_numbers_detect_used(self, fixture_dir, tmp_path, flags):
        out = tmp_path / "rep"
        assert main([
            "detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(out), "--report", *flags,
        ]) == 0
        lines = (out / "take.correlation.csv").read_text().splitlines()
        header = lines[0].split(",")
        columns = dict(zip(header, zip(*(map(float, line.split(",")) for line in lines[1:]))))
        events = read_timeline(out / "take.timeline.json").tracks[0].events
        assert {e.kind.value for e in events} == {"impulse", "continuous"}
        for event in events:
            if event.kind.value == "impulse":
                assert event.peak_correlation == columns[f"ncc_{event.pattern_id}"][round(event.t_s * SR)]
            else:
                first, last = round(event.t_begin_s * SR), round(event.t_end_s * SR)
                assert event.peak_correlation == max(columns[f"avg_{event.pattern_id}"][first : last + 1])

    @pytest.mark.parametrize("flags", [[], ["--no-suppression"]])
    def test_report_decides_like_plain_detect(self, fixture_dir, tmp_path, flags):
        """Plain `detect` never holds an impulse trace, `--report` decides from the traces: same timeline bytes."""
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take", *flags]
        plain, report = tmp_path / "plain", tmp_path / "rep"
        assert main(args + ["--out-dir", str(plain)]) == 0
        assert main(args + ["--out-dir", str(report), "--report"]) == 0
        assert (report / "take.timeline.json").read_bytes() == (plain / "take.timeline.json").read_bytes()

    def test_report_memory_is_bounded(self, fixture_dir, tmp_path):
        """The report holds its traces and one block of text, never the whole file's text."""
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take"]
        peaks = {}
        for name, flags in (("plain", []), ("report", ["--report"])):
            tracemalloc.start()
            try:
                assert main(args + ["--out-dir", str(tmp_path / name), *flags]) == 0
                _, peaks[name] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        lines = (tmp_path / "report" / "take.correlation.csv").read_text().splitlines()
        trace_bytes = (len(lines[0].split(",")) - 1) * (len(lines) - 1) * 8
        assert peaks["report"] - peaks["plain"] < trace_bytes

    def test_report_computes_each_trace_once(self, fixture_dir, tmp_path, monkeypatch):
        """The report writes the traces detection read: one engine pass per pattern length, whose
        running energy sum takes each sample's square once."""
        engine_calls, squared = [], {}  # squared: per pattern length, the running sums and the samples they took
        real_dot, real_push = correlate._sliding_dot, correlate._WindowSums.push

        def dot_spy(*args, **kwargs):
            engine_calls.append(np.shape(args[1])[-1])  # the pattern length
            return real_dot(*args, **kwargs)

        def push_spy(sums, x):
            if sums.of is np.square:
                squared.setdefault(sums.w, []).append((id(sums), x.size))
            return real_push(sums, x)

        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        monkeypatch.setattr(correlate._WindowSums, "push", push_spy)
        assert main([
            "detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(tmp_path / "rep"), "--report",
        ]) == 0
        assert len(engine_calls) == 3 and sorted(engine_calls) == sorted(squared)
        samples = len(load_wav(fixture_dir / "sequence.wav"))
        for pushes in squared.values():
            assert len({sums for sums, _ in pushes}) == 1 and sum(size for _, size in pushes) == samples

    def test_report_shares_each_length_forward_fft(self, fixture_dir, tmp_path, monkeypatch):
        """Two impulse patterns of one length go through one engine call with `--report` too."""
        tick = load_wav(fixture_dir / "patterns" / "tick.wav")
        twin = make_pattern("noise_burst", tick.duration_s, seed=11, sample_rate_hz=SR)
        assert len(twin) == len(tick)
        save_wav(twin, fixture_dir / "patterns" / "tock.wav", sample_format="float32")
        manifest = json.loads((fixture_dir / "patterns.json").read_text())
        manifest.append({"id": "tock", "kind": "impulse", "path": "patterns/tock.wav"})
        (fixture_dir / "patterns.json").write_text(json.dumps(manifest))
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take"]
        plain, report = tmp_path / "plain", tmp_path / "rep"
        assert main(args + ["--out-dir", str(plain)]) == 0
        shapes, real_dot = [], correlate._sliding_dot

        def dot_spy(s, p, *rest, **kwargs):
            shapes.append(np.shape(p))
            return real_dot(s, p, *rest, **kwargs)

        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        assert main(args + ["--out-dir", str(report), "--report"]) == 0
        assert [shape for shape in shapes if shape[-1] == len(tick)] == [(2, len(tick))]
        assert len(shapes) == 3  # one per pattern length
        assert (report / "take.timeline.json").read_bytes() == (plain / "take.timeline.json").read_bytes()
        header = (report / "take.correlation.csv").read_text().split("\n", 1)[0]
        assert header == "t,ncc_chhh,avg_chhh,ncc_poc,ncc_tick,ncc_tock"

    def test_report_resamples_pattern_like_detect(self, fixture_dir, tmp_path):
        tick = load_wav(fixture_dir / "patterns" / "tick.wav")
        save_wav(resample(tick, SR // 2), fixture_dir / "patterns" / "tick.wav", sample_format="float32")
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take"]
        plain, report = tmp_path / "plain", tmp_path / "rep"
        assert main(args + ["--out-dir", str(plain)]) == 0
        assert main(args + ["--out-dir", str(report), "--report"]) == 0
        assert (report / "take.timeline.json").read_bytes() == (plain / "take.timeline.json").read_bytes()
        lines = (report / "take.correlation.csv").read_text().splitlines()
        assert lines[0] == "t,ncc_chhh,avg_chhh,ncc_poc,ncc_tick"
        assert len(lines) - 1 == len(load_wav(fixture_dir / "sequence.wav"))


class TestSynth:
    def test_bounce_fixture_apex(self, tmp_path):
        timeline_doc = {
            "duration_s": 3.0,
            "tracks": [
                {"track_id": "take", "events": [
                    {"kind": "impulse", "pattern": "tick", "t": 1.0, "strength": 1.0, "peak_correlation": 0.95},
                    {"kind": "impulse", "pattern": "tick", "t": 2.0, "strength": 1.0, "peak_correlation": 0.95},
                ]}
            ],
        }
        tl_path = tmp_path / "take.timeline.json"
        tl_path.write_text(json.dumps(timeline_doc))
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        out = tmp_path / "anim"
        assert main(["synth", str(tl_path), "--scene", str(scene_path), "--out-dir", str(out)]) == 0
        rows = (out / "ball_curves.csv").read_text().splitlines()[1:]
        values = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
        assert values[1.5] == pytest.approx(1.22625, abs=1e-9)
        assert values[1.0] == pytest.approx(0.0, abs=1e-9)

    def test_unknown_track_exit_2(self, tmp_path, capsys):
        tl_path = tmp_path / "t.timeline.json"
        tl_path.write_text(json.dumps({"duration_s": 1.0, "tracks": []}))
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        assert main(["synth", str(tl_path), "--scene", str(scene_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "take" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ["0", "-30", "nan", "inf"])
    def test_invalid_fps_flag_named(self, tmp_path, capsys, fps):
        tl_path = tmp_path / "take.timeline.json"
        tl_path.write_text(json.dumps({"duration_s": 1.0, "tracks": [{"track_id": "take", "events": []}]}))
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        args = ["synth", str(tl_path), "--scene", str(scene_path), "--fps", fps, "--out-dir", str(tmp_path / "o")]
        assert main(args) == 2
        assert "--fps" in capsys.readouterr().err

    def test_seed_flag_changes_only_raindrops(self, fixture_dir, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        det = tmp_path / "det"
        assert main([
            "detect", str(fixture_dir / "sequence.wav"),
            "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(det),
        ]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["synth", str(det / "take.timeline.json"), "--scene", str(scene_path)]
        assert main(base + ["--out-dir", str(a)]) == 0
        assert main(base + ["--out-dir", str(b), "--seed", "43"]) == 0
        assert (a / "ball_curves.csv").read_bytes() == (b / "ball_curves.csv").read_bytes()
        da = json.loads((a / "animation.json").read_text())
        db = json.loads((b / "animation.json").read_text())
        assert [s["t"] for s in da["spawns"]] == [s["t"] for s in db["spawns"]]
        assert [s["size"] for s in da["spawns"]] == [s["size"] for s in db["spawns"]]
        assert [s["position"] for s in da["spawns"]] != [s["position"] for s in db["spawns"]]


class TestRun:
    def test_single_track_equals_detect_then_synth(self, fixture_dir, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        run_out = tmp_path / "run"
        assert main([
            "run", "--track", f"take={fixture_dir / 'sequence.wav'}",
            "--patterns", str(fixture_dir / "patterns.json"),
            "--scene", str(scene_path), "--out-dir", str(run_out),
        ]) == 0
        det = tmp_path / "det"
        assert main([
            "detect", str(fixture_dir / "sequence.wav"),
            "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(det),
        ]) == 0
        synth_out = tmp_path / "synth"
        assert main([
            "synth", str(det / "take.timeline.json"), "--scene", str(scene_path),
            "--out-dir", str(synth_out),
        ]) == 0
        assert (run_out / "timeline.json").read_bytes() == (det / "take.timeline.json").read_bytes()
        assert (run_out / "ball_curves.csv").read_bytes() == (synth_out / "ball_curves.csv").read_bytes()
        assert (run_out / "animation.json").read_bytes() == (synth_out / "animation.json").read_bytes()

    def test_zero_tracks_usage_error(self, fixture_dir, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        code = main([
            "run", "--patterns", str(fixture_dir / "patterns.json"),
            "--scene", str(scene_path), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 64

    def test_repeated_track_name_usage_error_before_any_detection(self, fixture_dir, tmp_path, monkeypatch, capsys):
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        detected, real_detect = [], cli.detect

        def detect_spy(*args, **kwargs):
            detected.append(args)
            return real_detect(*args, **kwargs)

        monkeypatch.setattr(cli, "detect", detect_spy)
        wav = fixture_dir / "sequence.wav"
        code = main([
            "run", "--track", f"take={wav}", "--track", f"other={wav}", "--track", f"take={wav}",
            "--patterns", str(fixture_dir / "patterns.json"),
            "--scene", str(scene_path), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 64
        assert detected == []
        assert "--track" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_deterministic(self, fixture_dir, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--track", f"take={fixture_dir / 'sequence.wav'}",
                "--patterns", str(fixture_dir / "patterns.json"), "--scene", str(scene_path)]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("timeline.json", "ball_curves.csv", "animation.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _gen_argv(tmp_path, **plan):
    write_plan(tmp_path / "plan.json", **plan)
    return ["gen", "--plan", str(tmp_path / "plan.json"), "--out-dir", str(tmp_path / "out")]


def _synth_argv(tmp_path, timeline_text=None, scene_doc=None, **timeline):
    """`synth` on one 'take' track holding a tick at 1 s, bound to a hard bounce on 'ball'."""
    doc = {
        "duration_s": 3.0,
        "tracks": [{"track_id": "take", "events": [
            {"kind": "impulse", "pattern": "tick", "t": 1.0, "strength": 1.0, "peak_correlation": 0.9},
        ]}],
    }
    doc.update(timeline)
    path = tmp_path / "take.timeline.json"
    if isinstance(timeline_text, bytes):
        path.write_bytes(timeline_text)
    else:
        path.write_text(timeline_text or json.dumps(doc))
    scene_doc = {"fps": 100, "seed": 1, **(scene_doc or {})}
    scene_doc.setdefault(
        "objects", [{"object_id": "ball", "track_id": "take", "bindings": {"tick": {"kind": "bounce_hard"}}}]
    )
    write_scene(tmp_path / "scene.json", scene_doc)
    return ["synth", str(path), "--scene", str(tmp_path / "scene.json"), "--out-dir", str(tmp_path / "out")]


def _tick_binding(action):
    return {"objects": [{"object_id": "ball", "track_id": "take", "bindings": {"tick": action}}]}


def _detect_argv(tmp_path, manifest_path=None, tick=None, flags=()):
    """`detect` on a generated fixture; `manifest_path` replaces the tick's path, `tick` its clip."""
    write_plan(tmp_path / "plan.json")
    fixture = tmp_path / "fx"
    assert main(["gen", "--plan", str(tmp_path / "plan.json"), "--out-dir", str(fixture)]) == 0
    manifest = fixture / "patterns.json"
    if manifest_path is not None:
        entries = json.loads(manifest.read_text())
        entries[0]["path"] = manifest_path
        manifest.write_text(json.dumps(entries))
    if tick is not None:
        save_wav(tick, fixture / "patterns" / "tick.wav", sample_format="float32")
    return ["detect", str(fixture / "sequence.wav"), "--patterns", str(manifest), "--out-dir", str(tmp_path / "out"),
            *flags]


def _silent_after_resampling():
    """A pattern at twice the take's rate whose one nonzero sample falls between the take's samples."""
    samples = np.zeros(101)
    samples[51] = 0.5
    return AudioClip(samples, 2 * SR)


BAD_INPUTS = {
    "plan duration zero": (lambda p: _gen_argv(p, duration_s=0.0, planted=[]), "duration_s"),
    "plan duration NaN": (lambda p: _gen_argv(p, duration_s=math.nan, planted=[]), "duration_s"),
    "plan rate zero": (lambda p: _gen_argv(p, sample_rate_hz=0, planted=[]), "sample_rate_hz"),
    "plan rate past the WAV header": (
        lambda p: _gen_argv(p, sample_rate_hz=2_000_000_000, duration_s=1e-7, patterns=[], planted=[]),
        "sample_rate_hz",
    ),
    "plan noise negative": (lambda p: _gen_argv(p, noise_rms=-1.0), "noise_rms"),
    "plan pattern shorter than 4 samples": (
        lambda p: _gen_argv(p, patterns=[{"id": "tick", "kind": "impulse", "duration_s": 1e-6, "seed": 1}], planted=[]),
        "patterns[0].duration_s",
    ),
    "timeline duration NaN": (lambda p: _synth_argv(p, duration_s=math.nan), "duration_s"),
    "timeline duration infinite": (lambda p: _synth_argv(p, duration_s=math.inf), "duration_s"),
    "timeline event time NaN": (
        lambda p: _synth_argv(p, tracks=[{"track_id": "take", "events": [
            {"kind": "impulse", "pattern": "tick", "t": math.nan, "strength": 1.0, "peak_correlation": 0.9}]}]),
        "tracks[0].events[0].t",
    ),
    "timeline not UTF-8": (lambda p: _synth_argv(p, timeline_text=b'{"duration_s": 1.0, "tracks": [\xff]}'), "UTF-8"),
    "timeline integer of 5000 digits": (
        lambda p: _synth_argv(p, timeline_text='{"duration_s": ' + "1" * 5000 + ', "tracks": []}'), "timeline",
    ),
    "timeline nested 100000 deep": (lambda p: _synth_argv(p, timeline_text="[" * 100_000 + "]" * 100_000), "timeline"),
    "scene gravity NaN": (lambda p: _synth_argv(p, scene_doc={"gravity": math.nan}), "gravity"),
    "scene duration override NaN": (
        lambda p: _synth_argv(p, scene_doc={"duration_override_s": math.nan}), "duration_override_s",
    ),
    "scene duration override infinite": (
        lambda p: _synth_argv(p, scene_doc={"duration_override_s": math.inf}), "duration_override_s",
    ),
    "scene fps past any frame count": (lambda p: _synth_argv(p, scene_doc={"fps": 1e300}), "fps"),
    "spawn range wider than a float": (
        lambda p: _synth_argv(p, scene_doc=_tick_binding({"kind": "spawn_raindrop", "placement": {
            "kind": "uniform_rect", "x_range": [-1.7e308, 1.7e308], "y_range": [0.0, 1.0]}})),
        "objects[0].bindings['tick'].placement.x_range",
    ),
    "spawn size past a float": (
        lambda p: _synth_argv(
            p, scene_doc=_tick_binding({"kind": "spawn_dart", "size_base": 1.7e308, "size_per_strength": 1.7e308})
        ),
        "objects[0].bindings['tick']",
    ),
    "manifest path with a NUL": (lambda p: _detect_argv(p, manifest_path="patterns/ti\x00ck.wav"), "[0].path"),
    "pattern silent at the take's rate": (lambda p: _detect_argv(p, tick=_silent_after_resampling()), "'tick'"),
    "min continuous duration NaN": (
        lambda p: _detect_argv(p, flags=["--min-continuous-duration", "nan"]), "continuous_min_duration_s",
    ),
    "min continuous duration negative": (
        lambda p: _detect_argv(p, flags=["--min-continuous-duration", "-1"]), "--min-continuous-duration",
    ),
    "impulse threshold above one": (
        lambda p: _detect_argv(p, flags=["--impulse-threshold", "2"]), "--impulse-threshold",
    ),
    "continuous threshold zero": (
        lambda p: _detect_argv(p, flags=["--continuous-threshold", "0"]), "--continuous-threshold",
    ),
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_2_names_the_field(self, tmp_path, capsys, case):
        argv_of, field = BAD_INPUTS[case]
        argv = argv_of(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("soundcue: error: ") and field in err

    def test_value_error_inside_the_pipeline_is_not_bad_input(self, tmp_path, monkeypatch):
        argv = _synth_argv(tmp_path)
        assert main(argv) == 0

        def broken(timeline, cfg):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(scene, "build_animation", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(argv)


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 64

    def test_unknown_flag_is_usage_error(self):
        assert main(["detect", "x.wav", "--patterns", "p.json", "--frobnicate"]) == 64

    def test_console_script_runs(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "soundcue.cli", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "detect" in result.stdout
