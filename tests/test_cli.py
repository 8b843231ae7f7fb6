import ast
import csv
import functools
import importlib
import io
import json
import math
import os
import signal
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from soundcue import (
    AudioClip, GroundTruth, PatternKind, PlantedInstance, SoundPattern, correlate, curves_to_csv, detect, load_wav,
    make_pattern, place_instances, read_timeline, resample, save_wav, scene,
)
from soundcue import animate, cli, parallel
from soundcue.animate import _time_blocks
from soundcue.cli import main
from conftest import negative_zero_py

SR = 44100

pytestmark = pytest.mark.usefixtures("no_process_left")


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
        assert not list(fixture_dir.rglob("*.tmp"))

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

    def test_report_memory_is_bounded(self, tmp_path, monkeypatch):
        """The report is written as `detect` reads the traces: its memory does not grow with the take.

        With impulse and continuous patterns of two lengths, `detect` and
        the report's recorder peak the same on a 20 s and a 60 s take, to
        within one batch budget (8 * _BATCH_SAMPLES bytes). One trace of
        the 40 s between them is 2.4 budgets.
        """
        rate = 4000
        monkeypatch.setattr(correlate, "_WORKERS", 2)
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", 1 << 16)  # one block a batch: 3 batches at 20 s, 8 at 60 s
        kinds = (("tick", 0.1, PatternKind.IMPULSE), ("chhh", 0.2, PatternKind.CONTINUOUS), ("poc", 0.2, PatternKind.IMPULSE))
        patterns = [
            SoundPattern(pid, make_pattern("tonal_burst", d, seed=20 + i, sample_rate_hz=rate), kind)
            for i, (pid, d, kind) in enumerate(kinds)
        ]
        planted = [PlantedInstance("tick", onset_s=2.0), PlantedInstance("poc", onset_s=9.0),
                   PlantedInstance("chhh", t_begin_s=4.0, t_end_s=6.0)]
        budget = 8 * correlate._BATCH_SAMPLES
        peaks = {}
        for duration in (20.0, 60.0):
            plan = GroundTruth(duration_s=duration, sample_rate_hz=rate, seed=1, noise_rms=0.02, planted=tuple(planted))
            s = place_instances({p.id: p.clip for p in patterns}, plan)
            with open(os.devnull, "w", encoding="utf-8") as out:
                report = cli._CorrelationReport(out, patterns, s)
                tracemalloc.start()
                try:
                    events = detect(s, patterns, record=report).tracks[0].events
                    _, peaks[duration] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert report.written == len(s)  # every row of the report was written
            assert {e.pattern_id for e in events} == {p.id for p in patterns}
        assert abs(peaks[60.0] - peaks[20.0]) <= budget, peaks

    def test_report_computes_each_trace_once(self, fixture_dir, tmp_path, monkeypatch):
        """The report writes the traces detection read: one engine pass over the take for every
        pattern length, which builds each block's prefix sum of s^2 once."""
        engine_calls, built = [], []  # built: the blocks of each prefix sum of s^2
        real_dot, real_prefix = correlate._sliding_dot, correlate._block_prefix

        def dot_spy(*args, **kwargs):
            engine_calls.append(sorted(len(row) for row in args[1]))  # the pattern lengths
            return real_dot(*args, **kwargs)

        def prefix_spy(blocks):
            built.append(blocks.shape[0])
            return real_prefix(blocks)

        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        monkeypatch.setattr(correlate, "_block_prefix", prefix_spy)
        assert main([
            "detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "take", "--out-dir", str(tmp_path / "rep"), "--report",
        ]) == 0
        assert len(engine_calls) == 1 and len(set(engine_calls[0])) == 3  # three lengths, one pass
        n = len(load_wav(fixture_dir / "sequence.wav"))
        assert sum(built) == correlate._Layout.of(n, max(engine_calls[0])).blocks  # every block once, for every pattern

    def test_report_shares_each_length_forward_fft(self, fixture_dir, tmp_path, monkeypatch):
        """Two impulse patterns of one length go through the take's one engine call with `--report` too."""
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
        calls, real_dot = [], correlate._sliding_dot

        def dot_spy(s, p, *rest, **kwargs):
            calls.append([len(row) for row in p])
            return real_dot(s, p, *rest, **kwargs)

        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        assert main(args + ["--out-dir", str(report), "--report"]) == 0
        assert len(calls) == 1  # one per take
        assert calls[0].count(len(tick)) == 2 and len(calls[0]) == 4
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


    def test_report_bytes_do_not_depend_on_blocks_or_batches(self, fixture_dir, tmp_path, monkeypatch):
        """Rows are written once every column reaches them: the file is the same whatever the CSV block and batch sizes."""
        args = ["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                "--track-id", "take", "--report"]
        assert main(args + ["--out-dir", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(cli.docio, "CSV_BLOCK_ROWS", 1000)  # divides no batch
        monkeypatch.setattr(correlate, "_BATCH_SAMPLES", 1 << 16)  # batches of one block, whose lags the box means trail
        assert main(args + ["--out-dir", str(tmp_path / "small")]) == 0
        default = (tmp_path / "default" / "take.correlation.csv").read_bytes()
        assert (tmp_path / "small" / "take.correlation.csv").read_bytes() == default
        assert default.count(b"\n") == 1 + len(load_wav(fixture_dir / "sequence.wav"))

    def test_report_quotes_ids_that_need_it(self, fixture_dir, tmp_path):
        """A pattern id holding a comma, a quote, CR or LF is one quoted header cell; other ids stay bare."""
        ids = {"tick": "ti,ck", "poc": 'p"oc', "chhh": "ch\r\nhh"}
        manifest = json.loads((fixture_dir / "patterns.json").read_text())
        for entry in manifest:
            entry["id"] = ids[entry["id"]]
        manifest.append({"id": "plain", "kind": "impulse", "path": "patterns/tick.wav"})
        (fixture_dir / "patterns.json").write_text(json.dumps(manifest))
        out = tmp_path / "rep"
        assert main(["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                     "--track-id", "take", "--out-dir", str(out), "--report"]) == 0
        text = (out / "take.correlation.csv").read_bytes().decode("utf-8")
        assert text.split("\n", 1)[0] == 't,"ncc_ch\r'
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "ncc_ch\r\nhh", "avg_ch\r\nhh", 'ncc_p"oc', "ncc_plain", "ncc_ti,ck"]
        assert len(rows) - 1 == len(load_wav(fixture_dir / "sequence.wav"))
        assert {len(row) for row in rows} == {6}


class TestManifest:
    """A manifest with a repeated pattern id, or with no pattern, exits 2 at its field before any take is read."""

    CASES = {
        "repeated id": (lambda entries: entries + [dict(entries[1], path=entries[0]["path"])], "[3].id: pattern id"),
        "no pattern": (lambda entries: [], "manifest is empty"),
    }

    def edited(self, fixture_dir, case):
        manifest = fixture_dir / "patterns.json"
        manifest.write_text(json.dumps(self.CASES[case][0](json.loads(manifest.read_text()))))
        return manifest

    @staticmethod
    def spy(monkeypatch, module, name):
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_detect(self, fixture_dir, tmp_path, monkeypatch, capsys, case):
        manifest = self.edited(fixture_dir, case)
        read = self.spy(monkeypatch, cli, "load_wav")
        capsys.readouterr()
        assert main(["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(manifest),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"soundcue: error: {self.CASES[case][1]}")
        assert all(Path(args[0]).name != "sequence.wav" for args in read)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run(self, fixture_dir, tmp_path, monkeypatch, capsys, case):
        manifest = self.edited(fixture_dir, case)
        write_scene(tmp_path / "scene.json")
        parsed, detected = self.spy(monkeypatch, scene, "parse_scene"), self.spy(monkeypatch, cli, "detect")
        capsys.readouterr()
        assert main(["run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--patterns", str(manifest),
                     "--scene", str(tmp_path / "scene.json"), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"soundcue: error: {self.CASES[case][1]}")
        assert parsed == [] and detected == []
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["plain", "signed-zero-py"])
    @pytest.mark.parametrize("frames", [1, 4095, 4096, 4097, 2 * 4096 + 3])
    def test_streamed_files_match_the_kept_output(self, tmp_path, monkeypatch, frames, signed_zero):
        """Each curve CSV written block by block is `curves_to_csv` of the curves the library keeps."""
        if signed_zero:
            negative_zero_py(monkeypatch)
        events = [_impulse("tick", t) for t in (0.5, 1.3, 2.0, 30.0, 45.5, 81.0)]
        events += [_continuous("chhh", 10.0, 20.0), _continuous("hooo", 40.0, 50.0)]
        objects = [
            {"object_id": "ball", "track_id": "take",
             "bindings": {"tick": {"kind": "bounce_soft", "drift_speed": -0.5}}},
            {"object_id": "slider", "track_id": "take", "bindings": {"chhh": {"kind": "slide", "speed": -1.0}}},
            {"object_id": "lift", "track_id": "take", "bindings": {"hooo": {"kind": "move_up"}}},
        ]
        argv = _synth_argv(
            tmp_path,
            scene_doc={"objects": objects, "duration_override_s": (frames - 1) / 100},
            duration_s=90.0,
            tracks=[{"track_id": "take", "events": events}],
        )
        assert main(argv) == 0
        output = scene.build_animation(read_timeline(argv[1]), scene.parse_scene((tmp_path / "scene.json").read_text()))
        out = tmp_path / "out"
        for i, name in enumerate(("ball", "slider", "lift")):
            curves = output.curves[i]
            assert curves.times.size == frames
            assert (out / f"{name}_curves.csv").read_bytes() == curves_to_csv(curves).encode()
        if signed_zero:
            assert (out / "ball_curves.csv").read_text().splitlines()[1].split(",")[2] == "-0.0"
        assert (out / "animation.json").read_text() == scene.animation_document(output)

    def test_memory_does_not_grow_with_the_object_count(self, tmp_path):
        """synth samples and writes one object at a time: six objects peak within one
        object's curves of the peak of one."""
        frames = 10_001
        peaks = {}
        for count in (1, 6):
            objects = [
                {"object_id": f"ball{i}", "track_id": "take", "bindings": {"tick": {"kind": "bounce_soft"}}}
                for i in range(count)
            ]
            (tmp_path / str(count)).mkdir()
            argv = _synth_argv(
                tmp_path / str(count),
                scene_doc={"objects": objects},
                duration_s=100.0,
                tracks=[{"track_id": "take", "events": [_impulse("tick", t + 0.5) for t in range(99)]}],
            )
            _time_blocks.cache_clear()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "6" / "out" / "ball5_curves.csv").read_text().splitlines()) == 1 + frames
        curve_bytes = frames * 7 * 8
        assert peaks[6] < peaks[1] + curve_bytes


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


class TestPatternLongerThanTake:
    """A pattern that does not fit a take exits 2 naming the pattern and the track, among many of each."""

    @staticmethod
    def short_take(tmp_path):
        path = tmp_path / "a.wav"  # 0.2 s: tick (0.12 s) and poc (0.10 s) fit it, chhh (0.25 s) does not
        save_wav(AudioClip(np.random.default_rng(5).uniform(-0.1, 0.1, int(0.2 * SR)), SR), path)
        return path

    def test_detect(self, fixture_dir, tmp_path, capsys):
        code = main([
            "detect", str(self.short_take(tmp_path)), "--patterns", str(fixture_dir / "patterns.json"),
            "--track-id", "snippet", "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("soundcue: error: ") and "'chhh'" in err and "'snippet'" in err, err

    @staticmethod
    def run_two_tracks(fixture_dir, tmp_path, second, monkeypatch):
        """`run` on the fixture's take and then `second`: its exit code and the engine calls it made."""
        engine_calls, real_dot = [], correlate._sliding_dot

        def dot_spy(*args, **kwargs):
            engine_calls.append(args[0].size)
            return real_dot(*args, **kwargs)

        monkeypatch.setattr(correlate, "_sliding_dot", dot_spy)
        scene_path = tmp_path / "scene.json"
        write_scene(scene_path)
        code = main([
            "run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--track", f"snippet={second}",
            "--patterns", str(fixture_dir / "patterns.json"), "--scene", str(scene_path), "--out-dir", str(tmp_path / "o"),
        ])
        return code, engine_calls

    def test_run_with_a_long_and_a_short_track(self, fixture_dir, tmp_path, capsys, monkeypatch):
        code, engine_calls = self.run_two_tracks(fixture_dir, tmp_path, self.short_take(tmp_path), monkeypatch)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("soundcue: error: ") and "'chhh'" in err and "'snippet'" in err and "'take'" not in err, err
        assert engine_calls == []  # every track's header is checked before the first track is correlated
        assert not (tmp_path / "o").exists()

    def test_run_with_a_later_track_that_is_not_a_wav(self, fixture_dir, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "notes.wav"
        bad.write_bytes(b"not a wave file")
        code, engine_calls = self.run_two_tracks(fixture_dir, tmp_path, bad, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2 and "notes.wav: not a RIFF/WAVE file" in err, err
        assert engine_calls == []


def _impulse(pattern, t):
    return {"kind": "impulse", "pattern": pattern, "t": t, "strength": 1.0, "peak_correlation": 0.9}


def _continuous(pattern, t_begin, t_end):
    return {"kind": "continuous", "pattern": pattern, "t_begin": t_begin, "t_end": t_end,
            "strength": 1.0, "peak_correlation": 0.7}


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
    "plan pattern id outside the out dir": (
        lambda p: _gen_argv(p, patterns=[{"id": "../../x", "kind": "impulse", "duration_s": 0.1, "seed": 1}], planted=[]),
        "patterns[0].id",
    ),
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

    def test_too_many_frames_fail_before_any_output(self, tmp_path, capsys):
        argv = _synth_argv(tmp_path) + ["--fps", "1e300"]
        assert main(argv) == 2
        assert "more frames than an array can hold" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_curves.csv"))
        assert not (tmp_path / "out" / "animation.json").exists()

    def test_value_error_inside_the_pipeline_is_not_bad_input(self, tmp_path, monkeypatch):
        argv = _synth_argv(tmp_path)
        assert main(argv) == 0

        def broken(timeline, cfg):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(scene, "build_animation", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(argv)


NO_FILE_NAMES = ["", ".", "..", "../escaped", "sub/dir", "a\\b", "a\x00b"]


class TestOutputNames:
    """Object and track ids become file names, so a name that would leave
    the output directory or name no file is rejected before anything is written."""

    @pytest.mark.parametrize("object_id", NO_FILE_NAMES)
    def test_synth_rejects_object_id(self, tmp_path, capsys, object_id):
        objects = [{"object_id": object_id, "track_id": "take", "bindings": {"tick": {"kind": "bounce_hard"}}}]
        argv = _synth_argv(tmp_path, scene_doc={"objects": objects})
        capsys.readouterr()
        assert main(argv) == 2
        assert "objects[0].object_id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*_curves.csv"))

    def test_run_rejects_object_id_before_detection(self, fixture_dir, tmp_path, monkeypatch, capsys):
        detected = []
        monkeypatch.setattr(cli, "detect", lambda *args, **kwargs: detected.append(args))
        doc = write_scene(tmp_path / "scene.json")
        doc["objects"][0]["object_id"] = "../escaped"
        write_scene(tmp_path / "scene.json", doc)
        out = tmp_path / "run" / "out"
        code = main([
            "run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--patterns", str(fixture_dir / "patterns.json"),
            "--scene", str(tmp_path / "scene.json"), "--out-dir", str(out),
        ])
        assert code == 2
        assert "objects[0].object_id" in capsys.readouterr().err
        assert detected == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("track_id", NO_FILE_NAMES)
    def test_detect_rejects_track_id(self, tmp_path, monkeypatch, capsys, track_id):
        detected = []
        monkeypatch.setattr(cli, "detect", lambda *args, **kwargs: detected.append(args))
        out = tmp_path / "det" / "out"
        argv = ["detect", str(tmp_path / "take.wav"), "--patterns", str(tmp_path / "patterns.json"),
                "--track-id", track_id, "--out-dir", str(out)]
        assert main(argv) == 64
        assert "--track-id" in capsys.readouterr().err
        assert detected == []
        assert not (tmp_path / "det").exists()

class TestAtomicOutputs:
    """`gen`, `run`, `synth` and `detect` rename their files into place only once all are complete: a failure leaves none behind."""

    @staticmethod
    def fail_second_block(monkeypatch):
        """Make the second block of curve rows a CSV writer formats raise, as a full disk would."""
        blocks, real_block = [], cli.docio.csv_block

        def failing_block(columns):
            blocks.append(len(columns[0]))
            if len(blocks) == 2:
                raise OSError("No space left on device")
            return real_block(columns)

        monkeypatch.setattr(cli.docio, "CSV_BLOCK_ROWS", 16)
        monkeypatch.setattr(cli.docio, "csv_block", failing_block)
        # A time grid formatted in 16-row blocks must not stay in the memo after the test.
        monkeypatch.setattr(animate, "_time_blocks", functools.lru_cache(maxsize=1)(_time_blocks.__wrapped__))
        return blocks

    def test_synth_failure_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        argv = _synth_argv(tmp_path)
        blocks = self.fail_second_block(monkeypatch)
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(blocks) == 2
        assert not (tmp_path / "out").exists()  # the directory synth made is gone too
        assert not list(tmp_path.rglob("*_curves.csv")) and not list(tmp_path.rglob("*.tmp"))

    def test_detect_report_failure_leaves_nothing(self, fixture_dir, tmp_path, monkeypatch, capsys):
        """The report is written during detection: a block that fails there leaves no report and no timeline."""
        blocks = self.fail_second_block(monkeypatch)
        out = tmp_path / "new" / "out"
        assert main(["detect", str(fixture_dir / "sequence.wav"), "--patterns", str(fixture_dir / "patterns.json"),
                     "--track-id", "take", "--out-dir", str(out), "--report"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(blocks) == 2
        assert not (tmp_path / "new").exists()

    def test_gen_failure_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        saved, real_save = [], cli.save_wav

        def failing_save(clip, path, **kwargs):
            saved.append(Path(path))
            if len(saved) == 2:
                raise OSError("No space left on device")
            return real_save(clip, path, **kwargs)

        monkeypatch.setattr(cli, "save_wav", failing_save)
        argv = _gen_argv(tmp_path)
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert saved[1].parent.name == "patterns"  # the sequence was written, then a pattern WAV failed
        assert sorted(path.name for path in tmp_path.iterdir()) == ["plan.json"]  # out/ and patterns/ are gone

    def test_run_failure_keeps_an_existing_directory_without_new_files(self, fixture_dir, tmp_path, monkeypatch):
        write_scene(tmp_path / "scene.json")
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        argv = ["run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--patterns", str(fixture_dir / "patterns.json"),
                "--scene", str(tmp_path / "scene.json"), "--out-dir", str(out)]
        self.fail_second_block(monkeypatch)
        assert main(argv) == 2
        assert sorted(path.name for path in out.iterdir()) == ["notes.txt"]  # no timeline, no CSV, no temporary file
        monkeypatch.undo()
        assert main(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == ["animation.json", "ball_curves.csv", "notes.txt", "timeline.json"]

    def test_interrupt_removes_the_directory_run_made(self, fixture_dir, tmp_path, monkeypatch):
        write_scene(tmp_path / "scene.json")

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.scene, "animation_document", interrupt)
        out = tmp_path / "new" / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--patterns", str(fixture_dir / "patterns.json"),
                  "--scene", str(tmp_path / "scene.json"), "--out-dir", str(out)])
        assert not (tmp_path / "new").exists()


def _force_cpus(monkeypatch, cpus):
    """Make the writer see `cpus` usable CPUs; the returned list gets the process count of each split."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    counts, real_split = [], parallel.split

    def split(work, count):
        counts.append(count)
        return real_split(work, count)

    monkeypatch.setattr(parallel, "split", split)
    return counts


def _small_blocks(monkeypatch):
    """Curve CSVs in blocks of 16 rows, so a short synth splits across processes."""
    monkeypatch.setattr(cli.docio, "CSV_BLOCK_ROWS", 16)
    # A time grid formatted in 16-row blocks must not stay in the memo after the test.
    monkeypatch.setattr(animate, "_time_blocks", functools.lru_cache(maxsize=1)(_time_blocks.__wrapped__))


def _on_block(monkeypatch, parent=None, child=None):
    """Call `parent()` or `child()` before each curve block this process or a forked one formats."""
    pid, real_block = os.getpid(), cli.docio.csv_block

    def block(columns):
        act = parent if os.getpid() == pid else child
        if act is not None:
            act()
        return real_block(columns)

    monkeypatch.setattr(cli.docio, "csv_block", block)


def _raise(exc):
    def act():
        raise exc

    return act


@pytest.mark.skipif(not parallel.FORKS, reason="the writer forks only on Linux")
class TestForkedWriters:
    """`synth` and `run` write each curve CSV in contiguous ranges of whole blocks, one
    forked process per usable CPU with at least two blocks each: the files are those of
    one process, byte for byte, and every process is reaped on every path."""

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["plain", "signed-zero-py"])
    # In 4096-row blocks, 3 blocks are written by one process, 4 by two and 7 by three.
    @pytest.mark.parametrize(
        "frames, processes",
        [(8191, (1, 1, 1)), (8192, (1, 1, 1)), (12288, (1, 1, 1)), (12289, (1, 2, 2)), (16385, (1, 2, 2)),
         (3 * 8192 + 5, (1, 2, 3))],
    )
    def test_files_equal_those_of_one_process(self, tmp_path, monkeypatch, frames, processes, signed_zero):
        if signed_zero:
            negative_zero_py(monkeypatch)
        # Windows across the range edges at 81.92 s and 163.84 s (frames 8192 and 16384 at 100 fps).
        events = [_impulse("tick", t) for t in (0.5, 30.0, 81.9, 81.95, 120.0, 163.8, 200.0, 245.0)]
        events += [_continuous("chhh", 80.0, 83.0), _continuous("chhh", 163.0, 165.0)]
        events += [_continuous("hooo", 79.0, 82.5), _continuous("hooo", 160.0, 170.0)]
        objects = [
            {"object_id": "ball", "track_id": "take",
             "bindings": {"tick": {"kind": "bounce_soft", "drift_speed": -0.5}}},
            {"object_id": "slider", "track_id": "take", "bindings": {"chhh": {"kind": "slide", "speed": -1.0}}},
            {"object_id": "lift", "track_id": "take", "bindings": {"hooo": {"kind": "move_up", "speed": 0.1}}},
        ]
        argv = _synth_argv(
            tmp_path,
            scene_doc={"objects": objects, "duration_override_s": (frames - 1) / 100},
            duration_s=250.0,
            tracks=[{"track_id": "take", "events": events}],
        )[:-1]
        files = {}
        for cpus in (1, 2, 3):
            with monkeypatch.context() as mp:
                counts = _force_cpus(mp, cpus)
                out = tmp_path / f"out{cpus}"
                assert main(argv + [str(out)]) == 0
            assert counts == [processes[cpus - 1]]
            assert sorted(path.name for path in out.iterdir()) == sorted(
                ["animation.json", "ball_curves.csv", "slider_curves.csv", "lift_curves.csv"]
            )  # no part file or temporary left
            files[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert files[2] == files[1] and files[3] == files[1]
        assert len(files[1]["ball_curves.csv"].splitlines()) == 1 + frames
        if signed_zero:
            assert files[3]["ball_curves.csv"].splitlines()[-1].split(b",")[2] == b"-0.0"

    def test_run_splits_like_synth(self, fixture_dir, tmp_path, monkeypatch):
        write_scene(tmp_path / "scene.json")
        _small_blocks(monkeypatch)
        argv = ["run", "--track", f"take={fixture_dir / 'sequence.wav'}", "--patterns", str(fixture_dir / "patterns.json"),
                "--scene", str(tmp_path / "scene.json"), "--out-dir"]
        outputs = {}
        for cpus in (1, 3):
            with monkeypatch.context() as mp:
                counts = _force_cpus(mp, cpus)
                assert main(argv + [str(tmp_path / str(cpus))]) == 0
            assert counts == [cpus]  # 601 frames at 100 fps: 38 blocks of 16 rows
            outputs[cpus] = {path.name: path.read_bytes() for path in (tmp_path / str(cpus)).iterdir()}
        assert outputs[3] == outputs[1]

    def test_os_error_in_a_forked_range_is_bad_input(self, tmp_path, monkeypatch, capsys):
        argv = _synth_argv(tmp_path)
        _small_blocks(monkeypatch)
        counts = _force_cpus(monkeypatch, 2)
        _on_block(monkeypatch, child=_raise(OSError("No space left on device")))
        assert main(argv) == 2
        assert counts == [2]
        assert capsys.readouterr().err == "soundcue: error: No space left on device\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scene.json", "take.timeline.json"]

    def test_value_error_in_a_forked_range_is_a_bug(self, tmp_path, monkeypatch):
        argv = _synth_argv(tmp_path)
        _small_blocks(monkeypatch)
        _force_cpus(monkeypatch, 2)
        _on_block(monkeypatch, child=_raise(ValueError("a bug, not bad input")))
        with pytest.raises(ValueError, match="a bug") as caught:
            main(argv)
        assert isinstance(caught.value.__cause__, parallel.RemoteTraceback)
        assert "ValueError: a bug, not bad input" in str(caught.value.__cause__)
        assert not (tmp_path / "out").exists()

    def test_forked_process_killed_is_reported(self, tmp_path, monkeypatch, capsys):
        argv = _synth_argv(tmp_path)
        _small_blocks(monkeypatch)
        _force_cpus(monkeypatch, 2)
        _on_block(monkeypatch, child=lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert main(argv) == 2
        assert "was killed by signal 9" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("failure", [OSError("No space left on device"), KeyboardInterrupt()], ids=repr)
    def test_failure_here_stops_the_forked_ranges(self, tmp_path, monkeypatch, failure):
        """This process's failure kills the forked writer, which would otherwise stall for 40 s, and reaps it."""
        argv = _synth_argv(tmp_path)
        _small_blocks(monkeypatch)
        _force_cpus(monkeypatch, 2)

        def stall():
            time.sleep(40)
            os._exit(0)

        _on_block(monkeypatch, parent=_raise(failure), child=stall)
        started = time.monotonic()
        if isinstance(failure, OSError):
            assert main(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert time.monotonic() - started < 30
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scene.json", "take.timeline.json"]


class TestTracerTargets:
    """Every name the benchmark's tracer patches exists where it looks it up, so deleting one fails here."""

    def test_every_target_resolves(self):
        source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8")
        targets = next(
            ast.literal_eval(node.value)
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and any(getattr(name, "id", None) == "TARGETS" for name in node.targets)
        )
        assert targets
        for module, attribute, _ in targets:
            assert hasattr(importlib.import_module(module), attribute), (module, attribute)


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
