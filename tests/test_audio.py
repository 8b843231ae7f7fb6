import struct

import numpy as np
import pytest

from soundcue import (
    AudioClip,
    EmptyAudioError,
    UnsupportedWavError,
    WavFormatError,
    load_wav,
    resample,
    save_wav,
)

SR = 44100


def sine(freq, duration_s, sr=SR, amplitude=1.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), sr)


class TestAudioClip:
    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, 1.5]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), -3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), SR)

    def test_duration(self):
        assert AudioClip(np.zeros(SR), SR).duration_s == 1.0

    def test_samples_are_immutable(self):
        clip = AudioClip(np.zeros(4), SR)
        with pytest.raises(ValueError):
            clip.samples[0] = 1.0


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        # 16-bit value 16384 decodes to amplitude 0.5
        payload = struct.pack("<4h", 16384, -16384, 0, 32767)
        path = tmp_path / "x.wav"
        _write_raw_wav(path, payload, tag=1, bits=16, channels=1)
        clip = load_wav(path)
        assert clip.samples[0] == 16384 / 32768
        assert clip.samples[1] == -0.5

    def test_stereo_average(self, tmp_path):
        frames = np.array([[0.2, 0.6], [-0.4, 0.4]], dtype="<f4")
        path = tmp_path / "x.wav"
        _write_raw_wav(path, frames.tobytes(), tag=3, bits=32, channels=2)
        clip = load_wav(path)
        assert clip.samples == pytest.approx([0.4, 0.0], abs=1e-7)

    def test_float_clamped(self, tmp_path):
        frames = np.array([1.75, -2.0], dtype="<f4")
        path = tmp_path / "x.wav"
        _write_raw_wav(path, frames.tobytes(), tag=3, bits=32, channels=1)
        clip = load_wav(path)
        assert clip.samples.tolist() == [1.0, -1.0]

    def test_sine_roundtrip_within_quantization(self, tmp_path):
        source = sine(440, 1.0)
        path = tmp_path / "sine.wav"
        save_wav(source, path)
        loaded = load_wav(path)
        assert loaded.sample_rate_hz == SR
        assert np.max(np.abs(loaded.samples - source.samples)) < 1e-4

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"definitely not audio")
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_wav(tmp_path / "absent.wav")

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "x.wav"
        _write_raw_wav(path, b"\x00\x00\x00\x00", tag=1, bits=8, channels=1)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_zero_length(self, tmp_path):
        path = tmp_path / "x.wav"
        _write_raw_wav(path, b"", tag=1, bits=16, channels=1)
        with pytest.raises(EmptyAudioError):
            load_wav(path)

    def test_nan_float_sample_names_file(self, tmp_path):
        frames = np.array([0.25, np.nan, -0.5], dtype="<f4")
        path = tmp_path / "nan.wav"
        _write_raw_wav(path, frames.tobytes(), tag=3, bits=32, channels=1)
        with pytest.raises(WavFormatError, match="nan.wav"):
            load_wav(path)


class TestSaveWav:
    def test_zeros_roundtrip(self, tmp_path):
        path = tmp_path / "z.wav"
        save_wav(AudioClip(np.zeros(100), SR), path)
        assert load_wav(path).samples.tolist() == [0.0] * 100

    @pytest.mark.parametrize("fmt,bound", [("pcm16", 1.5 / 32768), ("pcm24", 1.5 / (1 << 23)), ("float32", 1e-7)])
    def test_quantization_bound(self, tmp_path, fmt, bound):
        rng = np.random.default_rng(5)
        source = AudioClip(rng.uniform(-1, 1, 2000), SR)
        path = tmp_path / "q.wav"
        save_wav(source, path, sample_format=fmt)
        loaded = load_wav(path)
        assert np.max(np.abs(loaded.samples - source.samples)) <= bound

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_wav(AudioClip(np.zeros(4), SR), tmp_path / "no" / "such" / "dir.wav")


class TestResample:
    def test_identity(self):
        clip = sine(100, 0.5)
        assert resample(clip, SR) is clip

    def test_zeros_duration(self):
        clip = AudioClip(np.zeros(48000), 48000)
        out = resample(clip, 44100)
        assert out.sample_rate_hz == 44100
        assert not out.samples.any()
        assert abs(out.duration_s - 1.0) <= 1 / 44100

    def test_sine_against_analytic(self):
        clip = sine(100, 1.0, sr=48000)
        out = resample(clip, 44100)
        t = np.arange(len(out)) / 44100
        assert np.max(np.abs(out.samples - np.sin(2 * np.pi * 100 * t))) < 1e-3

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            resample(sine(100, 0.1), 0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = AudioClip(rng.uniform(-1, 1, 480), 48000)
        y = AudioClip(rng.uniform(-1, 1, 480), 48000)
        a, b = 0.3, 0.45
        combined = resample(AudioClip(a * x.samples + b * y.samples, 48000), 44100)
        split = a * resample(x, 44100).samples + b * resample(y, 44100).samples
        assert np.max(np.abs(combined.samples - split)) < 1e-9


def _write_raw_wav(path, payload, tag, bits, channels, rate=SR):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
