import struct
import uuid

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soundcue import (
    AudioClip,
    EmptyAudioError,
    SoundCueError,
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


PCM_GUID = "00000001-0000-0010-8000-00aa00389b71"
FLOAT_GUID = "00000003-0000-0010-8000-00aa00389b71"
ALAW_GUID = "00000006-0000-0010-8000-00aa00389b71"
AMBISONIC_PCM_GUID = "00000001-0721-11d3-8644-c8c1ca000000"  # PCM's tag in its first field, yet not PCM


def _extensible_fmt(bits, channels, guid, rate=SR):
    """A WAVE_FORMAT_EXTENSIBLE fmt chunk body: the 16 base bytes, cbSize 22, valid bits, channel mask, SubFormat."""
    block = channels * bits // 8
    base = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    return base + struct.pack("<HHI", 22, bits, 0x3 if channels == 2 else 0x4) + uuid.UUID(guid).bytes_le


class TestLoadWavVariants:
    @pytest.mark.parametrize(
        "bits, guid, tag, payload",
        [
            (16, PCM_GUID, 1, struct.pack("<4h", 16384, -16384, 0, 32767)),
            (24, PCM_GUID, 1, bytes([0x00, 0x00, 0x40, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00])),
            (32, FLOAT_GUID, 3, np.array([0.25, -0.5, 1.75, 0.0], dtype="<f4").tobytes()),
        ],
        ids=["pcm16", "pcm24", "float32"],
    )
    @pytest.mark.parametrize("channels", [1, 2])
    def test_extensible_decodes_like_its_subformat(self, tmp_path, bits, guid, tag, payload, channels):
        plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
        _write_raw_wav(plain, payload, tag=tag, bits=bits, channels=channels)
        _write_raw_wav(extensible, payload, tag=0xFFFE, bits=bits, channels=channels,
                       fmt=_extensible_fmt(bits, channels, guid))
        expected, got = load_wav(plain), load_wav(extensible)
        assert got.sample_rate_hz == expected.sample_rate_hz
        assert np.array_equal(got.samples, expected.samples)

    @pytest.mark.parametrize("bits, guid", [(8, ALAW_GUID), (16, AMBISONIC_PCM_GUID)])
    def test_extensible_other_subformat_named(self, tmp_path, bits, guid):
        path = tmp_path / "other.wav"
        _write_raw_wav(path, b"\x00" * 8, tag=0xFFFE, bits=bits, channels=1, fmt=_extensible_fmt(bits, 1, guid))
        with pytest.raises(UnsupportedWavError, match=guid):
            load_wav(path)

    @pytest.mark.parametrize("keep", [16, 18, 24, 39])
    def test_extensible_fmt_too_short(self, tmp_path, keep):
        path = tmp_path / "short.wav"
        fmt = _extensible_fmt(16, 1, PCM_GUID)[:keep]
        _write_raw_wav(path, b"\x00" * 8, tag=0xFFFE, bits=16, channels=1, fmt=fmt)
        with pytest.raises(WavFormatError, match="short.wav") as info:
            load_wav(path)
        assert not isinstance(info.value, UnsupportedWavError)  # a malformed file, not an unknown codec

    @pytest.mark.parametrize("declared", [9, 10, 100])
    def test_truncated_data_chunk_named_with_both_sizes(self, tmp_path, declared):
        path = tmp_path / "cut.wav"
        _write_raw_wav(path, struct.pack("<4h", 1, 2, 3, 4), tag=1, bits=16, channels=1, declared_size=declared)
        with pytest.raises(WavFormatError, match=rf"cut\.wav.*\b{declared}\b.*\b8\b"):
            load_wav(path)

    def test_truncated_trailing_chunk_rejected(self, tmp_path):
        path = tmp_path / "tail.wav"
        _write_raw_wav(path, struct.pack("<4h", 1, 2, 3, 4), tag=1, bits=16, channels=1)
        path.write_bytes(path.read_bytes() + b"LIST" + struct.pack("<I", 64) + b"INFO")
        with pytest.raises(WavFormatError, match=r"tail\.wav.*64.*\b4\b"):
            load_wav(path)

    def test_missing_final_pad_byte_accepted(self, tmp_path):
        path = tmp_path / "odd.wav"
        _write_raw_wav(path, bytes([0x00, 0x00, 0x40]), tag=1, bits=24, channels=1)
        path.write_bytes(path.read_bytes()[:-1])  # writers often omit the word-alignment byte at the end
        assert load_wav(path).samples.tolist() == [0.5]


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


def _write_raw_wav(path, payload, tag, bits, channels, rate=SR, fmt=None, declared_size=None):
    """A mono or stereo WAV; `fmt` replaces the fmt chunk's body, `declared_size` the data chunk's size field."""
    block = channels * bits // 8
    if fmt is None:
        fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"\x00" * (len(fmt) & 1)
    size = len(payload) if declared_size is None else declared_size
    body += b"data" + struct.pack("<I", size) + payload
    if len(payload) & 1:
        body += b"\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


# The largest error a save->load round trip may add, per sample format:
# integers round to the nearest step (and are scaled by 2^(bits-1) on
# load but by 2^(bits-1) - 1 on save); float32 rounds to 24 significant
# bits, and values below its smallest subnormal flush to zero.
QUANTIZATION = {
    "pcm16": lambda x: np.full(x.shape, 1.5 / 32768),
    "pcm24": lambda x: np.full(x.shape, 1.5 / (1 << 23)),
    "float32": lambda x: np.abs(x) * 2.0**-24 + 2.0**-150,
}
unit_samples = arrays(
    np.float64, st.integers(1, 300), elements=st.floats(-1.0, 1.0, allow_subnormal=True)
)
wav_rates = st.sampled_from([1, 8000, 22050, 44100, 48000, 192000]) | st.integers(1, 400_000)


class TestWavProperties:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=unit_samples, rate=wav_rates, sample_format=st.sampled_from(sorted(QUANTIZATION)))
    def test_save_load_round_trip_within_quantization(self, tmp_path, samples, rate, sample_format):
        path = tmp_path / f"rt.{sample_format}.wav"
        save_wav(AudioClip(samples, rate), path, sample_format=sample_format)
        loaded = load_wav(path)
        assert loaded.sample_rate_hz == rate
        assert len(loaded) == samples.size
        assert np.all(np.abs(loaded.samples - samples) <= QUANTIZATION[sample_format](samples))

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        bits_tag=st.sampled_from([(16, 1), (24, 1), (32, 3), (8, 1), (32, 1), (16, 3)]),
        channels=st.integers(1, 3),
        extensible=st.booleans(),
        frames=st.integers(0, 12),
    )
    def test_mutated_files_only_raise_soundcue_errors(self, tmp_path, data, bits_tag, channels, extensible, frames):
        bits, tag = bits_tag
        guid = FLOAT_GUID if tag == 3 else PCM_GUID
        fmt = _extensible_fmt(bits, channels, guid) if extensible else None
        path = tmp_path / "fuzz.wav"
        payload = data.draw(st.binary(min_size=frames, max_size=frames * channels * 4), label="payload")
        _write_raw_wav(path, payload, tag=0xFFFE if extensible else tag, bits=bits, channels=channels, fmt=fmt)
        raw = bytearray(path.read_bytes())
        # Overwrite header fields and chunk sizes with arbitrary 16- and 32-bit values,
        # flip single bytes anywhere, then maybe cut the file or append a chunk.
        for offset, value, width in data.draw(
            st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4])),
                     max_size=4),
            label="edits",
        ):
            raw[offset : offset + width] = (value % (1 << 8 * width)).to_bytes(width, "little")
        raw = raw[: data.draw(st.integers(0, len(raw)), label="length")]
        raw += data.draw(st.sampled_from([b"", b"LIST" + struct.pack("<I", 4) + b"INFO", b"data\x02\x00\x00\x00ab"]),
                         label="tail")
        path.write_bytes(bytes(raw))
        try:
            clip = load_wav(path)
        except SoundCueError:
            return
        assert len(clip) > 0 and clip.sample_rate_hz > 0
        assert np.all(np.abs(clip.samples) <= 1.0)
