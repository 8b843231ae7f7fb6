"""Mono audio clips and WAV file I/O.

Every signal downstream of this module is an AudioClip: one channel of
float64 amplitudes in [-1, 1] at an integer sample rate. WAV reading
covers RIFF/WAVE containers with PCM 16-bit, PCM 24-bit or IEEE float-32
samples, mono or stereo, under their plain format tags or as
WAVE_FORMAT_EXTENSIBLE with a PCM or float SubFormat; stereo is averaged
down to mono on load. A chunk whose declared size runs past the end of
the file is rejected, not read short.

`load_wav` walks the chunk headers with `seek` and decodes the data
chunk block by block, `_BLOCK_FRAMES` frames at a time, into one
preallocated float64 array that becomes the clip's samples without a
copy. At its peak it holds that array and one block's bytes and
temporaries, not the file's bytes beside the decoded take.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyAudioError, UnsupportedWavError, WavFormatError

_PCM16_SCALE = 32768.0
_PCM24_SCALE = float(1 << 23)
_EXTENSIBLE = 0xFFFE
# A standard SubFormat GUID is xxxxxxxx-0000-0010-8000-00aa00389b71, with the
# plain format tag as xxxxxxxx; these are its last 12 bytes as stored.
_SUBFORMAT_TAIL = bytes.fromhex("00001000800000aa00389b71")
_BLOCK_FRAMES = 1 << 16  # frames load_wav decodes at a time
# The largest rate save_wav can store: the fmt chunk holds the byte rate,
# 4 bytes per frame for float32, in 32 bits.
MAX_WAV_RATE_HZ = (2**32 - 1) // 4


@dataclass(frozen=True)
class AudioClip:
    """An immutable mono signal with amplitudes in [-1, 1].

    The samples are held read-only: a writable array is copied, and a
    read-only one, such as the array `load_wav` has just decoded, is kept.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size:
            lo, hi = float(arr.min()), float(arr.max())  # NaN propagates into both; no temporary array
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("samples must be finite")
            if max(hi, -lo) > 1.0 + 1e-9:
                raise ValueError("samples must lie in [-1, 1]")
        rate = self.sample_rate_hz
        if not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample_rate_hz must be a positive integer, got {rate!r}")
        if arr.flags.writeable:  # a read-only array is frozen already
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", int(rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _iter_chunks(f, size: int, path):
    """(id, body offset, body size) of each chunk after the RIFF header of the open file `f` of `size` bytes."""
    pos = 12
    while pos + 8 <= size:
        f.seek(pos)
        header = f.read(8)
        chunk_id = header[:4]
        (length,) = struct.unpack_from("<I", header, 4)
        available = size - pos - 8
        if length > available:
            name = chunk_id.decode("latin-1")
            raise WavFormatError(f"{path}: {name!r} chunk declares {length} bytes but only {available} remain")
        yield chunk_id, pos + 8, length
        pos += 8 + length + (length & 1)  # chunks are word-aligned


def _format_tag(fmt: bytes, path) -> int:
    """The fmt chunk's format tag; WAVE_FORMAT_EXTENSIBLE resolves to its PCM or float SubFormat."""
    (tag,) = struct.unpack_from("<H", fmt, 0)
    if tag != _EXTENSIBLE:
        return tag
    if len(fmt) < 40:
        raise WavFormatError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk is {len(fmt)} bytes, needs 40")
    data1, data2, data3 = struct.unpack_from("<IHH", fmt, 24)
    if data1 in (1, 3) and fmt[28:40] == _SUBFORMAT_TAIL:  # PCM, IEEE float
        return data1
    guid = f"{data1:08x}-{data2:04x}-{data3:04x}-{fmt[32:34].hex()}-{fmt[34:40].hex()}"
    raise UnsupportedWavError(f"{path}: WAVE_FORMAT_EXTENSIBLE SubFormat {guid} is not supported")


def _decode_pcm24(data: bytes) -> np.ndarray:
    n = len(data) // 3
    wide = np.zeros((n, 4), dtype=np.uint8)  # each sample in the top three bytes of a little-endian int32
    wide[:, 1:] = np.frombuffer(data, dtype=np.uint8)[: n * 3].reshape(n, 3)
    x = (wide.view("<i4")[:, 0] >> 8).astype(np.float64)  # the shift sign-extends
    x /= _PCM24_SCALE
    return x


def _read(f, size: int, path) -> bytes:
    data = f.read(size)
    if len(data) != size:  # the walk checked every size, so the file changed since
        raise WavFormatError(f"{path}: file ended while reading")
    return data


def load_wav(path) -> AudioClip:
    """Read a WAV file into a mono clip.

    Stereo frames are averaged; integer PCM is scaled by 1/2^(bits-1);
    float samples outside [-1, 1] are clamped (recordings commonly clip).
    """
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        f.seek(0)
        header = f.read(12)
        if len(header) < 12 or header[0:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = data = None
        for chunk_id, offset, length in _iter_chunks(f, size, path):
            if chunk_id == b"fmt " and fmt is None:
                f.seek(offset)
                fmt = _read(f, length, path)
            elif chunk_id == b"data" and data is None:
                data = offset, length
        if fmt is None or len(fmt) < 16:
            raise WavFormatError(f"{path}: missing or truncated fmt chunk")
        if data is None:
            raise WavFormatError(f"{path}: missing data chunk")

        _, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
        tag = _format_tag(fmt, path)
        if rate <= 0:
            raise WavFormatError(f"{path}: invalid sample rate {rate}")
        if channels not in (1, 2):
            raise UnsupportedWavError(f"{path}: {channels} channels (only mono or stereo is read)")

        def decode(raw: bytes, frame: int) -> np.ndarray:
            """The float64 samples of `raw`, which starts at frame `frame`."""
            if tag == 1 and bits == 16:
                return np.divide(np.frombuffer(raw, dtype="<i2"), _PCM16_SCALE)
            if tag == 1 and bits == 24:
                return _decode_pcm24(raw)
            x = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            nan = np.flatnonzero(np.isnan(x))
            if nan.size:
                raise WavFormatError(f"{path}: frame {frame + nan[0] // channels} holds a NaN sample")
            return np.clip(x, -1.0, 1.0, out=x)

        if (tag, bits) not in ((1, 16), (1, 24), (3, 32)):
            raise UnsupportedWavError(f"{path}: format tag {tag} with {bits}-bit samples is not supported")
        width = bits // 8
        offset, length = data
        samples = length // width
        frames = samples // channels
        out = np.empty(frames)
        f.seek(offset)
        for first in range(0, frames, _BLOCK_FRAMES):
            count = min(_BLOCK_FRAMES, frames - first)
            block = decode(_read(f, count * channels * width, path), first)
            if channels == 2:
                block.reshape(count, 2).mean(axis=1, out=out[first : first + count])
            else:
                out[first : first + count] = block
            del block  # before the next block is decoded
        decode(_read(f, (samples - frames * channels) * width, path), frames)  # a last partial frame: only checked
    if frames == 0:
        raise EmptyAudioError(f"{path}: zero-length audio")
    out.setflags(write=False)
    return AudioClip(out, int(rate))


def _encode_pcm24(x: np.ndarray) -> bytes:
    value = np.clip(np.round(x * (_PCM24_SCALE - 1)), -_PCM24_SCALE, _PCM24_SCALE - 1)
    value = value.astype(np.int32)
    out = np.empty((value.size, 3), dtype=np.uint8)
    out[:, 0] = value & 0xFF
    out[:, 1] = (value >> 8) & 0xFF
    out[:, 2] = (value >> 16) & 0xFF
    return out.tobytes()


def save_wav(clip: AudioClip, path, sample_format: str = "pcm16") -> None:
    """Write a mono WAV file; `sample_format` is pcm16, pcm24 or float32."""
    x = clip.samples
    if sample_format == "pcm16":
        tag, bits = 1, 16
        payload = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2").tobytes()
    elif sample_format == "pcm24":
        tag, bits = 1, 24
        payload = _encode_pcm24(x)
    elif sample_format == "float32":
        tag, bits = 3, 32
        payload = x.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown sample format {sample_format!r}")

    rate = clip.sample_rate_hz
    if rate > MAX_WAV_RATE_HZ:
        raise ValueError(f"a WAV header cannot hold {rate} Hz; the largest rate is {MAX_WAV_RATE_HZ} Hz")
    block_align = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * block_align, block_align, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Resample by linear interpolation onto the target rate's sample grid.

    Duration is preserved to within one output sample period. Linear
    interpolation is plenty for envelope-scale pattern matching; swap in a
    band-limited interpolator here if fidelity ever matters.
    """
    if not isinstance(target_rate_hz, (int, np.integer)) or target_rate_hz <= 0:
        raise ValueError(f"target_rate_hz must be a positive integer, got {target_rate_hz!r}")
    target_rate_hz = int(target_rate_hz)
    if target_rate_hz == clip.sample_rate_hz:
        return clip
    n_in = len(clip)
    if n_in == 0:
        return AudioClip(np.zeros(0), target_rate_hz)
    n_out = max(1, int(round(n_in * target_rate_hz / clip.sample_rate_hz)))
    positions = np.arange(n_out) * (clip.sample_rate_hz / target_rate_hz)
    out = np.interp(positions, np.arange(n_in), clip.samples)
    return AudioClip(out, target_rate_hz)
