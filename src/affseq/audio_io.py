"""WAV decoding into normalized mono sample buffers; the package writes no WAV.

Reads RIFF/WAVE files holding PCM-16/24/32 or IEEE float-32 samples with one
or two channels. Integer samples are normalized by 2**(bits-1); stereo is
downmixed by the per-sample mean of the two channels. No resampling happens
here: the sample rate is carried through as data. Non-essential RIFF chunks
(LIST, INFO, fact, ...) are skipped. The RIFF size and the fmt chunk's
``byte_rate`` and ``block_align`` are read but not checked: sample layout
comes from the format code, channel count and bit depth alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FileFormatError,
    TruncatedFileError,
    UnsupportedEncodingError,
)

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with every sample in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise DomainError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def duration_samples(self) -> int:
        return len(self.samples)


def read_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE file into an AudioClip.

    Raises FileFormatError on malformed structure, UnsupportedEncodingError on
    codecs other than PCM-16/24/32 and float-32 (or more than 2 channels), and
    TruncatedFileError when the data chunk holds fewer bytes than declared.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < 12:
        raise FileFormatError(f"{path}: too short to hold a RIFF header ({len(blob)} bytes)")
    if blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FileFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id = blob[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, offset + 4)
        body_start = offset + 8

        if chunk_id == b"fmt ":
            fmt = _parse_fmt(blob, body_start, chunk_size, path)
        elif chunk_id == b"data":
            if fmt is None:
                raise FileFormatError(f"{path}: data chunk appears before fmt chunk")
            found = min(chunk_size, len(blob) - body_start)
            if found < chunk_size:
                raise TruncatedFileError(
                    f"{path}: data chunk truncated: expected {chunk_size} bytes, found {found}"
                )
            payload = blob[body_start : body_start + chunk_size]
            return _decode(payload, fmt, path)

        # chunks are word-aligned; odd sizes carry a pad byte
        offset = body_start + chunk_size + (chunk_size & 1)

    raise FileFormatError(f"{path}: no data chunk found")


@dataclass(frozen=True)
class _Fmt:
    code: int
    channels: int
    sample_rate: int
    bits: int


def _parse_fmt(blob: bytes, start: int, size: int, path) -> _Fmt:
    if size < 16 or start + 16 > len(blob):
        raise FileFormatError(f"{path}: fmt chunk too small ({size} bytes)")
    code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", blob, start
    )
    if code not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedEncodingError(f"{path}: unsupported format code {code} (want PCM or IEEE float)")
    if channels not in (1, 2):
        raise UnsupportedEncodingError(f"{path}: {channels} channels unsupported (want 1 or 2)")
    if code == _FORMAT_PCM and bits not in (16, 24, 32):
        raise UnsupportedEncodingError(f"{path}: PCM-{bits} unsupported (want 16, 24, or 32)")
    if code == _FORMAT_IEEE_FLOAT and bits != 32:
        raise UnsupportedEncodingError(f"{path}: float-{bits} unsupported (want 32)")
    if rate <= 0:
        raise FileFormatError(f"{path}: non-positive sample rate {rate}")
    return _Fmt(code=code, channels=channels, sample_rate=rate, bits=bits)


def _decode(payload: bytes, fmt: _Fmt, path) -> AudioClip:
    bytes_per_sample = fmt.bits // 8
    frame_size = bytes_per_sample * fmt.channels
    if frame_size and len(payload) % frame_size:
        raise FileFormatError(
            f"{path}: data size {len(payload)} is not a multiple of the {frame_size}-byte frame"
        )

    if fmt.code == _FORMAT_IEEE_FLOAT:
        flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        flat = np.clip(flat, -1.0, 1.0)
    elif fmt.bits == 16:
        flat = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 2**15
    elif fmt.bits == 32:
        flat = np.frombuffer(payload, dtype="<i4").astype(np.float64) / 2**31
    else:  # 24-bit: assemble little-endian triplets, then sign-extend
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        vals = (vals ^ 0x800000) - 0x800000
        flat = vals.astype(np.float64) / 2**23

    if fmt.channels == 2:
        flat = flat.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples=flat, sample_rate=fmt.sample_rate)
