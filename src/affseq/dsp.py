"""Frame-aligned audio feature extraction.

An audio clip is split into one overlapping segment per video frame, and each
segment is reduced to a 168-dim feature vector: the first 40 orthonormal
DCT-II coefficients of the time-averaged log-mel spectrum (MFCC) concatenated
with the 128-dim averaged log-mel spectrum itself. The STFT runs a radix-2
FFT with a periodic Hann window; the filterbank uses the Slaney mel scale
with triangle-area normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioClip
from .errors import ConfigError, DomainError, NumericFaultError


@dataclass(frozen=True)
class DspParams:
    """Spectral parameters, fixed for a whole track."""

    n_fft: int = 2048
    stft_hop: int = 512
    n_mels: int = 128
    n_mfcc: int = 40
    fmin: float = 0.0
    fmax: float | None = None  # None means Nyquist
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two ≥ 2, got {self.n_fft}")
        if self.stft_hop < 1:
            raise ConfigError(f"stft_hop must be ≥ 1, got {self.stft_hop}")
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be ≥ 1, got {self.n_mels}")
        if not 1 <= self.n_mfcc <= self.n_mels:
            raise ConfigError(f"n_mfcc must be between 1 and n_mels={self.n_mels}, got {self.n_mfcc}")
        if not (math.isfinite(self.log_floor) and self.log_floor > 0):
            raise ConfigError(f"log_floor must be finite and > 0, got {self.log_floor}")

    def feature_dim(self) -> int:
        return self.n_mfcc + self.n_mels


class DegenerateFilterWarning(RuntimeWarning):
    """A mel filter has no FFT bin inside its triangle."""


def plan_segments(clip_len: int, n_frames: int) -> tuple[int, tuple[int, ...]]:
    """Tile ``clip_len`` samples into ``n_frames`` segments with half overlap.

    Returns ``(segment_len, starts)``. Segment length is floor(2*T/(N+1)) so
    that N segments at hop L/2 cover the clip; the final segment is anchored
    to end exactly at the clip end.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be ≥ 1")
    if clip_len < n_frames:
        raise DomainError(
            f"clip of {clip_len} samples cannot supply {n_frames} segments of at least 1 sample"
        )
    if n_frames == 1:
        return clip_len, (0,)
    seg_len = (2 * clip_len) // (n_frames + 1)
    hop = seg_len // 2
    return seg_len, tuple(i * hop for i in range(n_frames - 1)) + (clip_len - seg_len,)


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _fft_last_axis(a: np.ndarray, inverse: bool) -> np.ndarray:
    """Radix-2 FFT over the last axis of a complex array (length power of two)."""
    n = a.shape[-1]
    out = np.ascontiguousarray(a[..., _bit_reverse_indices(n)], dtype=np.complex128)
    if n == 1:
        return out
    flat = out.reshape(-1, n)
    sign = 1.0 if inverse else -1.0
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / size)
        blocks = flat.reshape(-1, size)
        t = blocks[:, half:] * twiddle
        blocks[:, half:] = blocks[:, :half] - t
        blocks[:, :half] += t
        size *= 2
    if inverse:
        flat /= n
    return out


def fft(signal, inverse: bool = False) -> np.ndarray:
    """Radix-2 DFT: X[k] = sum_n x[n] e^(-2*pi*i*k*n/N); inverse applies 1/N.

    The input length must be a power of two (callers zero-pad).
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1:
        raise DomainError(f"fft expects a 1-D signal, got shape {x.shape}")
    n = x.shape[0]
    if n == 0 or n & (n - 1):
        raise DomainError(f"fft length must be a power of two, got {n}")
    return _fft_last_axis(x, inverse)


# Slaney mel scale: linear below 1 kHz, logarithmic above.
_F_SP = 200.0 / 3.0
_MIN_LOG_HZ = 1000.0
_MIN_LOG_MEL = _MIN_LOG_HZ / _F_SP
_LOG_STEP = math.log(6.4) / 27.0


def hz_to_mel(freq):
    f = np.asarray(freq, dtype=np.float64)
    linear = f / _F_SP
    with np.errstate(divide="ignore", invalid="ignore"):
        logpart = _MIN_LOG_MEL + np.log(f / _MIN_LOG_HZ) / _LOG_STEP
    return np.where(f < _MIN_LOG_HZ, linear, logpart)


def mel_to_hz(mel):
    m = np.asarray(mel, dtype=np.float64)
    linear = m * _F_SP
    logpart = _MIN_LOG_HZ * np.exp(_LOG_STEP * (m - _MIN_LOG_MEL))
    return np.where(m < _MIN_LOG_MEL, linear, logpart)


def mel_filterbank(
    sample_rate: int, n_fft: int, n_mels: int, fmin: float = 0.0, fmax: float | None = None
) -> np.ndarray:
    """Read-only [n_mels x (n_fft//2 + 1)] mel filter weights.

    Row ``m`` is a triangle; the centers are equally spaced on the mel axis.
    Rows carry Slaney area normalization 2/(f_upper - f_lower). A filter whose
    triangle captures no FFT bin comes out as an all-zero row and triggers a
    DegenerateFilterWarning.
    """
    nyquist = sample_rate / 2.0
    if fmax is None:
        fmax = nyquist
    if n_mels < 1:
        raise DomainError(f"n_mels must be ≥ 1, got {n_mels}")
    if not 0.0 <= fmin < fmax:
        raise DomainError(f"need 0 <= fmin < fmax, got fmin={fmin}, fmax={fmax}")
    if fmax > nyquist:
        raise DomainError(f"fmax={fmax} exceeds Nyquist {nyquist}")

    fft_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    lower = hz_pts[:-2][:, None]
    center = hz_pts[1:-1][:, None]
    upper = hz_pts[2:][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        up_ramp = (fft_freqs[None, :] - lower) / (center - lower)
        down_ramp = (upper - fft_freqs[None, :]) / (upper - center)
    # collapsed edges produce nan/inf ramps; those filters have no support
    up_ramp = np.nan_to_num(up_ramp, nan=-1.0, posinf=-1.0, neginf=-1.0)
    down_ramp = np.nan_to_num(down_ramp, nan=-1.0, posinf=-1.0, neginf=-1.0)
    weights = np.maximum(0.0, np.minimum(up_ramp, down_ramp))
    weights *= 2.0 / (upper - lower)

    empty = ~np.any(weights > 0.0, axis=1)
    if np.any(empty):
        warnings.warn(
            f"{int(empty.sum())} of {n_mels} mel filters capture no FFT bin "
            f"(n_fft={n_fft}, sr={sample_rate})",
            DegenerateFilterWarning,
            stacklevel=2,
        )
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=8)
def dct_ortho_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: row k is s_k * cos(pi*k*(2m+1)/(2n))."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    mat[0] *= math.sqrt(1.0 / n)
    mat[1:] *= math.sqrt(2.0 / n)
    mat.flags.writeable = False
    return mat


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _stft_power(segment: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Power spectrogram [frames x (n_fft//2 + 1)]; short segments zero-pad to one frame."""
    length = len(segment)
    if length < n_fft:
        padded = np.zeros(n_fft)
        padded[:length] = segment
        frames = padded[None, :]
    else:
        n_steps = 1 + (length - n_fft) // hop
        offsets = np.arange(n_steps) * hop
        frames = segment[offsets[:, None] + np.arange(n_fft)[None, :]]
    spectrum = _fft_last_axis(frames * _hann_periodic(n_fft), inverse=False)
    return np.abs(spectrum[:, : n_fft // 2 + 1]) ** 2


def frame_features(
    segment: np.ndarray,
    sample_rate: int,
    params: DspParams = DspParams(),
    filterbank: np.ndarray | None = None,
) -> np.ndarray:
    """Reduce one segment to the row [MFCC (n_mfcc) ++ averaged log-mel (n_mels)].

    Mel energies are the filterbank applied to the power spectrogram, floored
    at ``log_floor`` before 10*log10. Log-mel frames are averaged over time;
    MFCCs are the leading orthonormal DCT-II coefficients of that average.
    """
    segment = np.asarray(segment, dtype=np.float64)
    if segment.size == 0:
        raise DomainError("cannot extract features from an empty segment")
    if filterbank is None:
        filterbank = mel_filterbank(sample_rate, params.n_fft, params.n_mels, params.fmin, params.fmax)

    power = _stft_power(segment, params.n_fft, params.stft_hop)
    mel_energy = power @ filterbank.T
    log_mel = 10.0 * np.log10(np.maximum(mel_energy, params.log_floor))
    mel_feature = log_mel.mean(axis=0)
    mfcc = dct_ortho_matrix(params.n_mels)[: params.n_mfcc] @ mel_feature
    return np.concatenate([mfcc, mel_feature])


def extract_audio_track(clip: AudioClip, n_frames: int, params: DspParams = DspParams()) -> np.ndarray:
    """Per-frame feature matrix [n_frames x (n_mfcc + n_mels)] for one clip.

    NumericFaultError if any feature is not finite (a NaN or infinite sample).
    """
    segment_len, starts = plan_segments(clip.duration_samples, n_frames)
    filterbank = mel_filterbank(
        clip.sample_rate, params.n_fft, params.n_mels, params.fmin, params.fmax
    )
    rows = np.empty((n_frames, params.feature_dim()))
    for i, start in enumerate(starts):
        segment = clip.samples[start : start + segment_len]
        rows[i] = frame_features(segment, clip.sample_rate, params, filterbank)
    bad_frames = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad_frames.size:
        raise NumericFaultError(
            f"audio features of {bad_frames.size} of {n_frames} frames are not finite "
            f"(first: frame {bad_frames[0]})"
        )
    return rows
