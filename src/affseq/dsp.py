"""Frame-aligned audio feature extraction.

An audio clip is split into one overlapping segment per video frame, and each
segment is reduced to a feature vector of ``n_mfcc + n_mels`` columns, 168
by default: the first ``n_mfcc`` (40) orthonormal DCT-II coefficients of the
time-averaged log-mel spectrum (MFCC) concatenated with the ``n_mels``-band
(128) averaged log-mel spectrum itself. The STFT is NumPy's real
FFT of periodic-Hann-windowed rows; the filterbank uses the Slaney mel scale
with triangle-area normalization.

Frames are transformed in row-bounded chunks: each pass takes as many whole
segments as fit in ``_CHUNK_ROWS`` STFT rows (always at least one), runs one
real FFT over all of those rows, and then one mel GEMM per segment.
Memory is set by the chunk, not by the clip, and the feature bytes are those
of a segment-at-a-time loop. ``extract_audio_track`` is the one entry point;
a single segment is a one-frame clip.
"""

from __future__ import annotations

import math
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
    seg_len = (2 * clip_len) // (n_frames + 1)
    hop = seg_len // 2
    return seg_len, tuple(i * hop for i in range(n_frames - 1)) + (clip_len - seg_len,)


def fft(signal) -> np.ndarray:
    """DFT of a power-of-two-length signal: X[k] = sum_n x[n] e^(-2*pi*i*k*n/N).

    The input length must be a power of two (callers zero-pad).
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1:
        raise DomainError(f"fft expects a 1-D signal, got shape {x.shape}")
    n = x.shape[0]
    if n == 0 or n & (n - 1):
        raise DomainError(f"fft length must be a power of two, got {n}")
    return np.fft.fft(x)


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
    Rows carry Slaney area normalization 2/(f_upper - f_lower). ConfigError
    if a filter's triangle captures no FFT bin: its all-zero row would be a
    constant ``log_floor`` feature in every frame.
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
        raise ConfigError(
            f"{int(empty.sum())} of {n_mels} mel filters capture no FFT bin "
            f"(n_fft={n_fft}, sr={sample_rate}); use fewer mels, a larger n_fft or a wider fmin..fmax"
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


@lru_cache(maxsize=8)
def _hann_periodic(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def _power_rows(samples: np.ndarray, offsets: np.ndarray, length: int, n_fft: int) -> np.ndarray:
    """C-contiguous power spectra [len(offsets) x (n_fft//2 + 1)] of the STFT rows at ``offsets``.

    Row j is the Hann-windowed ``samples[offsets[j] : offsets[j] + n_fft]``;
    a segment ``length`` shorter than ``n_fft`` takes its ``length`` samples,
    and the transform zero-pads them to ``n_fft``.
    """
    taps = min(length, n_fft)
    frames = samples[offsets[:, None] + np.arange(taps)] * _hann_periodic(n_fft)[:taps]
    return np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2


# STFT rows transformed per pass. A chunk holds as many whole segments as fit
# in this many rows, and always at least one segment.
_CHUNK_ROWS = 32


def _segment_features(
    samples: np.ndarray, starts, length: int, params: DspParams, filterbank: np.ndarray
) -> np.ndarray:
    """Rows [MFCC ++ averaged log-mel] of the ``length``-sample segments at ``starts``.

    Segments go through the chain a chunk at a time: one FFT pass over the
    chunk's STFT rows, then one mel GEMM per segment over its C-contiguous
    [steps x bins] power block, the log, the mean over steps and the DCT.
    """
    n_fft, n_mfcc = params.n_fft, params.n_mfcc
    # a segment shorter than n_fft is one zero-padded step; a hop longer than
    # the segment also leaves one step, and min() keeps the offsets integers
    step_offsets = np.arange(0, max(length - n_fft, 0) + 1, min(params.stft_hop, length))
    n_steps = len(step_offsets)
    per_chunk = max(1, _CHUNK_ROWS // n_steps)
    dct = dct_ortho_matrix(params.n_mels)[:n_mfcc]
    starts = np.asarray(starts)
    rows = np.empty((len(starts), params.feature_dim()))
    for lo in range(0, len(starts), per_chunk):
        chunk = starts[lo : lo + per_chunk]
        offsets = (chunk[:, None] + step_offsets).ravel()
        power = _power_rows(samples, offsets, length, n_fft).reshape(len(chunk), n_steps, -1)
        mel_energy = power @ filterbank.T
        log_mel = 10.0 * np.log10(np.maximum(mel_energy, params.log_floor))
        mel_feature = log_mel.mean(axis=1)
        rows[lo : lo + len(chunk), :n_mfcc] = (dct @ mel_feature[:, :, None])[:, :, 0]
        rows[lo : lo + len(chunk), n_mfcc:] = mel_feature
    return rows


def extract_audio_track(clip: AudioClip, n_frames: int, params: DspParams = DspParams()) -> np.ndarray:
    """Per-frame feature matrix [n_frames x (n_mfcc + n_mels)] for one clip.

    ConfigError if a mel filter captures no FFT bin at this sample rate;
    NumericFaultError if any feature is not finite (a NaN or infinite sample).
    """
    segment_len, starts = plan_segments(clip.duration_samples, n_frames)
    filterbank = mel_filterbank(clip.sample_rate, params.n_fft, params.n_mels, params.fmin, params.fmax)
    rows = _segment_features(clip.samples, starts, segment_len, params, filterbank)
    bad_frames = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad_frames.size:
        raise NumericFaultError(
            f"audio features of {bad_frames.size} of {n_frames} frames are not finite "
            f"(first: frame {bad_frames[0]})"
        )
    return rows
