import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affseq import DspParams, fft, mel_filterbank, plan_segments
from affseq.audio_io import AudioClip
from affseq.dsp import (
    _CHUNK_ROWS,
    _power_rows,
    dct_ortho_matrix,
    extract_audio_track,
    hz_to_mel,
    mel_to_hz,
)
from affseq.errors import ConfigError, DomainError

from oracles import (
    extract_audio_per_segment,
    hz_to_mel_slaney,
    mel_to_hz_slaney,
    mel_weights_direct,
    naive_dft,
    segment_invariants,
)


# --- segmentation -----------------------------------------------------------

def test_plan_1000_3():
    assert plan_segments(1000, 3) == (500, (0, 250, 500))  # hop 250


def test_plan_1000_1():
    assert plan_segments(1000, 1) == (1000, (0,))


def test_plan_1000_4():
    segment_len, starts = plan_segments(1000, 4)
    assert segment_len == 400
    assert starts == (0, 200, 400, 600)  # hop 200
    assert starts[-1] + segment_len == 1000


def test_plan_rejects_zero_frames():
    with pytest.raises(DomainError, match="n_frames must be ≥ 1"):
        plan_segments(1000, 0)


def test_plan_rejects_clip_shorter_than_frames():
    with pytest.raises(DomainError):
        plan_segments(5, 6)


@settings(max_examples=200, deadline=None)
@given(T=st.integers(1, 3000), N=st.integers(1, 60))
def test_plan_invariants_property(T, N):
    if T < N:
        T, N = N, T
    if N < 1:
        return
    segment_invariants(T, N, plan_segments(T, N))


# --- FFT ---------------------------------------------------------------------

def test_fft_impulse():
    np.testing.assert_allclose(fft([1, 0, 0, 0]), np.ones(4, dtype=complex), atol=1e-15)


def test_fft_constant():
    np.testing.assert_allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)


def test_fft_matches_naive_dft_256(rng):
    x = rng.normal(size=256) + 1j * rng.normal(size=256)
    assert np.max(np.abs(fft(x) - naive_dft(x))) < 1e-9


def test_fft_linearity(rng):
    for n in (4, 64, 1024):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        a, b = 1.7, -0.3 + 2j
        lhs = fft(a * x + b * y)
        rhs = a * fft(x) + b * fft(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_fft_parseval(rng):
    for n in (8, 128, 512):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = fft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(X) ** 2) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


def test_fft_rejects_non_power_of_two():
    for n in (0, 3, 6, 100):
        with pytest.raises(DomainError):
            fft(np.zeros(max(n, 1))[:n] if n else np.zeros(0))


def test_fft_rejects_2d():
    with pytest.raises(DomainError):
        fft(np.zeros((4, 4)))


# --- mel scale and filterbank -------------------------------------------------

def test_mel_scale_matches_reference_formulas():
    freqs = np.linspace(0, 8000, 257)
    expected = np.array([hz_to_mel_slaney(f) for f in freqs])
    np.testing.assert_allclose(hz_to_mel(freqs), expected, rtol=1e-12)
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-9, atol=1e-9)


def test_mel_scale_continuous_at_1khz():
    below = float(hz_to_mel(1000.0 - 1e-9))
    above = float(hz_to_mel(1000.0 + 1e-9))
    assert abs(below - above) < 1e-9
    assert abs(float(hz_to_mel(1000.0)) - 15.0) < 1e-12


def test_filterbank_matches_direct_formula_oracle():
    fb = mel_filterbank(16000, 512, 128, 0.0, 8000.0)
    direct = mel_weights_direct(16000, 512, 128, 0.0, 8000.0)
    assert np.max(np.abs(fb - direct)) < 1e-10
    np.testing.assert_allclose(fb.sum(axis=1), direct.sum(axis=1), rtol=0, atol=1e-10)


def test_filterbank_nonnegative_contiguous(rng):
    for sr, n_fft, n_mels in ((16000, 512, 128), (8000, 256, 40), (44100, 2048, 128)):
        fb = mel_filterbank(sr, n_fft, n_mels)
        assert np.all(fb >= 0)
        for row in fb:
            support = np.flatnonzero(row > 0)
            if support.size:
                assert np.array_equal(support, np.arange(support[0], support[-1] + 1))


def test_filterbank_single_triangle_geometry():
    sr, n_fft = 16000, 512
    fb = mel_filterbank(sr, n_fft, 1, 0.0, None)
    mid_mel = 0.5 * float(hz_to_mel(sr / 2))
    center_hz = float(mel_to_hz(mid_mel))
    bin_hz = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    assert np.argmax(fb[0]) == np.argmin(np.abs(bin_hz - center_hz))


def test_filterbank_rejects_fmax_above_nyquist():
    with pytest.raises(DomainError):
        mel_filterbank(16000, 512, 10, 0.0, 9000.0)


def test_filterbank_rejects_bad_fmin():
    with pytest.raises(DomainError):
        mel_filterbank(16000, 512, 10, -1.0, 8000.0)
    with pytest.raises(DomainError):
        mel_filterbank(16000, 512, 10, 5000.0, 5000.0)


def test_filterbank_degenerate_filters_rejected():
    message = r"^70 of 128 mel filters capture no FFT bin \(n_fft=64, sr=16000\); use fewer mels"
    with pytest.raises(ConfigError, match=message):
        mel_filterbank(16000, 64, 128)


# --- DCT ----------------------------------------------------------------------

def test_dct_orthonormal():
    mat = dct_ortho_matrix(128)
    np.testing.assert_allclose(mat @ mat.T, np.eye(128), atol=1e-12)


def test_dct_round_trip(rng):
    x = rng.normal(size=128)
    mat = dct_ortho_matrix(128)
    assert np.max(np.abs(mat.T @ (mat @ x) - x)) < 1e-10


# --- one-frame features -------------------------------------------------------

def _one_frame(segment, sr):
    """The feature row of a one-frame clip: the whole segment is the frame's segment."""
    return extract_audio_track(_clip(segment, sr), 1)[0]


def test_silence_features():
    row = _one_frame(np.zeros(4000), 16000)
    np.testing.assert_allclose(row[40:], -100.0, rtol=0, atol=1e-9)
    assert abs(row[0] - (-100.0 * math.sqrt(128))) < 1e-9
    np.testing.assert_allclose(row[1:40], 0.0, rtol=0, atol=1e-9)


def test_combined_layout(rng):
    row = _one_frame(rng.normal(size=5000), 16000)
    assert row.shape == (168,)
    # MFCCs first: the leading DCT-II coefficients of the log-mel part that follows
    np.testing.assert_array_equal(row[:40], dct_ortho_matrix(128)[:40] @ row[40:])


def _oracle_mel_vector(segment, sr, n_fft=2048, hop=512, n_mels=128):
    """Straight-line STFT + filterbank + log chain on numpy primitives."""
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    if len(segment) < n_fft:
        frames = [np.pad(segment, (0, n_fft - len(segment)))]
    else:
        frames = [
            segment[o : o + n_fft] for o in range(0, len(segment) - n_fft + 1, hop)
        ]
    weights = mel_weights_direct(sr, n_fft, n_mels, 0.0, sr / 2)
    logs = []
    for frame in frames:
        power = np.abs(np.fft.rfft(frame * window)) ** 2
        energy = weights @ power
        logs.append(10.0 * np.log10(np.maximum(energy, 1e-10)))
    return np.mean(logs, axis=0)


def test_sine_440_matches_straight_line_oracle():
    sr = 16000
    t = np.arange(sr) / sr
    segment = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    row = _one_frame(segment, sr)
    oracle_mel = _oracle_mel_vector(segment, sr)
    np.testing.assert_allclose(row[40:], oracle_mel, rtol=1e-9, atol=1e-9)

    # peak filter is the one whose center frequency is nearest 440 Hz
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2), 130)
    centers = mel_to_hz(mel_pts[1:-1])
    assert np.argmax(row[40:]) == np.argmin(np.abs(centers - 440.0))

    # cepstral oracle: explicit cosine sums over the oracle mel vector
    n = 128
    mfcc_oracle = np.array(
        [
            sum(oracle_mel[m] * math.cos(math.pi * k * (2 * m + 1) / (2 * n)) for m in range(n))
            * (math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n))
            for k in range(40)
        ]
    )
    np.testing.assert_allclose(row[:40], mfcc_oracle, rtol=1e-9, atol=1e-9)


def test_empty_segment_rejected():
    with pytest.raises(DomainError):
        _one_frame(np.zeros(0), 16000)


def test_short_segment_zero_pads_to_single_frame(rng):
    segment = rng.normal(size=300)
    row = _one_frame(segment, 16000)
    oracle = _oracle_mel_vector(segment, 16000)
    np.testing.assert_allclose(row[40:], oracle, rtol=1e-9, atol=1e-9)


# --- track extraction -----------------------------------------------------------

def _clip(samples, sr=16000):
    return AudioClip(samples=np.asarray(samples, dtype=np.float64), sample_rate=sr)


def test_extract_single_frame(rng):
    track = extract_audio_track(_clip(rng.normal(size=1000)), 1)
    assert track.shape == (1, 168)


def test_extract_rows_use_planned_segments(rng):
    clip = _clip(rng.normal(size=1000))
    track = extract_audio_track(clip, 3)
    assert track.shape == (3, 168)
    assert track.tobytes() == extract_audio_per_segment(clip, 3, DspParams()).tobytes()


_PARAM_SETS = {
    "default": DspParams(),
    "512/128/40/13": DspParams(n_fft=512, stft_hop=128, n_mels=40, n_mfcc=13),
    "256/64/32/13": DspParams(n_fft=256, stft_hop=64, n_mels=32, n_mfcc=13),
}


def _clip_for_steps(sample_rate, n_frames, params, steps, extra, seed, silence):
    """A clip whose planned segments take ``steps`` STFT steps (0: shorter than n_fft, one padded step)."""
    if steps == 0:
        segment_len = 2 + extra % (params.n_fft - 2)
    else:
        segment_len = params.n_fft + (steps - 1) * params.stft_hop + extra % params.stft_hop
    clip_len = segment_len if n_frames == 1 else (segment_len * (n_frames + 1) + 1) // 2
    assert plan_segments(clip_len, n_frames)[0] == segment_len
    gen = np.random.default_rng(seed)
    samples = gen.uniform(-1.0, 1.0, clip_len) * gen.uniform(0.0, 1.0)
    lo, hi = sorted(int(clip_len * f) for f in silence)
    samples[lo:hi] = 0.0
    return _clip(samples, sample_rate)


@settings(max_examples=80, deadline=None)
@given(
    sample_rate=st.sampled_from([8000, 16000, 44100, 48000]),
    n_frames=st.integers(1, 40),
    params=st.sampled_from(sorted(_PARAM_SETS)),
    steps=st.sampled_from([0, 1, 2, 3, 4, 9]),
    extra=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    silence=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
@example(sample_rate=8000, n_frames=1, params="default", steps=0, extra=0, seed=1, silence=(0.0, 0.5))
@example(sample_rate=16000, n_frames=2, params="512/128/40/13", steps=2, extra=5, seed=2, silence=(0.2, 0.9))
@example(sample_rate=44100, n_frames=3, params="256/64/32/13", steps=3, extra=77, seed=3, silence=(0.0, 1.0))
@example(sample_rate=48000, n_frames=15, params="default", steps=4, extra=300, seed=4, silence=(0.5, 0.6))
@example(sample_rate=44100, n_frames=15, params="default", steps=1, extra=1, seed=5, silence=(0.0, 0.0))
def test_extract_matches_per_segment_oracle_bitwise(sample_rate, n_frames, params, steps, extra, seed, silence):
    """Chunked extraction is byte-equal to the one-segment-per-iteration path."""
    dsp = _PARAM_SETS[params]
    clip = _clip_for_steps(sample_rate, n_frames, dsp, steps, extra, seed, silence)
    track = extract_audio_track(clip, n_frames, dsp)
    oracle = extract_audio_per_segment(clip, n_frames, dsp)
    assert track.tobytes() == oracle.tobytes(), np.max(np.abs(track - oracle))


def _extract_extra_bytes(n_frames, params):
    """Traced peak bytes of one extraction beyond its output (the samples exist before tracing)."""
    frame_len = 8000 // 25
    samples = np.random.default_rng(n_frames).uniform(-1.0, 1.0, n_frames * frame_len)
    tracemalloc.start()
    try:
        track = extract_audio_track(_clip(samples, 8000), n_frames, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - track.nbytes


def test_extract_memory_is_bounded_by_a_chunk():
    """A chunk's index, windowed rows, spectrum and power rows take a few
    chunks' complex bytes. Only the planned starts and the finite check grow
    with the clip, by tens of bytes a frame."""
    params = _PARAM_SETS["256/64/32/13"]
    chunk_bytes = _CHUNK_ROWS * params.n_fft * np.dtype(np.complex128).itemsize
    _extract_extra_bytes(30, params)  # fills the caches: window, DCT
    short = _extract_extra_bytes(300, params)
    long = _extract_extra_bytes(3000, params)
    assert short < 6 * chunk_bytes
    assert long < 6 * chunk_bytes
    assert long - short < 2 * chunk_bytes


@pytest.mark.parametrize("n_fft, length", [(256, 700), (512, 512), (2048, 5000), (2048, 900)])
def test_power_rows_match_naive_dft(rng, n_fft, length):
    """STFT power rows are |DFT|² of the windowed rows, zero-padded to n_fft when the segment is shorter."""
    samples = rng.uniform(-1.0, 1.0, 4 * length)
    offsets = np.array([0, 1, length, 3 * length])
    taps = min(length, n_fft)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    frames = np.zeros((len(offsets), n_fft))
    for row, offset in zip(frames, offsets):
        row[:taps] = samples[offset : offset + taps] * window[:taps]
    expected = np.abs(naive_dft(frames.T)[: n_fft // 2 + 1].T) ** 2
    power = _power_rows(samples, offsets, length, n_fft)
    assert power.shape == expected.shape and power.flags.c_contiguous
    assert np.max(np.abs(power - expected)) <= 1e-9 * np.max(expected)


def test_extract_rejects_empty_mel_filters():
    with pytest.raises(ConfigError, match="2307 of 4000 mel filters capture no FFT bin"):
        extract_audio_track(_clip(np.zeros(4410), 44100), 4, DspParams(n_mels=4000))


def test_extract_silence_rows_identical():
    track = extract_audio_track(_clip(np.zeros(2000)), 5)
    assert track.shape == (5, 168)
    for i in range(1, 5):
        np.testing.assert_array_equal(track[i], track[0])


def test_extract_deterministic(rng):
    clip = _clip(rng.normal(size=3000))
    a = extract_audio_track(clip, 7)
    b = extract_audio_track(clip, 7)
    assert np.array_equal(a, b)


def test_feature_dim_follows_params():
    assert DspParams().feature_dim() == 168
    assert DspParams(n_mels=64, n_mfcc=20).feature_dim() == 84
    track = extract_audio_track(_clip(np.zeros(500)), 2, DspParams(n_fft=256, stft_hop=64, n_mels=32, n_mfcc=13))
    assert track.shape == (2, 45)
