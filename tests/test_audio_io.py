import struct

import numpy as np
import pytest

from affseq import read_wav
from affseq.audio_io import AudioClip
from affseq.errors import (
    DomainError,
    FileFormatError,
    TruncatedFileError,
    UnsupportedEncodingError,
)

from oracles import float32_wav_bytes, pcm16_wav_bytes, pcm_wav_bytes


def _write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def test_pcm16_full_scale_sample(tmp_path):
    path = _write(tmp_path, "one.wav", pcm_wav_bytes(np.array([32767]), 16000, bits=16))
    clip = read_wav(path)
    assert clip.samples[0] == 32767 / 32768
    assert clip.sample_rate == 16000
    assert clip.duration_samples == 1


def test_pcm16_half_scale_is_exact(tmp_path):
    path = _write(tmp_path, "half.wav", pcm_wav_bytes(np.array([16384, -16384]), 8000, bits=16))
    clip = read_wav(path)
    assert clip.samples[0] == 0.5
    assert clip.samples[1] == -0.5


def test_silence_clip(tmp_path):
    path = _write(tmp_path, "zeros.wav", pcm_wav_bytes(np.zeros(100, dtype=int), 16000, bits=16))
    clip = read_wav(path)
    assert clip.duration_samples == 100
    assert clip.sample_rate == 16000
    assert np.all(clip.samples == 0.0)


def test_stereo_downmix_mean(tmp_path):
    # interleaved L,R frames; symmetric pair cancels to zero
    interleaved = np.array([16384, -16384, 8192, 8192])
    path = _write(tmp_path, "st.wav", pcm_wav_bytes(interleaved, 44100, bits=16, channels=2))
    clip = read_wav(path)
    assert clip.duration_samples == 2
    assert clip.samples[0] == 0.0
    assert clip.samples[1] == 8192 / 32768


def test_downmix_linearity_identical_channels(tmp_path, rng):
    mono = rng.uniform(-0.9, 0.9, size=64)
    ints = np.clip(np.round(mono * 32768), -32768, 32767).astype(int)
    mono_path = _write(tmp_path, "m.wav", pcm_wav_bytes(ints, 16000, bits=16))
    duplicated = np.repeat(ints, 2)
    stereo_path = _write(tmp_path, "s.wav", pcm_wav_bytes(duplicated, 16000, bits=16, channels=2))
    np.testing.assert_array_equal(read_wav(mono_path).samples, read_wav(stereo_path).samples)


def test_pcm24_sign_and_scale(tmp_path):
    vals = np.array([0x400000, -0x400000, 0x7FFFFF, -0x800000])
    path = _write(tmp_path, "deep.wav", pcm_wav_bytes(vals, 48000, bits=24))
    clip = read_wav(path)
    np.testing.assert_allclose(
        clip.samples, [0.5, -0.5, 0x7FFFFF / 0x800000, -1.0], rtol=0, atol=0
    )


def test_pcm32_scale(tmp_path):
    vals = np.array([2**30, -(2**31)])
    path = _write(tmp_path, "p32.wav", pcm_wav_bytes(vals, 16000, bits=32))
    clip = read_wav(path)
    assert clip.samples[0] == 0.5
    assert clip.samples[1] == -1.0


def test_float32_passthrough_and_clip(tmp_path):
    path = _write(tmp_path, "f.wav", float32_wav_bytes(np.array([0.25, -0.125, 1.5, -2.0]), 22050))
    clip = read_wav(path)
    np.testing.assert_allclose(clip.samples, [0.25, -0.125, 1.0, -1.0])


def test_round_trip_within_quantization(tmp_path, rng):
    original = rng.uniform(-0.99, 0.99, size=500)
    clip = read_wav(_write(tmp_path, "rt.wav", pcm16_wav_bytes(original, 16000)))
    assert clip.sample_rate == 16000
    assert np.max(np.abs(clip.samples - original)) <= 1 / 32768


def test_reader_matches_independent_writer(tmp_path, rng):
    samples = rng.uniform(-0.5, 0.5, size=200)
    path = _write(tmp_path, "x.wav", pcm16_wav_bytes(samples, 16000))
    clip = read_wav(path)
    assert np.max(np.abs(clip.samples - samples)) <= 1 / 32768


def test_skips_list_chunk(tmp_path):
    extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
    blob = pcm16_wav_bytes(np.array([0.5, -0.5]), 16000, extra_chunk=extra)
    clip = read_wav(_write(tmp_path, "lst.wav", blob))
    assert clip.duration_samples == 2


def test_truncated_data_chunk_names_counts(tmp_path):
    blob = pcm_wav_bytes(np.arange(10), 16000, bits=16)
    path = _write(tmp_path, "cut.wav", blob[:-8])
    with pytest.raises(TruncatedFileError, match=r"expected 20 bytes, found 12"):
        read_wav(path)


def test_unsupported_bit_depth(tmp_path):
    # 8-bit PCM is outside the supported set
    blob = pcm16_wav_bytes(np.array([0.0]), 16000)
    blob = blob.replace(struct.pack("<HH", 2, 16), struct.pack("<HH", 1, 8))
    with pytest.raises(UnsupportedEncodingError):
        read_wav(_write(tmp_path, "u8.wav", blob))


def test_compressed_codec_rejected(tmp_path):
    blob = pcm16_wav_bytes(np.array([0.0]), 16000)
    # format code 1 -> 85 (MP3) in the fmt chunk
    idx = blob.index(b"fmt ") + 8
    blob = blob[:idx] + struct.pack("<H", 85) + blob[idx + 2 :]
    with pytest.raises(UnsupportedEncodingError):
        read_wav(_write(tmp_path, "mp3.wav", blob))


def test_not_riff_rejected(tmp_path):
    with pytest.raises(FileFormatError):
        read_wav(_write(tmp_path, "bad.wav", b"OggS" + b"\x00" * 40))


def test_missing_data_chunk_rejected(tmp_path):
    blob = pcm16_wav_bytes(np.array([0.0]), 16000)
    idx = blob.index(b"data")
    with pytest.raises(FileFormatError):
        read_wav(_write(tmp_path, "nodata.wav", blob[:idx]))


def test_three_channels_rejected(tmp_path):
    blob = pcm16_wav_bytes(np.array([0.0, 0.0, 0.0]), 16000)
    blob = blob.replace(struct.pack("<HH", 1, 1), struct.pack("<HH", 1, 3), 1)
    with pytest.raises(UnsupportedEncodingError):
        read_wav(_write(tmp_path, "3ch.wav", blob))


def test_clip_is_immutable():
    clip = AudioClip(samples=np.zeros(4), sample_rate=16000)
    with pytest.raises(ValueError):
        clip.samples[0] = 1.0


def test_bad_sample_rate_rejected():
    with pytest.raises(DomainError):
        AudioClip(samples=np.zeros(4), sample_rate=0)
