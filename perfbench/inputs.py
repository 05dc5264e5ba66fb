"""Seeded synthetic inputs for the benchmark workloads.

Everything here is written with the standard library and NumPy only, so the
program under test never helps build its own inputs. The formats follow the
engine's README: AFFW feature files, PCM-16 WAV clips, ``frame,valence,arousal``
label CSVs and the seven-column manifest.

Features carry the label signal plus Gaussian noise, so a model trained on
them learns something real and validation CCC is a meaningful quality guard.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODALITY_DIMS = {"audio": 168, "expnet": 2048, "facepose": 714}
SEQUENCE_LEN = 15
SEQUENCE_HOP = 10
SAMPLE_RATE = 44100
FPS = 30
MANIFEST_HEADER = "video_id,split,audio_path,expnet_path,facepose_path,label_path,n_frames"


@dataclass(frozen=True)
class Video:
    video_id: str
    split: str
    n_frames: int


def window_count(n_frames: int) -> int:
    """Windows the engine cuts from a track: a hop-10 grid plus an end-anchored window."""
    if n_frames <= SEQUENCE_LEN:
        return 1
    starts = range(0, n_frames - SEQUENCE_LEN + 1, SEQUENCE_HOP)
    return len(starts) + (starts[-1] != n_frames - SEQUENCE_LEN)


def write_affw(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"AFFW" + struct.pack("<III", 1, rows, cols))
        fh.write(matrix.tobytes())


def write_wav(path: Path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    ints = np.clip(np.rint(samples * 2**15), -(2**15), 2**15 - 1).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16, 1, 1,
        sample_rate, sample_rate * 2, 2, 16, b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def write_labels(path: Path, labels: np.ndarray) -> None:
    lines = ["frame,valence,arousal"]
    lines += [f"{i},{v!r},{a!r}" for i, (v, a) in enumerate(labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def label_curves(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Smooth valence/arousal curves in [-0.8, 0.8]: three sinusoids each, random phases.

    Frequencies and amplitudes are fixed, so every seed draws labels with the
    same spectrum and validation CCC varies little from seed to seed.
    """
    t = np.arange(n_frames)[:, None]
    freq = np.array([[0.031, 0.067, 0.113], [0.023, 0.052, 0.097]])
    amp = np.array([1.0, 0.6, 0.4])
    out = np.empty((n_frames, 2))
    for dim in range(2):
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        out[:, dim] = 0.8 * (amp * np.sin(freq[dim] * t + phase)).sum(axis=1) / amp.sum()
    return out


class FeatureModel:
    """Fixed per-corpus linear map from labels to each modality, plus unit noise."""

    def __init__(self, rng: np.random.Generator, signal: float):
        self.rng = rng
        self.mix = {m: signal * rng.normal(size=(2, d)) for m, d in MODALITY_DIMS.items()}
        self.offset = {m: rng.normal(size=d) for m, d in MODALITY_DIMS.items()}

    def features(self, modality: str, labels: np.ndarray) -> np.ndarray:
        noise = self.rng.standard_normal((len(labels), MODALITY_DIMS[modality]))
        return labels @ self.mix[modality] + self.offset[modality] + noise


def synth_audio(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """A clip of len(labels)/FPS seconds: two tones whose loudness follows the labels."""
    n_samples = int(round(len(labels) * SAMPLE_RATE / FPS))
    t = np.arange(n_samples) / SAMPLE_RATE
    frame = np.minimum((t * FPS).astype(np.int64), len(labels) - 1)
    envelope = (labels[frame] + 1.0) / 2.0
    wave = 0.35 * envelope[:, 0] * np.sin(2 * np.pi * 440.0 * t)
    wave += 0.35 * envelope[:, 1] * np.sin(2 * np.pi * 2200.0 * t)
    wave += 0.05 * rng.standard_normal(n_samples)
    return wave


def _manifest_line(video: Video, cells: dict[str, str]) -> str:
    return ",".join(
        [video.video_id, video.split, cells["audio"], cells["expnet"], cells["facepose"],
         cells["labels"], str(video.n_frames)]
    )


def feature_corpus(root: Path, seed: int, videos: list[Video], signal: float) -> Path:
    """All three modalities as AFFW files; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    model = FeatureModel(rng, signal)
    lines = [MANIFEST_HEADER]
    for video in videos:
        labels = label_curves(rng, video.n_frames)
        cells = {}
        for modality in MODALITY_DIMS:
            name = f"{video.video_id}.{modality}.feat"
            write_affw(root / name, model.features(modality, labels))
            cells[modality] = name
        cells["labels"] = f"{video.video_id}.labels.csv"
        write_labels(root / cells["labels"], labels)
        lines.append(_manifest_line(video, cells))
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def wav_corpus(root: Path, seed: int, videos: list[Video], signal: float) -> None:
    """WAV clips plus video-modality AFFW files and labels; audio features come from extraction."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    model = FeatureModel(rng, signal)
    for video in videos:
        labels = label_curves(rng, video.n_frames)
        write_wav(root / f"{video.video_id}.wav", synth_audio(rng, labels))
        for modality in ("expnet", "facepose"):
            write_affw(root / f"{video.video_id}.{modality}.feat", model.features(modality, labels))
        write_labels(root / f"{video.video_id}.labels.csv", labels)


def extracted_manifest(path: Path, videos: list[Video], inputs: Path, audio_dir: Path) -> Path:
    """Manifest whose audio column points at ``audio_dir/<video_id>/audio.feat``."""
    lines = [MANIFEST_HEADER]
    for video in videos:
        cells = {
            "audio": str(audio_dir / video.video_id / "audio.feat"),
            "expnet": str(inputs / f"{video.video_id}.expnet.feat"),
            "facepose": str(inputs / f"{video.video_id}.facepose.feat"),
            "labels": str(inputs / f"{video.video_id}.labels.csv"),
        }
        lines.append(_manifest_line(video, cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
