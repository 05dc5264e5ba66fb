"""Sequence-level valence/arousal estimation from audio, face-expression
embeddings, and face-pose features.

The pipeline: extract log-mel + cepstral audio features aligned to video
frames, window all modalities into length-15 sequences, run recurrent
branches fused by a dense head, and score frame predictions with the
concordance correlation coefficient.

``affseq.train`` is the training submodule; run training with
``affseq.train.train``, which the package does not re-export.
"""

from .audio_io import AudioClip, read_wav
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataset import (
    MODALITY_DIMS,
    SEQUENCE_LEN,
    SEQUENCE_OVERLAP,
    FeatureTrack,
    LabelTrack,
    ManifestRow,
    NormalizationStats,
    build_windows,
    compute_stats,
    load_feature_track,
    load_labels,
    load_manifest,
    merge_window_predictions,
    normalize,
    window_starts,
    write_feature_file,
)
from .dsp import DspParams, extract_audio_track, fft, mel_filterbank, plan_segments
from .errors import (
    AffseqError,
    ChecksumError,
    ConfigError,
    CoverageError,
    DomainError,
    FileFormatError,
    NumericFaultError,
    exit_code_for,
)
from .metrics import EvalReport, ccc, evaluate
from .model import Model, ModelConfig, build
from .train import TrainConfig, evaluate_checkpoint, predict, restore_model

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "read_wav",
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "MODALITY_DIMS",
    "SEQUENCE_LEN",
    "SEQUENCE_OVERLAP",
    "FeatureTrack",
    "LabelTrack",
    "ManifestRow",
    "NormalizationStats",
    "build_windows",
    "compute_stats",
    "load_feature_track",
    "load_labels",
    "load_manifest",
    "merge_window_predictions",
    "normalize",
    "window_starts",
    "write_feature_file",
    "DspParams",
    "extract_audio_track",
    "fft",
    "mel_filterbank",
    "plan_segments",
    "AffseqError",
    "ChecksumError",
    "ConfigError",
    "CoverageError",
    "DomainError",
    "FileFormatError",
    "NumericFaultError",
    "exit_code_for",
    "EvalReport",
    "ccc",
    "evaluate",
    "Model",
    "ModelConfig",
    "build",
    "TrainConfig",
    "evaluate_checkpoint",
    "predict",
    "restore_model",
    "__version__",
]
