"""Sequence-level valence/arousal estimation from audio, face-expression
embeddings, and face-pose features.

The pipeline: extract log-mel + cepstral audio features aligned to video
frames, window all modalities into length-15 sequences, run recurrent
branches fused by a dense head, and score frame predictions with the
concordance correlation coefficient.

Nothing is imported with the package: each submodule loads on first use,
whether by name (``affseq.dsp``) or through a name it exports here
(``affseq.read_wav``). ``affseq.train`` is the training submodule; run
training with ``affseq.train.train``, which the package does not re-export.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "audio_io": ("AudioClip", "read_wav"),
    "checkpoint": ("Checkpoint", "load_checkpoint", "save_checkpoint"),
    "cli": (),
    "dataset": (
        "MODALITY_DIMS", "SEQUENCE_LEN", "SEQUENCE_OVERLAP", "FeatureTrack", "LabelTrack", "ManifestRow",
        "NormalizationStats", "build_windows", "compute_stats", "load_feature_track", "load_labels",
        "load_manifest", "merge_window_predictions", "normalize", "window_starts", "write_feature_file",
    ),
    "dsp": ("DspParams", "extract_audio_track", "fft", "mel_filterbank", "plan_segments"),
    "errors": (
        "AffseqError", "ChecksumError", "ConfigError", "CoverageError", "DomainError", "FileFormatError",
        "NumericFaultError", "exit_code_for",
    ),
    "metrics": ("EvalReport", "ccc", "evaluate"),
    "model": ("Model", "ModelConfig", "build"),
    "nn": (),
    "train": ("TrainConfig", "evaluate_checkpoint", "predict", "restore_model"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
