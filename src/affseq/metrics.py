"""Concordance correlation coefficient and MSE evaluation over frame tracks.

CCC = 2*cov(p, g) / (var(p) + var(g) + (mean(p) - mean(g))^2) with population
(1/N) moments. Unlike Pearson correlation it penalizes mean shifts and scale
differences, so a prediction must be calibrated, not just correlated, to
score 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import LabelTrack
from .errors import CoverageError, DomainError

# How ``evaluate`` pools the CCC over videos: one score over all frames, or the mean of per-video scores.
CCC_MODES = ("concat", "per-video-mean")


class DegenerateInputWarning(UserWarning):
    """Both sequences are constant with equal means; CCC is undefined."""


@dataclass(frozen=True)
class EvalReport:
    ccc_valence: float
    ccc_arousal: float
    mse_valence: float
    mse_arousal: float
    n_frames_evaluated: int

    def mean_ccc(self) -> float:
        return 0.5 * (self.ccc_valence + self.ccc_arousal)

    def as_csv(self) -> str:
        return (
            "metric,valence,arousal\n"
            f"ccc,{self.ccc_valence!r},{self.ccc_arousal!r}\n"
            f"mse,{self.mse_valence!r},{self.mse_arousal!r}\n"
        )

    def as_text(self) -> str:
        return (
            f"frames evaluated: {self.n_frames_evaluated}\n"
            f"CCC  valence {self.ccc_valence:+.4f}   arousal {self.ccc_arousal:+.4f}\n"
            f"MSE  valence {self.mse_valence:.6f}   arousal {self.mse_arousal:.6f}\n"
        )


def ccc(pred, gold) -> float:
    """Concordance correlation coefficient between two sequences.

    Returns 0 (with a DegenerateInputWarning) when both inputs are constant
    with equal means, which makes the ratio 0/0.

    Both inputs are first scaled by one power of two that brings their
    largest magnitude into [0.5, 1). CCC does not change under a common
    scale, and a power of two scales every moment exactly, so inputs whose
    moments stay normal floats give the same bits; tiny inputs no longer
    lose their centred products to subnormals, nor huge ones to overflow.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if p.ndim != 1 or g.ndim != 1:
        raise DomainError("ccc expects 1-D sequences")
    if p.shape != g.shape:
        raise DomainError(f"length mismatch: {p.shape[0]} vs {g.shape[0]}")
    if p.shape[0] < 2:
        raise DomainError(f"ccc needs at least 2 points, got {p.shape[0]}")
    exponent = int(np.frexp(max(np.max(np.abs(p)), np.max(np.abs(g))))[1])
    p, g = np.ldexp(p, -exponent), np.ldexp(g, -exponent)
    mean_p = p.mean()
    mean_g = g.mean()
    var_p = p.var()
    var_g = g.var()
    covariance = np.mean((p - mean_p) * (g - mean_g))
    denom = var_p + var_g + (mean_p - mean_g) ** 2
    if denom == 0.0:
        warnings.warn("both sequences constant with equal means", DegenerateInputWarning, stacklevel=2)
        return 0.0
    return float(2.0 * covariance / denom)


def _mse(pred: np.ndarray, gold: np.ndarray) -> float:
    return float(np.mean((pred - gold) ** 2))


def evaluate(
    predictions: dict[str, np.ndarray],
    labels: dict[str, LabelTrack],
    ccc_mode: str = "concat",
) -> EvalReport:
    """Score per-video [n_frames x 2] prediction tracks against labels.

    Invalid label frames are excluded. ``ccc_mode="concat"`` pools the valid
    frames of all videos and scores once; ``"per-video-mean"`` scores each
    video separately and averages.
    """
    if ccc_mode not in CCC_MODES:
        raise DomainError(f"unknown ccc_mode {ccc_mode!r}")
    if not labels:
        raise DomainError("no labeled videos to evaluate")

    per_video: list[tuple[np.ndarray, np.ndarray]] = []  # (pred[n x 2], gold[n x 2])
    for video_id, track in sorted(labels.items()):
        if video_id not in predictions:
            raise CoverageError(f"no prediction track for video {video_id!r}")
        pred = np.asarray(predictions[video_id], dtype=np.float64)
        if pred.shape != (track.n_frames, 2):
            raise DomainError(
                f"{video_id}: prediction shape {pred.shape} does not match "
                f"({track.n_frames}, 2)"
            )
        keep = track.valid
        if keep.any():
            per_video.append((pred[keep], track.targets()[keep]))

    n_eval = int(sum(len(p) for p, _ in per_video))
    if n_eval < 2:
        raise DomainError(f"need at least 2 valid frames to evaluate, got {n_eval}")

    # Each score is averaged over groups of frames: all of them pooled, or one group per scorable video.
    if ccc_mode == "concat":
        groups = [(np.concatenate([p for p, _ in per_video]), np.concatenate([g for _, g in per_video]))]
    else:
        groups = [(p, g) for p, g in per_video if len(p) >= 2]
        if not groups:
            raise DomainError("per-video-mean needs a video with at least 2 valid frames")

    def mean_over_groups(score, column: int) -> float:
        return float(np.mean([score(p[:, column], g[:, column]) for p, g in groups]))

    return EvalReport(
        ccc_valence=mean_over_groups(ccc, 0),
        ccc_arousal=mean_over_groups(ccc, 1),
        mse_valence=mean_over_groups(_mse, 0),
        mse_arousal=mean_over_groups(_mse, 1),
        n_frames_evaluated=n_eval,
    )
