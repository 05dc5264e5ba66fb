"""Training loop, checkpoint assembly, evaluation, and prediction export.

One epoch shuffles the window index with a seeded generator, gathers and
z-scores each batch from the float32 training tracks, runs masked-MSE
backprop, applies RMSprop, then scores the validation split from
overlap-merged frame predictions. The checkpoint with the best mean CCC is
kept. Validation, evaluation and prediction stream the manifest one video at
a time (load, predict, drop), so their memory does not grow with its length.
With a fixed seed and one thread the whole trajectory is bit-for-bit
reproducible; worker threads only load videos ahead, never run the optimizer
step.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import (
    NORM_PREFIX,
    PARAM_PREFIX,
    STATE_PREFIX,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .dataset import (
    FeatureTrack,
    LabelTrack,
    ManifestRow,
    NormalizationStats,
    build_windows,
    compute_stats,
    concat_windows,
    gather_windows,
    load_feature_track,
    load_labels,
    merge_window_predictions,
)
from .errors import ConfigError, CoverageError, DomainError, NumericFaultError
from .metrics import EvalReport, evaluate
from .model import Model, ModelConfig, build
from .nn import RMSprop, clip_global_norm, masked_mse

HISTORY_HEADER = "epoch,train_loss,val_ccc_valence,val_ccc_arousal,val_mse_valence,val_mse_arousal"


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 0
    shuffle: bool = True
    ccc_mode: str = "concat"
    clip_norm: float = 5.0  # global-norm gradient clip; 0 disables
    threads: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be ≥ 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be ≥ 0, got {self.epochs}")
        if self.ccc_mode not in ("concat", "per-video-mean"):
            raise ConfigError(f"unknown ccc_mode {self.ccc_mode!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be ≥ 1, got {self.threads}")


@dataclass
class VideoData:
    """One manifest row's feature tracks (float32 as read) and labels."""

    row: ManifestRow
    features: dict[str, FeatureTrack]
    labels: LabelTrack | None


def _load_video(row: ManifestRow, modalities, need_labels: bool) -> VideoData:
    features = {}
    for modality in modalities:
        path = row.feature_path(modality)
        if path is None:
            raise CoverageError(f"{row.video_id}: manifest has no {modality} feature file")
        track = load_feature_track(path, modality, video_id=row.video_id)
        if track.n_frames != row.n_frames:
            raise DomainError(
                f"{row.video_id}: {modality} track has {track.n_frames} frames, "
                f"manifest declares {row.n_frames}"
            )
        features[modality] = track
    labels = None
    if row.label_path is not None:
        labels = load_labels(row.label_path, video_id=row.video_id)
        if labels.n_frames != row.n_frames:
            raise DomainError(
                f"{row.video_id}: labels have {labels.n_frames} frames, "
                f"manifest declares {row.n_frames}"
            )
    elif need_labels:
        raise CoverageError(f"{row.video_id}: split requires labels but manifest has none")
    return VideoData(row=row, features=features, labels=labels)


def _stream_videos(rows, modalities, need_labels: bool, threads: int):
    """Yield each row's VideoData in row order.

    With ``threads`` > 1, worker threads load at most ``threads`` videos ahead
    of the one the caller holds, so memory stays bounded by a few videos.
    """
    if threads == 1 or len(rows) < 2:
        for row in rows:
            yield _load_video(row, modalities, need_labels)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for row in rows:
            ahead.append(pool.submit(_load_video, row, modalities, need_labels))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def predict_video(
    model: Model, video: VideoData, batch_size: int = 32, *, stats: NormalizationStats
) -> np.ndarray:
    """Frame-level [n_frames x 2] predictions via windowing and overlap merge.

    ``video`` holds the tracks as loaded; each batch is z-scored with ``stats``.
    """
    windows = build_windows(video.features)
    modalities = model.config.modalities()
    blocks: list[tuple[int, np.ndarray]] = []
    for i in range(0, len(windows), batch_size):
        chunk = windows[i : i + batch_size]
        pred = model.forward({m: gather_windows(chunk, m, stats) for m in modalities}, train=False)
        blocks.extend(zip(chunk.rows[:, 0].tolist(), pred))
    return merge_window_predictions(blocks, video.row.n_frames)


def _evaluate_rows(
    model: Model, stats: NormalizationStats, rows, ccc_mode: str, batch_size: int, threads: int
) -> EvalReport:
    predictions: dict[str, np.ndarray] = {}
    labels: dict[str, LabelTrack] = {}
    for video in _stream_videos(rows, model.config.modalities(), need_labels=True, threads=threads):
        predictions[video.row.video_id] = predict_video(model, video, batch_size, stats=stats)
        labels[video.row.video_id] = video.labels
    return evaluate(predictions, labels, ccc_mode=ccc_mode)


def _make_checkpoint(
    model: Model,
    stats: NormalizationStats,
    epoch: int,
    best_val_score: float | None,
    seed: int,
) -> Checkpoint:
    tensors: dict[str, np.ndarray] = {}
    for name, param in model.named_parameters().items():
        tensors[PARAM_PREFIX + name] = param
    for name, value in model.named_state().items():
        tensors[STATE_PREFIX + name] = value
    for modality in stats.modalities():
        tensors[f"{NORM_PREFIX}{modality}/mean"] = stats.mean[modality]
        tensors[f"{NORM_PREFIX}{modality}/std"] = stats.std[modality]
    config = {
        "model": model.config.to_dict(),
        "epoch": epoch,
        "best_val_score": best_val_score,
        "seed": seed,
    }
    return Checkpoint(config=config, tensors=tensors)


def restore_model(ckpt: Checkpoint) -> tuple[Model, NormalizationStats]:
    """Rebuild the model and normalization statistics stored in a checkpoint.

    Only the ``param/``, ``state/`` and ``norm/`` groups are read; any other
    tensors (the ``optim/`` caches of older files) are ignored. The model is
    built uninitialized, since ``load_state`` overwrites every tensor.
    """
    model = Model(ckpt.model_config(), seed=ckpt.seed, init=False)
    model.load_state(ckpt.group(PARAM_PREFIX), ckpt.group(STATE_PREFIX))
    stats = NormalizationStats()
    for name, value in ckpt.group(NORM_PREFIX).items():
        modality, _, kind = name.partition("/")
        if kind == "mean":
            stats.mean[modality] = value
        elif kind == "std":
            stats.std[modality] = value
    return model, stats


def _history_line(epoch: int, train_loss: float, report: EvalReport) -> str:
    return ",".join(
        [
            str(epoch),
            repr(float(train_loss)),
            repr(float(report.ccc_valence)),
            repr(float(report.ccc_arousal)),
            repr(float(report.mse_valence)),
            repr(float(report.mse_arousal)),
        ]
    )


def train(manifest_rows: list[ManifestRow], config: TrainConfig, out_dir) -> tuple[Checkpoint, list[str]]:
    """Train per the config; writes ``best.ckpt`` and ``history.csv`` under ``out_dir``.

    Returns the best checkpoint (reloaded from disk, so its tensors carry
    exactly the stored float32 values) and the history rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_rows = [r for r in manifest_rows if r.split == "train"]
    val_rows = [r for r in manifest_rows if r.split == "val"]
    if not train_rows:
        raise ConfigError("manifest has no train rows")
    if not val_rows:
        raise ConfigError("manifest has no val rows")
    history = _fit(train_rows, val_rows, config, out_dir)
    # the tracks, model and optimizer died with _fit, so the reload adds no peak
    return load_checkpoint(out_dir / "best.ckpt"), history


def _fit(train_rows, val_rows, config: TrainConfig, out_dir: Path) -> list[str]:
    modalities = config.model.modalities()
    threads = config.threads
    train_videos = list(_stream_videos(train_rows, modalities, need_labels=True, threads=threads))
    # Validation rereads its videos every epoch; a val video that cannot load
    # fails here, before training, as well.
    for _ in _stream_videos(val_rows, modalities, need_labels=True, threads=threads):
        pass

    stats = compute_stats([t for v in train_videos for t in v.features.values()])
    windows = concat_windows([build_windows(v.features, v.labels) for v in train_videos])
    windows = windows.select(windows.mask.any(axis=1))  # a window with no valid frame contributes no gradient
    if not len(windows):
        raise ConfigError("training split contains no window with a valid label")

    root_rng = np.random.default_rng(config.seed)
    model_seed = int(root_rng.integers(2**63))
    model = build(config.model, seed=model_seed)
    optimizer = RMSprop(lr=config.learning_rate)

    best_score = -math.inf
    best_path = out_dir / "best.ckpt"
    history: list[str] = []

    ckpt = _make_checkpoint(model, stats, epoch=0, best_val_score=None, seed=config.seed)
    save_checkpoint(best_path, ckpt)

    with open(out_dir / "history.csv", "w", encoding="utf-8", newline="") as hist_fh:
        hist_fh.write(HISTORY_HEADER + "\n")
        hist_fh.flush()
        for epoch in range(1, config.epochs + 1):
            if config.shuffle:
                order = root_rng.permutation(len(windows))
            else:
                order = np.arange(len(windows))
            total_sq = 0.0
            total_count = 0
            for batch_no, batch_start in enumerate(range(0, len(order), config.batch_size)):
                batch = windows.select(order[batch_start : batch_start + config.batch_size])
                inputs = {m: gather_windows(batch, m, stats) for m in modalities}
                try:
                    model.zero_grads()
                    pred = model.forward(inputs, train=True)
                    loss, d_pred = masked_mse(pred, batch.targets, batch.mask)
                    model.backward(d_pred, input_grads=False)
                    if config.clip_norm > 0:
                        clip_global_norm([g for _, _, g in model.gradient_slots()], config.clip_norm)
                    optimizer.step(model.gradient_slots())
                except NumericFaultError as exc:
                    raise NumericFaultError(f"epoch {epoch} batch {batch_no}: {exc}") from exc
                count = int(batch.mask.sum()) * 2
                total_sq += loss * count
                total_count += count
            train_loss = total_sq / total_count
            report = _evaluate_rows(model, stats, val_rows, config.ccc_mode, config.batch_size, threads)
            line = _history_line(epoch, train_loss, report)
            history.append(line)
            hist_fh.write(line + "\n")
            hist_fh.flush()
            if report.mean_ccc() > best_score:
                best_score = report.mean_ccc()
                ckpt = _make_checkpoint(
                    model, stats, epoch=epoch, best_val_score=best_score, seed=config.seed
                )
                save_checkpoint(best_path, ckpt)
    return history


def evaluate_checkpoint(
    manifest_rows: list[ManifestRow],
    ckpt: Checkpoint,
    ccc_mode: str = "concat",
    threads: int = 1,
    batch_size: int = 32,
) -> EvalReport:
    """Score the manifest's validation split with a stored model."""
    val_rows = [r for r in manifest_rows if r.split == "val"]
    if not val_rows:
        raise ConfigError("manifest has no val rows to evaluate")
    model, stats = restore_model(ckpt)
    return _evaluate_rows(model, stats, val_rows, ccc_mode, batch_size, threads)


def predict(
    manifest_rows: list[ManifestRow],
    ckpt: Checkpoint,
    out_dir,
    threads: int = 1,
    batch_size: int = 32,
) -> dict[str, Path]:
    """Write one ``<video_id>.csv`` of frame predictions per manifest row.

    Rows stream one at a time: each video is loaded, predicted, written and
    dropped before the next, so memory does not grow with the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, stats = restore_model(ckpt)
    modalities = model.config.modalities()
    written: dict[str, Path] = {}
    for video in _stream_videos(manifest_rows, modalities, need_labels=False, threads=threads):
        frames = predict_video(model, video, batch_size, stats=stats)
        path = out_dir / f"{video.row.video_id}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("frame,valence,arousal\n")
            for i, (v, a) in enumerate(frames):
                fh.write(f"{i},{float(v)!r},{float(a)!r}\n")
        written[video.row.video_id] = path
    return written
