"""Training loop, checkpoint assembly, evaluation, and prediction export.

A training run is one ``_Run``: the config, the normalization statistics and
window index of the train split, the shuffle generator ``root_rng``, the model,
its optimizer, the epochs completed, the best mean val CCC and the history
lines. ``_start_run`` checks every train and val file once, as any load
does, and builds the run, drawing the model seed from ``root_rng`` before any
permutation. It keeps no feature data: the window index refers to the train
split's files (``dataset.FileTrack``), and the statistics are read from them
64 rows at a time. ``_epoch`` advances the run by one pass: it shuffles the
window index with ``root_rng``, reads each batch's windows from the feature
files (each file opened at most once a batch and closed before the next),
z-scores them, runs masked-MSE backprop, clips the gradients and applies
RMSprop. So training memory is the model, its gradients and optimizer caches
and one batch, however large the train split is. A train file that is
replaced, rewritten, touched or removed during the run fails the next batch
that reads it with FileFormatError (exit 2). ``_validate_and_keep`` then
scores the validation split from overlap-merged frame predictions, appends
the epoch's ``history.csv`` line and saves ``best.ckpt`` on a strictly
higher mean CCC. ``train`` drops the run before it reloads ``best.ckpt``, so
the reload adds no peak memory.

Validation, evaluation and prediction stream the manifest one video at a time
(load, predict, drop), so their memory does not grow with its length. They
hand the model one z-scored frame block per batch and modality instead of
gathered windows, at least ``SEQUENCE_LEN`` frames long, so each branch's
first layer projects a frame once (see ``predict_video``). With a fixed seed
and a fixed BLAS thread count the whole trajectory is bit-for-bit
reproducible; worker threads only load videos ahead, never run the optimizer
step.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataset import (
    SEQUENCE_LEN,
    LabelTrack,
    ManifestRow,
    NormalizationStats,
    RowSource,
    WindowIndex,
    build_windows,
    compute_stats,
    concat_windows,
    file_track,
    gather_windows,
    load_feature_track,
    load_labels,
    merge_window_predictions,
    normalize,
)
from .errors import ConfigError, CoverageError, DomainError, FileFormatError, NumericFaultError
from .metrics import CCC_MODES, EvalReport, evaluate
from .model import Model, ModelConfig, build
from .nn import RMSprop, clip_global_norm, masked_mse, placeholder

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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ConfigError(f"clip_norm must be finite and ≥ 0 (0 disables), got {self.clip_norm}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be ≥ 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be ≥ 0, got {self.epochs}")
        if self.ccc_mode not in CCC_MODES:
            raise ConfigError(f"unknown ccc_mode {self.ccc_mode!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be ≥ 1, got {self.threads}")


@dataclass
class VideoData:
    """One manifest row's feature tracks (float32 as read, or the checked files) and labels."""

    row: ManifestRow
    features: dict[str, RowSource]
    labels: LabelTrack | None


def _load_video(row: ManifestRow, modalities, need_labels: bool, on_disk: bool = False) -> VideoData:
    """Check and load one row's tracks and labels; ``on_disk`` keeps only the checked files."""
    load = file_track if on_disk else load_feature_track
    features = {}
    for modality in modalities:
        path = row.features.get(modality)
        if path is None:
            raise CoverageError(f"{row.video_id}: manifest has no {modality} feature file")
        track = load(path, modality, video_id=row.video_id)
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


def _stream_videos(rows, modalities, need_labels: bool, threads: int, on_disk: bool = False):
    """Yield each row's VideoData (``_load_video``) in row order.

    With ``threads`` > 1, worker threads load at most ``threads`` videos ahead
    of the one the caller holds, and never more than the machine has cores
    (``os.cpu_count()``), so memory stays bounded by a few videos.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads == 1 or len(rows) < 2:
        for row in rows:
            yield _load_video(row, modalities, need_labels, on_disk)
        return
    # imported here, not at module load: with the logging it loads, concurrent.futures
    # adds milliseconds to every process's start, and a one-thread run starts no pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for row in rows:
            ahead.append(pool.submit(_load_video, row, modalities, need_labels, on_disk))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def predict_video(
    model: Model, video: VideoData, batch_size: int = 32, *, stats: NormalizationStats
) -> np.ndarray:
    """Frame-level [n_frames x 2] predictions via windowing and overlap merge.

    ``video`` holds the tracks as loaded. Each batch of windows reads one
    frame block per modality, z-scored with ``stats``: the frames from the
    batch's first row to its last, and never fewer than ``SEQUENCE_LEN``
    (clamped to the last frame, as window rows are). ``Model.forward`` takes
    the block and the windows' rows into it, so each branch's first layer
    projects a frame once however many windows hold it. The floor keeps
    each first-layer GEMM at or above one window's row count, the least a
    per-window product has; with fewer rows BLAS may pick another kernel and
    move low bits. A video shorter than a window gets its single window as
    the block.
    """
    windows = build_windows(video.features)
    last = video.row.n_frames - 1
    pred = []
    for i in range(0, len(windows), batch_size):
        rows = windows.rows[i : i + batch_size]
        lo, hi = rows.min(), rows.max()
        block = np.minimum(np.arange(lo, lo + max(hi - lo + 1, SEQUENCE_LEN)), last)
        frames = {m: normalize(video.features[m].data[block], m, stats) for m in model.config.modalities()}
        pred.append(model.forward(frames, train=False, rows=rows - lo))
    return merge_window_predictions(windows.rows, np.concatenate(pred), video.row.n_frames)


def _evaluate_rows(
    model: Model, stats: NormalizationStats, rows, ccc_mode: str, batch_size: int, threads: int
) -> EvalReport:
    predictions: dict[str, np.ndarray] = {}
    labels: dict[str, LabelTrack] = {}
    for video in _stream_videos(rows, model.config.modalities(), need_labels=True, threads=threads):
        predictions[video.row.video_id] = predict_video(model, video, batch_size, stats=stats)
        labels[video.row.video_id] = video.labels
    return evaluate(predictions, labels, ccc_mode=ccc_mode)


# The tensor groups a checkpoint's model layout owns; a restore ignores any other
# group (the ``optim/`` caches of older files).
_LAYOUT_GROUPS = ("param/", "state/", "norm/")


def _slots(model: Model, stats: NormalizationStats) -> list[tuple[str, dict, str]]:
    """The checkpoint layout: (stored name, dict, key) for each tensor it holds.

    ``param/`` and ``state/`` entries are the model's registry (``Model.slots``),
    ``norm/<modality>/mean|std`` the normalization statistics of each modality
    the model reads. A save reads the tensors through these entries and a
    restore installs them through them, so a restore accepts exactly the
    names a save writes.
    """
    slots = list(model.slots)
    for modality in model.config.modalities():
        slots.append((f"norm/{modality}/mean", stats.mean, modality))
        slots.append((f"norm/{modality}/std", stats.std, modality))
    return slots


def _make_checkpoint(
    model: Model,
    stats: NormalizationStats,
    epoch: int,
    best_val_score: float | None,
    seed: int,
) -> Checkpoint:
    tensors = {name: holder[key] for name, holder, key in _slots(model, stats)}
    config = {
        "model": model.config.to_dict(),
        "epoch": epoch,
        "best_val_score": best_val_score,
        "seed": seed,
    }
    return Checkpoint(config=config, tensors=tensors)


def restore_model(ckpt: Checkpoint) -> tuple[Model, NormalizationStats]:
    """Rebuild the model and normalization statistics stored in a checkpoint.

    The stored ``param/``, ``state/`` and ``norm/`` names must equal the
    layout of the configured model (``_slots``) and each shape must match, or
    FileFormatError names the first tensor that does not fit; other groups
    are ignored. The model is built uninitialized, with placeholder kernels
    and statistics that hold no memory, since every tensor is then installed
    from the checkpoint: a float64 tensor as it is, shared with ``ckpt`` and
    not copied, other dtypes converted. So a stored shape is checked before
    anything of the config's size is allocated. The model makes its gradient
    arena and dropout generator only if it trains.
    """
    config = ckpt.model_config()
    model = Model(config, seed=ckpt.seed, init=False)
    stats = NormalizationStats()
    for modality in config.modalities():
        stats.mean[modality] = stats.std[modality] = placeholder(config.input_dim(modality))
    slots = _slots(model, stats)
    names = {name for name, _, _ in slots}
    stored = {name for name in ckpt.tensors if name.startswith(_LAYOUT_GROUPS)}
    if stored != names:
        raise FileFormatError(
            "checkpoint tensors do not match the model "
            f"(missing {sorted(names - stored)}, unexpected {sorted(stored - names)})"
        )
    for name, holder, key in slots:
        value = ckpt.tensors[name]
        if value.shape != holder[key].shape:
            raise FileFormatError(
                f"checkpoint tensor {name} has shape {value.shape}, model expects {holder[key].shape}"
            )
        holder[key] = value.astype(np.float64, copy=False)
    return model, stats


def _history_line(epoch: int, train_loss: float, report: EvalReport) -> str:
    scores = (train_loss, report.ccc_valence, report.ccc_arousal, report.mse_valence, report.mse_arousal)
    return ",".join([str(epoch), *(repr(float(v)) for v in scores)])


def train(manifest_rows: list[ManifestRow], config: TrainConfig, out_dir) -> tuple[Checkpoint, list[str]]:
    """Train per the config; writes ``best.ckpt`` and ``history.csv`` under ``out_dir``.

    Returns the best checkpoint (reloaded from disk, so its tensors carry
    exactly the stored float32 values) and the history rows.
    """
    out_dir = Path(out_dir)
    train_rows = [r for r in manifest_rows if r.split == "train"]
    val_rows = [r for r in manifest_rows if r.split == "val"]
    if not train_rows:
        raise ConfigError("manifest has no train rows")
    if not val_rows:
        raise ConfigError("manifest has no val rows")
    run = _start_run(train_rows, val_rows, config)
    # only now, so a run that fails its split checks or a video load leaves no empty directory
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "best.ckpt", _make_checkpoint(run.model, run.stats, 0, None, config.seed))
    (out_dir / "history.csv").write_text(HISTORY_HEADER + "\n", encoding="utf-8", newline="")
    while run.epoch < config.epochs:
        _validate_and_keep(run, val_rows, out_dir, _epoch(run))
    history = run.history
    del run  # the model and optimizer go before the reload, so it adds no peak
    return load_checkpoint(out_dir / "best.ckpt"), history


@dataclass
class _Run:
    """One training run between epochs: what ``_epoch`` and ``_validate_and_keep`` advance."""

    config: TrainConfig
    stats: NormalizationStats
    windows: WindowIndex
    root_rng: np.random.Generator  # draws the model seed, then one permutation per shuffled epoch
    model: Model
    optimizer: RMSprop
    epoch: int = 0  # epochs completed
    best_score: float = -math.inf  # the mean val CCC of best.ckpt
    history: list[str] = field(default_factory=list)


def _start_run(train_rows, val_rows, config: TrainConfig) -> _Run:
    """Check the splits, fix the train split's statistics and windows, and build the seeded model.

    Each train file is checked whole, then dropped: the run keeps a
    ``FileTrack`` per file, and each batch reads its windows from the files.
    """
    modalities = config.model.modalities()
    train_videos = list(
        _stream_videos(train_rows, modalities, need_labels=True, threads=config.threads, on_disk=True)
    )
    # Validation rereads its videos every epoch; a val video that cannot load
    # fails here, before training, as well.
    for _ in _stream_videos(val_rows, modalities, need_labels=True, threads=config.threads):
        pass
    stats = compute_stats([t for v in train_videos for t in v.features.values()])
    windows = concat_windows([build_windows(v.features, v.labels) for v in train_videos])
    windows = windows.select(windows.mask.any(axis=1))  # a window with no valid frame contributes no gradient
    if not len(windows):
        raise ConfigError("training split contains no window with a valid label")
    root_rng = np.random.default_rng(config.seed)
    model = build(config.model, seed=int(root_rng.integers(2**63)))
    optimizer = RMSprop(model.params, model.grad_arena, lr=config.learning_rate)
    return _Run(config, stats, windows, root_rng, model, optimizer)


def _epoch(run: _Run) -> float:
    """One pass over the train windows, shuffled if the config says so; returns the train loss."""
    config, windows, model = run.config, run.windows, run.model
    run.epoch += 1
    order = run.root_rng.permutation(len(windows)) if config.shuffle else np.arange(len(windows))
    total_sq, total_count = 0.0, 0
    for batch_no, batch_start in enumerate(range(0, len(order), config.batch_size)):
        batch = windows.select(order[batch_start : batch_start + config.batch_size])
        inputs = {m: gather_windows(batch, m, run.stats) for m in config.model.modalities()}
        try:
            model.zero_grads()
            pred = model.forward(inputs, train=True)
            loss, d_pred = masked_mse(pred, batch.targets, batch.mask)
            model.backward(d_pred, input_grads=False)
            if config.clip_norm > 0:
                clip_global_norm(model.grads, config.clip_norm)
            run.optimizer.step()
        except NumericFaultError as exc:
            raise NumericFaultError(f"epoch {run.epoch} batch {batch_no}: {exc}") from exc
        count = int(batch.mask.sum()) * 2
        total_sq += loss * count
        total_count += count
        del batch, inputs, pred, d_pred  # free before the next batch is gathered
    return total_sq / total_count


def _validate_and_keep(run: _Run, val_rows, out_dir: Path, train_loss: float) -> None:
    """Score the val split and append the epoch's ``history.csv`` line.

    ``best.ckpt`` is saved again only when the mean CCC is strictly higher
    than every earlier epoch's, so a tie keeps the earlier epoch.
    """
    config = run.config
    report = _evaluate_rows(run.model, run.stats, val_rows, config.ccc_mode, config.batch_size, config.threads)
    line = _history_line(run.epoch, train_loss, report)
    run.history.append(line)
    with open(out_dir / "history.csv", "a", encoding="utf-8", newline="") as fh:
        fh.write(line + "\n")
    if report.mean_ccc() > run.best_score:
        run.best_score = report.mean_ccc()
        ckpt = _make_checkpoint(run.model, run.stats, run.epoch, run.best_score, config.seed)
        save_checkpoint(out_dir / "best.ckpt", ckpt)


def _check_inference_options(threads: int, batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be ≥ 1, got {batch_size}")
    if threads < 1:
        raise ConfigError(f"threads must be ≥ 1, got {threads}")


def evaluate_checkpoint(
    manifest_rows: list[ManifestRow],
    ckpt: Checkpoint,
    ccc_mode: str = "concat",
    threads: int = 1,
    batch_size: int = 32,
) -> EvalReport:
    """Score the manifest's validation split with a stored model."""
    _check_inference_options(threads, batch_size)
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
    _check_inference_options(threads, batch_size)
    model, stats = restore_model(ckpt)
    # only after the restore, so a checkpoint that does not fit leaves no empty directory
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
