"""Training loop, checkpoint assembly, evaluation, and prediction export.

A training run is one ``_Run``: the config, the train split's normalization
statistics and window index, the shuffle generator ``root_rng``, the model,
its optimizer, the epochs completed, the best mean val CCC and the history
lines. ``_start_run`` checks every train and val file once, 64 rows at a
time (``dataset.file_track``), and builds the run, drawing the model seed
from ``root_rng`` before any permutation; the first train row's files set
each modality's input width (evaluation and prediction take the
checkpoint's). It keeps no feature data: the statistics are read from the
files 64 rows at a time, and the window index (``dataset.train_windows``)
is a ``(video, start)`` pair of int32 per window over the files and the
split's labels. ``_epoch`` shuffles the index with ``root_rng``, derives
each batch's rows, targets and mask from its pairs, reads its windows from
the files (``gather_windows``), z-scores them, runs masked-MSE backprop,
clips the gradients and applies RMSprop. So training memory is the model,
its gradients and optimizer caches and one batch, plus the index's 8 bytes
a window and 17 bytes a train frame. A train file that is replaced,
rewritten, touched or removed during the run fails the next batch that
reads it with FileFormatError (exit 2). ``_validate_and_keep`` then scores
the validation split, rewrites ``history.csv`` whole with the epoch's line
added and saves ``best.ckpt`` on a strictly higher mean CCC. ``train`` drops
the run before it reloads ``best.ckpt``, so the reload adds no peak memory.
Every file a run, ``predict`` or ``extract-audio`` leaves is written by
``dataset.replace_file``, which replaces it whole or not at all and makes
its directory, so a killed or failed write leaves the previous file.

Validation and evaluation go one video at a time (check, predict, drop);
``predict`` first checks every row's files, keeping one ``FileTrack`` per
file, so a bad file writes nothing. Scoring reads each batch's frames from
the files, so its memory does not grow with a video's length, and a file
changed after its check fails the batch that reads it. It hands the model
one z-scored frame block per batch and modality, at least ``SEQUENCE_LEN``
frames long, so each branch's first layer projects a frame once (see
``predict_video``). Every video is checked in row order on the calling
thread, so with a fixed seed and BLAS thread count the whole trajectory is
bit-for-bit reproducible. Nothing here starts a thread or takes a thread
count; the CLI's reserved count is checked there and goes no further.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataset import (
    SEQUENCE_LEN,
    FileTrack,
    LabelTrack,
    ManifestRow,
    NormalizationStats,
    WindowIndex,
    build_windows,
    compute_stats,
    file_track,
    frame_block,
    gather_windows,
    load_labels,
    merge_window_predictions,
    replace_file,
    train_windows,
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


@dataclass
class VideoData:
    """One manifest row's checked feature files and its labels."""

    row: ManifestRow
    features: dict[str, FileTrack]
    labels: LabelTrack | None


# Per modality, the input width every feature file must have and what set it
# (``dataset.file_track``'s ``expect``), or None where nothing has set it yet.
_Widths = dict[str, tuple[int, str] | None]


def _load_video(row: ManifestRow, widths: _Widths, need_labels: bool) -> VideoData:
    """Check one row's file of each modality in ``widths`` (``file_track``, a chunk of rows at a time).

    With ``need_labels``, the row's labels are loaded too and must cover its
    frames; without, its label file is not read, and ``labels`` is None.
    """
    features = {}
    for modality, expect in widths.items():
        path = row.features.get(modality)
        if path is None:
            raise CoverageError(f"{row.video_id}: manifest has no {modality} feature file")
        track = file_track(path, modality, video_id=row.video_id, expect=expect)
        if track.n_frames != row.n_frames:
            raise DomainError(
                f"{row.video_id}: {modality} track has {track.n_frames} frames, "
                f"manifest declares {row.n_frames}"
            )
        features[modality] = track
    if not need_labels:
        return VideoData(row=row, features=features, labels=None)
    if row.label_path is None:
        raise CoverageError(f"{row.video_id}: split requires labels but manifest has none")
    labels = load_labels(row.label_path, video_id=row.video_id)
    if labels.n_frames != row.n_frames:
        raise DomainError(
            f"{row.video_id}: labels have {labels.n_frames} frames, "
            f"manifest declares {row.n_frames}"
        )
    return VideoData(row=row, features=features, labels=labels)


def predict_video(
    model: Model, video: VideoData, batch_size: int = 32, *, stats: NormalizationStats
) -> np.ndarray:
    """Frame-level [n_frames x 2] predictions via windowing and overlap merge.

    ``video`` holds the checked files. Each batch of windows reads one
    frame block per modality from its file, z-scored with ``stats``
    (``frame_block``): the frames from the batch's first row to its last,
    and never fewer than ``SEQUENCE_LEN`` (clamped to the last frame, as
    window rows are), so memory holds one batch's blocks however long the
    video is. ``Model.forward`` takes the block and the windows' rows into
    it, so each branch's first layer projects a frame once however many
    windows hold it. The floor keeps each first-layer GEMM at or above one
    window's row count, the least a per-window product has; with fewer rows
    BLAS may pick another kernel and move low bits. A video shorter than a
    window gets its single window as the block.
    """
    rows = build_windows(video.features).rows
    batches = [rows[i : i + batch_size] for i in range(0, len(rows), batch_size)]
    # one buffer per modality, as long as the longest block and as wide as its file, which
    # every batch refills: a new block per batch would take fresh pages from the heap each time
    longest = max(max(batch.max() - batch.min() + 1, SEQUENCE_LEN) for batch in batches)
    modalities = model.config.modalities()
    buffers = {m: np.empty((longest, video.features[m].width)) for m in modalities}
    pred = []
    for batch in batches:
        lo = batch.min()
        length = max(batch.max() - lo + 1, SEQUENCE_LEN)
        frames = {m: frame_block(video.features[m], lo, stats, buffers[m][:length]) for m in modalities}
        pred.append(model.forward(frames, train=False, rows=batch - lo))
    del frames, buffers  # the blocks go before the merge allocates
    return merge_window_predictions(rows, np.concatenate(pred), video.row.n_frames)


def _checkpoint_widths(model: Model, ckpt: Checkpoint) -> _Widths:
    """The input width of each modality the restored ``model`` reads, set by ``ckpt``."""
    source = f"the checkpoint {ckpt.path}" if ckpt.path else "the checkpoint"
    return {m: (model.config.input_dim(m), source) for m in model.config.modalities()}


def _evaluate_videos(
    model: Model, stats: NormalizationStats, videos, ccc_mode: str, batch_size: int
) -> EvalReport:
    """Score the labelled ``videos`` (VideoData, in order) from their frame predictions."""
    predictions: dict[str, np.ndarray] = {}
    labels: dict[str, LabelTrack] = {}
    for video in videos:
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

    The model's input widths are those of the first train row's feature
    files, whatever ``config.model`` says (see ``_start_run``). Returns the
    best checkpoint (reloaded from disk, so its tensors carry exactly the
    stored float32 values) and the history rows.
    """
    out_dir = Path(out_dir)
    train_rows = [r for r in manifest_rows if r.split == "train"]
    val_rows = [r for r in manifest_rows if r.split == "val"]
    if not train_rows:
        raise ConfigError("manifest has no train rows")
    if not val_rows:
        raise ConfigError("manifest has no val rows")
    run = _start_run(train_rows, val_rows, config)
    # the first save makes out_dir, so a run that fails its split checks or a video load leaves none
    save_checkpoint(out_dir / "best.ckpt", _make_checkpoint(run.model, run.stats, 0, None, config.seed))
    _write_history(out_dir, run.history)
    while run.epoch < config.epochs:
        _validate_and_keep(run, out_dir, _epoch(run))
    history = run.history
    del run  # the model and optimizer go before the reload, so it adds no peak
    return load_checkpoint(out_dir / "best.ckpt"), history


@dataclass
class _Run:
    """One training run between epochs: what ``_epoch`` and ``_validate_and_keep`` advance."""

    config: TrainConfig
    stats: NormalizationStats
    windows: WindowIndex  # its two int32 arrays are the run's only per-window data
    val_videos: list[VideoData]  # the checked val files, scored after every epoch
    root_rng: np.random.Generator  # draws the model seed, then one permutation per shuffled epoch
    model: Model
    optimizer: RMSprop
    epoch: int = 0  # epochs completed
    best_score: float = -math.inf  # the mean val CCC of best.ckpt
    history: list[str] = field(default_factory=list)


def _start_run(train_rows, val_rows, config: TrainConfig) -> _Run:
    """Check the splits, fix the train split's statistics and windows, and build the seeded model.

    Each train and val file is checked a chunk of rows at a time
    (``file_track``) and kept as a ``FileTrack``, so no video is held whole,
    and a val video that cannot load fails here, before training. The first
    train row's file of each modality sets that modality's width in the run's
    model config; every later train or val file of another width fails its
    check, in row order, before its payload is read.
    """
    first = _load_video(train_rows[0], dict.fromkeys(config.model.modalities()), True)
    widths = {m: (track.width, str(track.path)) for m, track in first.features.items()}
    config = replace(config, model=replace(config.model, **{f"{m}_dim": w for m, (w, _) in widths.items()}))
    train_videos = [first] + [_load_video(row, widths, True) for row in train_rows[1:]]
    val_videos = [_load_video(row, widths, True) for row in val_rows]
    stats = compute_stats([t for v in train_videos for t in v.features.values()])
    windows = train_windows([(v.features, v.labels) for v in train_videos])
    if not len(windows):
        raise ConfigError("training split contains no window with a valid label")
    root_rng = np.random.default_rng(config.seed)
    model = build(config.model, seed=int(root_rng.integers(2**63)))
    optimizer = RMSprop(model.params, model.grad_arena, lr=config.learning_rate)
    return _Run(config, stats, windows, val_videos, root_rng, model, optimizer)


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


def _write_history(out_dir: Path, history: list[str]) -> None:
    """Replace ``history.csv`` with its header and the ``history`` lines (``replace_file``)."""
    lines = [HISTORY_HEADER, *history]
    replace_file(out_dir / "history.csv", [(line + "\n").encode("utf-8") for line in lines])


def _validate_and_keep(run: _Run, out_dir: Path, train_loss: float) -> None:
    """Score the val split and rewrite ``history.csv`` with the epoch's line added.

    ``best.ckpt`` is saved again only when the mean CCC is strictly higher
    than every earlier epoch's, so a tie keeps the earlier epoch.
    """
    config = run.config
    report = _evaluate_videos(run.model, run.stats, run.val_videos, config.ccc_mode, config.batch_size)
    line = _history_line(run.epoch, train_loss, report)
    run.history.append(line)
    _write_history(out_dir, run.history)
    if report.mean_ccc() > run.best_score:
        run.best_score = report.mean_ccc()
        ckpt = _make_checkpoint(run.model, run.stats, run.epoch, run.best_score, config.seed)
        save_checkpoint(out_dir / "best.ckpt", ckpt)


def _check_inference_options(batch_size: int) -> None:
    """Validate the scoring options."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be ≥ 1, got {batch_size}")


def evaluate_checkpoint(
    manifest_rows: list[ManifestRow],
    ckpt: Checkpoint,
    ccc_mode: str = "concat",
    batch_size: int = 32,
) -> EvalReport:
    """Score the manifest's validation split with a stored model."""
    _check_inference_options(batch_size)
    val_rows = [r for r in manifest_rows if r.split == "val"]
    if not val_rows:
        raise ConfigError("manifest has no val rows to evaluate")
    model, stats = restore_model(ckpt)
    widths = _checkpoint_widths(model, ckpt)
    videos = (_load_video(row, widths, True) for row in val_rows)
    return _evaluate_videos(model, stats, videos, ccc_mode, batch_size)


def predict(
    manifest_rows: list[ManifestRow],
    ckpt: Checkpoint,
    out_dir,
    batch_size: int = 32,
) -> dict[str, Path]:
    """Write one ``<video_id>.csv`` of frame predictions per manifest row.

    Every row's feature files are checked, and only their ``FileTrack``s
    kept, before the first video is read a batch at a time, predicted and
    written; no label file is read. So a bad feature file in any row writes
    nothing, and memory does not grow with a video's length. Each CSV
    replaces its target whole (``replace_file``), and the first one makes
    ``out_dir``: a run that fails before then, or has no row, leaves no
    directory.
    """
    _check_inference_options(batch_size)
    model, stats = restore_model(ckpt)
    out_dir = Path(out_dir)
    widths = _checkpoint_widths(model, ckpt)
    videos = [_load_video(row, widths, False) for row in manifest_rows]
    written: dict[str, Path] = {}
    for video in videos:
        frames = predict_video(model, video, batch_size, stats=stats)
        path = out_dir / f"{video.row.video_id}.csv"
        lines = (f"{i},{float(v)!r},{float(a)!r}\n".encode("utf-8") for i, (v, a) in enumerate(frames))
        replace_file(path, itertools.chain([b"frame,valence,arousal\n"], lines))  # streamed, a line a write
        written[video.row.video_id] = path
    return written
