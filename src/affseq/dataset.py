"""Per-frame feature and label ingestion, windowing, and overlap merging.

Feature matrices live in a small binary container (magic ``AFFW``); labels and
manifests are CSV. A feature file is checked once (``file_track``: header,
size, modality, columns, finite values) and then kept as a ``FileTrack``:
where the checked file is and its width, not its rows. One method,
``FileTrack.chunks``, reads every payload ``_READ_ROWS`` rows at a time,
the check's included, and refuses a file changed since its check. A file's
width is the column count in its header; no table fixes it, and a reader
given files, a buffer or statistics of unequal widths raises
WidthMismatchError naming the file. ``load_feature_track`` is a checked
file's rows read whole, as a ``FeatureTrack``. A window of ``SEQUENCE_LEN``
frames (``SEQUENCE_OVERLAP`` frames of overlap) is a row of frame indices,
and every stage after checking works on those integer rows plus arrays.
``frame_block`` reads a block of frames from a file and z-scores it with
statistics drawn from the training split only: scoring reads a batch's
frames as one block, and a training batch (``gather_windows``) is a stack
of one block per window. The windows' predictions merge back to
frame level by averaging, for each frame, every window position that holds
it.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AffseqError,
    CoverageError,
    DomainError,
    FileFormatError,
    ParseError,
    TruncatedFileError,
    VersionMismatchError,
    WidthMismatchError,
)

# The manifest's modalities, in column order, and the default width of each: the
# widths of the paper's features, which ``ModelConfig`` starts from. A feature
# file's own width is the one in its header.
MODALITY_DIMS = {"audio": 168, "expnet": 2048, "facepose": 714}

SEQUENCE_LEN = 15
SEQUENCE_OVERLAP = 5

FEATURE_MAGIC = b"AFFW"
FEATURE_VERSION = 1

LABEL_HEADER = ["frame", "valence", "arousal"]
MANIFEST_HEADER = ["video_id", "split", *(f"{m}_path" for m in MODALITY_DIMS), "label_path", "n_frames"]

_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureTrack:
    """A feature file's rows, read whole by ``load_feature_track``: float32 [n_frames x width]."""

    video_id: str
    modality: str
    data: np.ndarray


@dataclass(frozen=True)
class FileTrack:
    """A checked AFFW feature file whose rows are read back from disk on demand.

    It holds no feature data (see ``file_track``). ``width`` is the column
    count of its header. ``stamp`` is the file's device, inode, size and
    mtime in ns from before it was checked; the file must still match it
    whenever ``chunks`` opens it and after its last chunk, so no row is read
    from bytes that were not checked.
    """

    video_id: str
    modality: str
    path: Path
    n_frames: int
    width: int
    stamp: tuple[int, int, int, int]

    dtype = np.dtype("<f4")  # the stored rows, as ``chunks`` reads them

    def chunks(self, lo: int, stop: int, buf: np.ndarray):
        """Yield ``(start, rows)`` over rows ``lo`` to ``stop - 1``, ``_READ_ROWS`` rows at a time.

        The one reader of a payload. Each chunk is read into the head of
        ``buf`` (C-contiguous float32 of the file's width, at least
        ``min(stop - lo, _READ_ROWS)`` rows), which the next chunk
        overwrites. The file is open only while the chunks are taken: a
        consumer that stops early closes it when it drops the generator.
        """
        self.check_width(buf.shape[-1], "the read buffer")
        try:
            fh = open(self.path, "rb")
        except OSError as exc:
            raise self._changed(exc.strerror) from None
        with fh:
            self._check(fh)
            for start in range(lo, stop, _READ_ROWS):
                rows = buf[: min(stop - start, _READ_ROWS)]
                fh.seek(16 + start * 4 * self.width)
                if fh.readinto(rows) != rows.nbytes:
                    raise self._changed("short read")
                yield start, rows
            self._check(fh)  # bytes written while the rows were read fail here

    def _check(self, fh) -> None:
        if _stamp(os.fstat(fh.fileno())) != self.stamp:
            raise self._changed("replaced, rewritten or touched")

    def _changed(self, reason: str) -> FileFormatError:
        return FileFormatError(f"{self.path}: feature file changed after it was checked ({reason})")

    def check_width(self, width: int, of: str) -> None:
        """Raise WidthMismatchError naming this file unless ``width``, the width of ``of``, is its own."""
        if width != self.width:
            raise WidthMismatchError(
                f"{self.path}: {self.modality} width {self.width} does not match width {width} of {of}"
            )


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


@dataclass(frozen=True)
class LabelTrack:
    """Per-frame valence/arousal with a validity mask.

    Frames whose value falls outside [-1, 1] on either dimension (including
    the -5 sentinel for unannotated frames) are marked invalid.
    """

    video_id: str
    valence: np.ndarray
    arousal: np.ndarray
    valid: np.ndarray

    @property
    def n_frames(self) -> int:
        return len(self.valence)

    def targets(self) -> np.ndarray:
        return np.stack([self.valence, self.arousal], axis=1)


@dataclass
class NormalizationStats:
    """Per-modality column means and (floored) standard deviations."""

    mean: dict[str, np.ndarray] = field(default_factory=dict)
    std: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class ManifestRow:
    """One manifest line; ``features`` maps each modality whose cell is non-empty to its file."""

    video_id: str
    split: str
    features: dict[str, Path]
    label_path: Path | None
    n_frames: int


def write_feature_file(path, matrix) -> None:
    """Write a float matrix in the AFFW container (f32 little-endian, row-major)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DomainError(f"feature matrix must be 2-D, got shape {matrix.shape}")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, rows, cols))
        fh.write(matrix.astype("<f4").tobytes())


def _affw_shape(path, head: bytes, size: int) -> tuple[int, int]:
    """The ``(rows, cols)`` of an AFFW file of ``size`` bytes that starts with ``head``.

    Raises on a short header, a bad magic or version, and a payload that is
    shorter or longer than the header says.
    """
    if size < 16:
        raise TruncatedFileError(f"{path}: AFFW header needs 16 bytes, found {size}")
    if head[:4] != FEATURE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {head[:4]!r}, expected {FEATURE_MAGIC!r}")
    version, rows, cols = struct.unpack_from("<III", head, 4)
    if version != FEATURE_VERSION:
        raise VersionMismatchError(f"{path}: AFFW version {version}, expected {FEATURE_VERSION}")
    expected = 4 * rows * cols
    found = size - 16
    if found < expected:
        raise TruncatedFileError(f"{path}: expected {expected} payload bytes, found {found}")
    if found > expected:
        raise FileFormatError(f"{path}: {found - expected} trailing bytes after payload")
    return rows, cols


_READ_ROWS = 64  # rows per read when a file is checked or read back: the memory bound of each


def file_track(path, modality: str, video_id: str = "", expect: tuple[int, str] | None = None) -> FileTrack:
    """Check the AFFW file at ``path``, then keep only where it is.

    The header and size are checked first (``_affw_shape``), then that the
    modality is known (DomainError) and the file has a column
    (WidthMismatchError) and, with ``expect`` given as ``(width, source)``,
    that the header's width is ``width``, the width of ``source``
    (WidthMismatchError names both). Then the payload's finiteness is
    checked through ``FileTrack.chunks``, the reader every later read uses,
    into one reused buffer, so a check holds one chunk, not the file
    (DomainError). The file's identity is taken before it is read, so a
    change at any later time, even while it is being checked, makes
    ``chunks`` refuse it.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        rows, cols = _affw_shape(path, fh.read(16), st.st_size)
    if modality not in MODALITY_DIMS:
        raise DomainError(f"unknown modality {modality!r}")
    name = video_id or "<track>"
    if cols < 1:
        raise WidthMismatchError(f"{name}: {modality} feature track has no columns")
    track = FileTrack(video_id, modality, Path(path), rows, cols, _stamp(st))
    if expect is not None:
        track.check_width(*expect)
    for _, chunk in track.chunks(0, rows, np.empty((min(rows, _READ_ROWS), cols), dtype=track.dtype)):
        if not np.all(np.isfinite(chunk)):
            raise DomainError(f"{name}: feature track has non-finite entries")
    return track


def load_feature_track(path, modality: str, video_id: str = "") -> FeatureTrack:
    """The AFFW file at ``path``, checked (``file_track``), then its chunks copied into one array."""
    track = file_track(path, modality, video_id)
    data = np.empty((track.n_frames, track.width), dtype=track.dtype)
    for start, rows in track.chunks(0, track.n_frames, np.empty((_READ_ROWS, track.width), dtype=track.dtype)):
        data[start : start + len(rows)] = rows
    return FeatureTrack(video_id, modality, data)


def read_text(path, error: type[AffseqError]) -> str:
    """The UTF-8 text of the file at ``path``, less a leading byte-order mark.

    Spreadsheet programs often write that mark. Raises ``error`` naming the
    first line that is not UTF-8 or that holds a NUL, which no text input
    may contain.
    """
    blob = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: line is not valid UTF-8") from None
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise error(f"{path}:{line}: line contains NUL")
    return text


def _read_table(path, header: list[str], kind: str, empty: str):
    """Yield ``(line_no, cells)`` for each non-blank row of the CSV table at ``path``.

    The first row must equal ``header`` once its cells are stripped, and each
    later row must hold ``len(header)`` cells; line numbers count blank rows
    too, from 2. An empty file raises ``<path>: <empty>``. A leading UTF-8
    byte-order mark is skipped, and a file that is not UTF-8 or holds a NUL
    is refused (``read_text``).
    """
    reader = csv.reader(io.StringIO(read_text(path, FileFormatError), newline=""))
    try:
        first = next(reader)
    except StopIteration:
        raise FileFormatError(f"{path}: {empty}") from None
    if [h.strip() for h in first] != header:
        raise FileFormatError(f"{path}: {kind} header must be {','.join(header)}")
    for line_no, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise FileFormatError(f"{path}:{line_no}: expected {len(header)} fields, got {len(cells)}")
        yield line_no, cells


def load_labels(path, video_id: str = "") -> LabelTrack:
    """Read a ``frame,valence,arousal`` CSV with contiguous frame indices from 0."""
    valence, arousal = [], []
    for line_no, cells in _read_table(path, LABEL_HEADER, "label", "empty label file"):
        try:
            idx, v, a = int(cells[0]), float(cells[1]), float(cells[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: non-numeric field ({exc})") from None
        if idx != len(valence):
            raise FileFormatError(f"{path}:{line_no}: frame index {idx} out of order (expected {len(valence)})")
        valence.append(v)
        arousal.append(a)
    valence = np.asarray(valence)
    arousal = np.asarray(arousal)
    valid = (np.abs(valence) <= 1.0) & (np.abs(arousal) <= 1.0)
    return LabelTrack(video_id=video_id, valence=valence, arousal=arousal, valid=valid)


def _resolve(base: Path, cell: str) -> Path | None:
    """The path a manifest cell names, relative to ``base`` unless absolute; None if the cell is empty."""
    cell = cell.strip()
    return base / cell if cell else None


def load_manifest(path) -> list[ManifestRow]:
    """Read the corpus manifest; relative paths resolve against the manifest's directory.

    Each ``video_id`` must be unique and a plain file name (not empty, ``.``
    or ``..``, and without ``/``), since ``predict`` writes ``<video_id>.csv``.
    """
    base = Path(path).parent
    rows: list[ManifestRow] = []
    first_line: dict[str, int] = {}
    for line_no, cells in _read_table(path, MANIFEST_HEADER, "manifest", "empty manifest"):
        video_id, split = cells[0].strip(), cells[1].strip()
        if split not in ("train", "val"):
            raise FileFormatError(f"{path}:{line_no}: split must be train or val, got {split!r}")
        try:
            n_frames = int(cells[6])
        except ValueError:
            raise ParseError(f"{path}:{line_no}: non-numeric n_frames {cells[6]!r}") from None
        if n_frames < 1:
            raise FileFormatError(f"{path}:{line_no}: n_frames must be ≥ 1, got {n_frames}")
        if video_id in ("", ".", "..") or "/" in video_id:
            raise FileFormatError(f"{path}:{line_no}: video_id must be a plain file name, got {video_id!r}")
        if video_id in first_line:
            raise FileFormatError(
                f"{path}:{line_no}: video_id {video_id!r} repeats line {first_line[video_id]}"
            )
        first_line[video_id] = line_no
        features = {m: _resolve(base, cell) for m, cell in zip(MODALITY_DIMS, cells[2:5]) if cell.strip()}
        rows.append(ManifestRow(video_id, split, features, _resolve(base, cells[5]), n_frames))
    return rows


def window_starts(n_frames: int) -> list[int]:
    """Window start indices: a regular hop-10 grid plus an anchored final window.

    Tracks shorter than ``SEQUENCE_LEN`` get a single window at 0 (padded later).
    """
    if n_frames < 1:
        raise DomainError(f"n_frames must be ≥ 1, got {n_frames}")
    if n_frames <= SEQUENCE_LEN:
        return [0]
    starts = list(range(0, n_frames - SEQUENCE_LEN + 1, SEQUENCE_LEN - SEQUENCE_OVERLAP))
    last = n_frames - SEQUENCE_LEN
    if starts[-1] != last:
        starts.append(last)
    return starts


def window_rows(n_frames: int) -> np.ndarray:
    """[n_windows x SEQUENCE_LEN] frame rows of each window, in ``window_starts`` order.

    Rows past the track end clamp to its last frame, which is the
    edge-replicate padding of a track shorter than ``SEQUENCE_LEN``.
    """
    starts = np.asarray(window_starts(n_frames))
    return np.minimum(starts[:, None] + np.arange(SEQUENCE_LEN), n_frames - 1)


def _real_positions(rows: np.ndarray, n_frames: int) -> np.ndarray:
    """Mask [n x SEQUENCE_LEN] of the window positions that hold a real frame, not padding."""
    return rows[:, :1] + np.arange(rows.shape[1]) < n_frames


def _window_labels(
    rows: np.ndarray, n_frames: int, labels: LabelTrack | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Targets [n x SEQUENCE_LEN x 2] and mask [n x SEQUENCE_LEN] of the windows ``rows``.

    Padded positions get target 0 and are masked; without labels every real
    frame counts as valid.
    """
    real = _real_positions(rows, n_frames)
    if labels is None:
        return np.zeros(rows.shape + (2,)), real
    targets = np.where(real[..., None], labels.targets()[rows], 0.0)
    return targets, real & labels.valid[rows]


@dataclass(frozen=True, eq=False)
class WindowIndex:
    """Windows over aligned feature tracks as integer arrays; no feature data is copied.

    Window ``j`` covers frame rows ``rows[j]`` of the tracks ``tracks[video[j]]``
    (one ``{modality: FileTrack}`` per video); ``targets`` and ``mask`` come
    from that video's labels. ``select`` with a slice, index array or boolean
    mask gives a sub-index over the same tracks, and ``gather_windows`` reads
    a modality's feature rows for a batch of windows.
    """

    tracks: tuple[dict[str, FileTrack], ...]
    video: np.ndarray
    rows: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return len(self.video)

    def select(self, which) -> "WindowIndex":
        return WindowIndex(
            self.tracks, self.video[which], self.rows[which], self.targets[which], self.mask[which]
        )


def build_windows(features: dict[str, FileTrack], labels: LabelTrack | None = None) -> WindowIndex:
    """Window aligned tracks by frame rows; short tracks edge-replicate and mask."""
    if not features:
        raise DomainError("at least one feature modality is required")
    lengths = {m: t.n_frames for m, t in features.items()}
    n_frames = next(iter(lengths.values()))
    if any(n != n_frames for n in lengths.values()):
        raise DomainError(f"feature tracks disagree on frame count: {lengths}")
    if labels is not None and labels.n_frames != n_frames:
        raise DomainError(
            f"labels have {labels.n_frames} frames but features have {n_frames}"
        )
    rows = window_rows(n_frames)
    targets, mask = _window_labels(rows, n_frames, labels)
    return WindowIndex((features,), np.zeros(len(rows), dtype=np.intp), rows, targets, mask)


def concat_windows(parts: list[WindowIndex]) -> WindowIndex:
    """One index over every window of ``parts``, in order."""
    tracks: list[dict[str, FileTrack]] = []
    columns = []
    for part in parts:
        columns.append((part.video + len(tracks), part.rows, part.targets, part.mask))
        tracks.extend(part.tracks)
    return WindowIndex(tuple(tracks), *(np.concatenate(column) for column in zip(*columns)))


def compute_stats(tracks: list[FileTrack]) -> NormalizationStats:
    """Column mean/std per modality over the concatenated rows of ``tracks``.

    Standard deviations are population (1/N) and floored at 1e-8. The result
    has the bits of ``stacked.mean(0)`` and ``stacked.std(0)`` over the rows
    widened to float64 and stacked in track order, but no stacked copy is
    made: two passes over the rows (the sum, then the squared deviations from
    the mean, as ``np.std`` does) each read and widen ``_READ_ROWS``
    rows at a time (see ``_sum_rows``), so each file is read twice and never
    held whole. The tracks of a modality must share one width
    (WidthMismatchError names the first file that does not).
    """
    if not tracks:
        raise DomainError("cannot compute normalization statistics from zero tracks")
    stats = NormalizationStats()
    by_modality: dict[str, list[FileTrack]] = {}
    for track in tracks:
        by_modality.setdefault(track.modality, []).append(track)
    for modality, sources in by_modality.items():
        n = sum(source.n_frames for source in sources)
        if n == 0:
            raise DomainError(f"cannot compute {modality} normalization statistics from zero rows")
        mean = _sum_rows(sources, np.copyto) / n

        def squared_deviations(out, rows):
            np.subtract(rows, mean, out=out)
            np.square(out, out=out)

        stats.mean[modality] = mean
        stats.std[modality] = np.maximum(np.sqrt(_sum_rows(sources, squared_deviations) / n), _STD_FLOOR)
    return stats


def _sum_rows(sources: list[FileTrack], put) -> np.ndarray:
    """Column sums of ``put(out, rows)`` over the sources' rows, in chunks of at most ``_READ_ROWS`` rows.

    NumPy reduces a C-contiguous [rows x width] array over axis 0 by adding
    whole rows in order; its pairwise summation runs only along the
    contiguous axis. So the running sum, carried in as row 0 above the next
    chunk, continues the very additions of one ``sum(axis=0)`` over every
    row stacked, for any width above 1 (one column may be summed pairwise).
    """
    first = sources[0]
    for source in sources[1:]:
        source.check_width(first.width, first.path)
    buf = np.empty((_READ_ROWS + 1, first.width))
    chunk = np.empty((_READ_ROWS, first.width), dtype=FileTrack.dtype)  # each read, as stored
    total = None
    for source in sources:
        for _, rows in source.chunks(0, source.n_frames, chunk):
            put(buf[1 : len(rows) + 1], rows)
            if total is None:
                total = np.add.reduce(buf[1 : len(rows) + 1], axis=0)
            else:
                buf[0] = total
                total = np.add.reduce(buf[: len(rows) + 1], axis=0)
    return total


def normalize(data: np.ndarray, modality: str, stats: NormalizationStats, *, out=None) -> np.ndarray:
    """Z-score ``data`` (last axis = features) with ``modality``'s training-split statistics.

    Returns a new float64 array, or writes ``out`` (float64, the shape of
    ``data``) and returns it. The arithmetic is float64 whatever the dtype
    of ``data``, so float32 rows give the bits of their widened float64 copy.
    """
    if modality not in stats.mean:
        raise DomainError(f"no normalization statistics for modality {modality!r}")
    mean = stats.mean[modality].astype(np.float64, copy=False)
    if mean.shape != (data.shape[-1],):
        raise DomainError(f"stats width {mean.shape} does not match feature width {data.shape[-1]}")
    out = np.subtract(data, mean, out=out)
    out /= np.maximum(stats.std[modality], _STD_FLOOR)
    return out


def gather_windows(windows: WindowIndex, modality: str, stats: NormalizationStats) -> np.ndarray:
    """Z-scored float64 batch [B x SEQUENCE_LEN x width] of ``modality`` over ``windows``.

    Window ``j`` of the batch is the frame block (``frame_block``) of its
    video's file from its first row, so a track shorter than
    ``SEQUENCE_LEN`` repeats its last frame as ``window_rows`` clamps, and
    the batch is bit-equal to stacking windows cut from normalized float64
    tracks. Each window's file is opened for its read and closed before the
    next, and besides the batch only one window's rows, as stored, are
    held. The batch is as wide as the index's first file; each window's
    ``frame_block`` refuses a file of another width than the statistics or
    the batch, naming it. An empty index gives an empty batch.
    """
    out = np.empty(windows.rows.shape + (windows.tracks[0][modality].width,))
    for block, v, lo in zip(out, windows.video, windows.rows[:, 0]):
        frame_block(windows.tracks[v][modality], lo, stats, block)
    return out


def frame_block(track: FileTrack, lo: int, stats: NormalizationStats, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (float64 [length x the file's width]) with the z-scored frames ``lo .. lo + length - 1``; return it.

    Frames past the track's last repeat it, as ``window_rows`` clamps. The
    file is read ``_READ_ROWS`` rows at a time into one reused buffer of the
    file's width (``FileTrack.chunks``), and ``normalize`` z-scores each
    chunk straight into its rows of ``out``, so no float32 copy of the block
    is made. The block has the bits of
    ``normalize`` over the clamped rows. ``out`` or statistics of another
    width than the file's raise WidthMismatchError naming it.
    """
    mean = stats.mean.get(track.modality)  # statistics it lacks are left to ``normalize``
    if mean is not None:
        track.check_width(np.size(mean), f"the {track.modality} statistics")
    track.check_width(out.shape[-1], "the block buffer")
    stop = min(lo + len(out), track.n_frames)
    chunk = np.empty((min(stop - lo, _READ_ROWS), track.width), dtype=FileTrack.dtype)  # each read, as stored
    for start, read in track.chunks(lo, stop, chunk):
        normalize(read, track.modality, stats, out=out[start - lo : start - lo + len(read)])
    out[stop - lo :] = out[stop - lo - 1]
    return out


def merge_window_predictions(rows: np.ndarray, pred: np.ndarray, n_frames: int) -> np.ndarray:
    """Frame-level [n_frames x 2] average of the window predictions ``pred``.

    ``pred`` [n x SEQUENCE_LEN x 2] holds one prediction per position of the
    windows ``rows`` (as ``window_rows`` gives them). Each frame gets the mean
    over every window position that holds it, summed in window order; padding
    positions past the track end are ignored. Raises CoverageError if any
    frame is covered by no window.
    """
    if n_frames < 1:
        raise DomainError(f"n_frames must be ≥ 1, got {n_frames}")
    pred = np.asarray(pred, dtype=np.float64)
    if rows.ndim != 2 or pred.shape != rows.shape + (2,):
        raise DomainError(f"window predictions {pred.shape} do not match window rows {rows.shape} x 2")
    if rows.size and (rows.min() < 0 or rows.max() >= n_frames):
        raise DomainError(f"window rows {rows.min()}..{rows.max()} outside track of {n_frames} frames")
    real = _real_positions(rows, n_frames)
    frames = rows[real]
    total = np.zeros((n_frames, 2))
    np.add.at(total, frames, pred[real])  # applied in C order: each frame's windows in order
    count = np.bincount(frames, minlength=n_frames)
    if np.any(count == 0):
        missing = int(np.flatnonzero(count == 0)[0])
        raise CoverageError(f"frame {missing} is covered by no window")
    return total / count[:, None]
