"""Versioned binary container for model parameters, batch-norm state, and stats.

Layout (all integers little-endian):

  magic "AFCK" | u32 version=1 | u32 config_len | config JSON (UTF-8)
  u32 tensor_count
  per tensor: u16 name_len | name | u8 rank | u32 dims[rank]
              | f32 payload (row-major) | u32 crc32(payload)
  u32 crc32(everything before this field)

Tensors are written in sorted-name order, so identical contents produce
identical bytes, and a file whose names are repeated or out of order is
rejected. Values are stored as float32; loading widens them, in file order,
into one float64 buffer and returns reshaped views of it, and a load/save
round trip is byte-exact. A load reads the file once and never holds it whole
(see ``load_checkpoint``). A save replaces the file whole through
``dataset.replace_file``, the one writer of every output, so a failed write
leaves the previous file intact.

This module knows the container, not the names in it: which tensors a model
stores, and under what names, is the checkpoint layout of ``train._slots``,
the model's registry (``Model.slots``) plus the normalization statistics.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .dataset import replace_file
from .errors import (
    ChecksumError,
    FileFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from .model import ModelConfig

CHECKPOINT_MAGIC = b"AFCK"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Config echo plus named tensors, as ``train._slots`` lays them out.

    ``path`` is the file it was loaded from (None if it was not), for
    messages that name it.
    """

    config: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    path: str | None = field(default=None, compare=False)

    def model_config(self) -> ModelConfig:
        """The stored model config; FileFormatError if the section is missing or malformed."""
        data = self.config.get("model")
        if data is None:
            raise FileFormatError("checkpoint config has no model section")
        return ModelConfig.from_dict(data)

    @property
    def epoch(self) -> int:
        return self.config.get("epoch", 0)

    @property
    def best_val_score(self):
        return self.config.get("best_val_score")

    @property
    def seed(self) -> int:
        seed = self.config.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise FileFormatError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
        return seed


def _encode(ckpt: Checkpoint) -> list[bytes]:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    blob = json.dumps(ckpt.config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    parts.append(struct.pack("<I", len(ckpt.tensors)))
    for name in sorted(ckpt.tensors):
        encoded = name.encode("utf-8")
        # asarray, not ascontiguousarray: the latter promotes rank-0 to rank-1
        tensor = np.asarray(ckpt.tensors[name], dtype="<f4")
        if len(encoded) > 0xFFFF:
            raise FileFormatError(f"tensor name too long: {name!r}")
        if tensor.ndim > 0xFF:
            raise FileFormatError(f"tensor rank {tensor.ndim} exceeds format limit")
        payload = tensor.tobytes()
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        parts.append(payload)
        parts.append(struct.pack("<I", zlib.crc32(payload)))
    return parts


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically (``dataset.replace_file``): the old file survives any failure."""
    parts = _encode(ckpt)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    replace_file(path, [*parts, struct.pack("<I", crc)])


_TRAILING_CHUNK = 1 << 16  # bytes per read of anything between the last tensor and the file CRC


def load_checkpoint(path) -> Checkpoint:
    """Read and verify an AFCK file in one pass, never holding its bytes whole.

    The declared layout is walked first, by seeks, against the file's length
    (TruncatedFileError), so nothing of a declared size is allocated for a
    file too short to hold it. Then the one float64 buffer is allocated, and
    each payload is read once into a reused float32 staging buffer the size
    of the largest tensor; from there it feeds the whole-file CRC and its own
    CRC and is widened into its slice of the buffer. A read that comes up
    short, because the file shrank, raises TruncatedFileError. The checks are
    judged after the pass, in this order: the whole-file CRC (ChecksumError),
    the config JSON, then each tensor in file order (its name's UTF-8, the
    name order, its payload CRC), then trailing bytes. Every tensor is a
    float64 view of the buffer, which stays alive while any of them does.
    """

    def short(what: str, count: int, at: int) -> TruncatedFileError:
        return TruncatedFileError(f"{path}: {what} needs {count} bytes at offset {at}, file too short")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def take(count: int, what: str) -> bytes:
            """The next ``count`` bytes of the layout, checked against the size before they are read."""
            nonlocal offset
            if offset + count > size - 4:  # final 4 bytes are the file CRC
                raise short(what, count, offset)
            data = fh.read(count)
            if len(data) != count:
                raise short(what, count, offset)
            offset += count
            return data

        if size < 16:
            raise TruncatedFileError(f"{path}: too short for a checkpoint header ({size} bytes)")
        head = take(12, "checkpoint header")
        if head[:4] != CHECKPOINT_MAGIC:
            raise FileFormatError(f"{path}: bad magic {head[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
        version, config_len = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise VersionMismatchError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        config_blob = take(config_len, "config blob")
        count_field = take(4, "tensor count")
        (tensor_count,) = struct.unpack("<I", count_field)
        # the bytes around the payloads, in file order, for the whole-file CRC:
        # gaps[0] ends with the first tensor's header, gaps[i] is tensor i's CRC
        # and the next tensor's header
        gaps = [head + config_blob + count_field]
        entries = []
        for _ in range(tensor_count):
            name_field = take(2, "tensor name length")
            raw_name = take(struct.unpack("<H", name_field)[0], "tensor name")
            rank_field = take(1, "tensor rank")
            dims_field = take(4 * rank_field[0], "tensor dims")
            dims = struct.unpack(f"<{rank_field[0]}I", dims_field)
            count = math.prod(dims)  # exact: np.prod wraps at 2**64, and a wrapped 0 passes the check
            what = f"tensor {raw_name.decode('utf-8', 'backslashreplace')!r} payload"
            if offset + 4 * count > size - 4:
                raise short(what, 4 * count, offset)
            entries.append((raw_name, dims, count, what, offset))
            offset += 4 * count
            fh.seek(offset)
            gaps[-1] += name_field + raw_name + rank_field + dims_field
            gaps.append(take(4, "tensor checksum"))
        end = offset  # of the last tensor

        # one np.empty for every widened payload, not one array per tensor: a fresh process
        # takes fewer page faults, and NumPy advises huge pages for a buffer this large
        values = np.empty(sum(entry[2] for entry in entries))
        stage = np.empty(max((entry[2] for entry in entries), default=0), dtype="<f4")
        crc = zlib.crc32(gaps[0])
        intact = []  # whether each payload matches its CRC
        start = 0
        for (_, _, count, what, at), gap in zip(entries, gaps[1:]):
            payload = stage[:count]
            fh.seek(at)
            if fh.readinto(payload) != payload.nbytes:
                raise short(what, 4 * count, at)
            crc = zlib.crc32(gap, zlib.crc32(payload, crc))
            intact.append(zlib.crc32(payload) == struct.unpack("<I", gap[:4])[0])
            values[start : start + count] = payload
            start += count
        fh.seek(end)
        for at in range(end, size - 4, _TRAILING_CHUNK):
            chunk = fh.read(min(_TRAILING_CHUNK, size - 4 - at))
            if len(chunk) != min(_TRAILING_CHUNK, size - 4 - at):
                raise short("trailing bytes", size - 4 - at, at)
            crc = zlib.crc32(chunk, crc)
        stored_crc = fh.read(4)
        if len(stored_crc) != 4:
            raise short("file CRC", 4, size - 4)

    if crc != struct.unpack("<I", stored_crc)[0]:
        raise ChecksumError(f"{path}: whole-file CRC mismatch")

    try:
        config = json.loads(str(config_blob, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: config blob is not valid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise FileFormatError(f"{path}: config blob is a JSON {type(config).__name__}, not an object")

    tensors: dict[str, np.ndarray] = {}
    previous = None
    start = 0
    for (raw_name, dims, count, _, _), ok in zip(entries, intact):
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: tensor name is not valid UTF-8 ({exc})") from None
        if previous is not None and name <= previous:
            raise FileFormatError(f"{path}: tensor {name!r} follows {previous!r}; names must be sorted and unique")
        previous = name
        if not ok:
            raise ChecksumError(f"{path}: payload CRC mismatch for tensor {name!r}")
        tensors[name] = values[start : start + count].reshape(dims)
        start += count

    if end != size - 4:
        raise FileFormatError(f"{path}: {size - 4 - end} unexpected bytes after tensors")

    return Checkpoint(config=config, tensors=tensors, path=str(path))
