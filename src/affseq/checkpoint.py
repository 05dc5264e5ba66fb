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
round trip is byte-exact. A save goes through a temp file in the
target's directory, fsynced and then renamed over the target, so a failed
write leaves the previous file intact; the directory is then fsynced, so the
rename itself survives a power loss.

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
    """Config echo plus named tensors, as ``train._slots`` lays them out."""

    config: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

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
    """Write ``ckpt`` to ``path`` atomically: the old file survives any failure."""
    parts = _encode(ckpt)
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            crc = 0
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    # the rename is an entry in the directory: until that is synced, a power loss may undo it
    dir_fd = os.open(head or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path) -> Checkpoint:
    """Read and verify an AFCK file.

    The declared layout is walked against the file's length first
    (TruncatedFileError), then the whole-file CRC and each tensor's CRC are
    checked (ChecksumError), so a file cut short reads as truncated. Every
    tensor is a float64 view of one buffer, which stays alive while any of
    them does.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)  # slices of a view share the file's buffer, no copies

    def need(offset: int, count: int, what: str) -> int:
        if offset + count > len(blob) - 4:  # final 4 bytes are the file CRC
            raise TruncatedFileError(
                f"{path}: {what} needs {count} bytes at offset {offset}, file too short"
            )
        return offset + count

    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: too short for a checkpoint header ({len(blob)} bytes)")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FileFormatError(f"{path}: bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")

    offset = 8
    (config_len,) = struct.unpack_from("<I", blob, offset)
    offset = need(offset + 4, config_len, "config blob")
    config_blob = view[offset - config_len : offset]
    offset = need(offset, 4, "tensor count")
    (tensor_count,) = struct.unpack_from("<I", blob, offset - 4)
    entries = []
    for _ in range(tensor_count):
        offset = need(offset, 2, "tensor name length")
        (name_len,) = struct.unpack_from("<H", blob, offset - 2)
        offset = need(offset, name_len, "tensor name")
        raw_name = blob[offset - name_len : offset]
        offset = need(offset, 1, "tensor rank")
        rank = blob[offset - 1]
        offset = need(offset, 4 * rank, "tensor dims")
        dims = struct.unpack_from(f"<{rank}I", blob, offset - 4 * rank)
        count = math.prod(dims)  # exact: np.prod wraps at 2**64, and a wrapped 0 passes need()
        shown = raw_name.decode("utf-8", "backslashreplace")
        offset = need(offset, 4 * count, f"tensor {shown!r} payload")
        payload = view[offset - 4 * count : offset]
        offset = need(offset, 4, "tensor checksum")
        (crc,) = struct.unpack_from("<I", blob, offset - 4)
        entries.append((raw_name, dims, payload, crc))

    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(view[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: whole-file CRC mismatch")

    try:
        config = json.loads(str(config_blob, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: config blob is not valid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise FileFormatError(f"{path}: config blob is a JSON {type(config).__name__}, not an object")

    # one np.empty for every widened payload, not one array per tensor: a fresh process
    # takes fewer page faults, and NumPy advises huge pages for a buffer this large
    values = np.empty(sum(len(payload) for _, _, payload, _ in entries) // 4)
    start = 0
    tensors: dict[str, np.ndarray] = {}
    previous = None
    for raw_name, dims, payload, crc in entries:
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: tensor name is not valid UTF-8 ({exc})") from None
        if previous is not None and name <= previous:
            raise FileFormatError(f"{path}: tensor {name!r} follows {previous!r}; names must be sorted and unique")
        previous = name
        if zlib.crc32(payload) != crc:
            raise ChecksumError(f"{path}: payload CRC mismatch for tensor {name!r}")
        tensor = values[start : start + len(payload) // 4]
        tensor[:] = np.frombuffer(payload, dtype="<f4")
        tensors[name] = tensor.reshape(dims)
        start += tensor.size

    if offset != len(blob) - 4:
        raise FileFormatError(f"{path}: {len(blob) - 4 - offset} unexpected bytes after tensors")

    return Checkpoint(config=config, tensors=tensors)
