import builtins
import os
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import affseq.checkpoint
import affseq.cli as cli
import affseq.dataset
import affseq.train as train_module
from affseq.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from affseq.errors import (
    ChecksumError,
    FileFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from affseq.dataset import load_manifest, replace_file, write_feature_file
from affseq.model import ModelConfig
from affseq.train import TrainConfig, predict, train

from conftest import make_corpus


def _sample(rng):
    return Checkpoint(
        config={
            "model": ModelConfig(width_scale=32, audio_dim=4, expnet_dim=4, facepose_dim=4).to_dict(),
            "epoch": 3,
            "best_val_score": 0.42,
            "seed": 7,
        },
        tensors={
            "param/audio.rnn1.w": rng.normal(size=(4, 12)),
            "param/head.dense2.b": rng.normal(size=2),
            "optim/param/head.dense2.b": rng.random(2),
            "norm/audio/mean": rng.normal(size=4),
            "norm/audio/std": rng.random(4) + 0.5,
            "state/audio.norm.running_mean": np.zeros(4),
        },
    )


def _refix_crc(body: bytes) -> bytes:
    """Recompute the trailing whole-file CRC after editing the body."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_round_trip_preserves_config_and_values(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    ckpt = _sample(rng)
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, tensor in ckpt.tensors.items():
        got = loaded.tensors[name]
        assert got.dtype == np.float64
        assert got.shape == tensor.shape
        # values pass through a float32 payload
        np.testing.assert_allclose(got, tensor, rtol=1e-6, atol=1e-7)


def test_save_load_save_is_byte_exact(tmp_path, rng):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(first, _sample(rng))
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


def test_tensor_order_does_not_affect_bytes(tmp_path, rng):
    ckpt = _sample(rng)
    shuffled = Checkpoint(
        config=ckpt.config,
        tensors=dict(reversed(list(ckpt.tensors.items()))),
    )
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    save_checkpoint(path_a, ckpt)
    save_checkpoint(path_b, shuffled)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_scalar_and_high_rank_tensors(tmp_path):
    path = tmp_path / "a.ckpt"
    ckpt = Checkpoint(
        config={"model": ModelConfig().to_dict()},
        tensors={"state/step": np.asarray(5.0), "param/w": np.arange(24.0).reshape(2, 3, 4)},
    )
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.tensors["state/step"].shape == ()
    assert float(loaded.tensors["state/step"]) == 5.0
    np.testing.assert_array_equal(loaded.tensors["param/w"], np.arange(24.0).reshape(2, 3, 4))


def test_loaded_tensors_are_widened_payloads_in_one_buffer(tmp_path, rng):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, 3.4e38, -1.5e-39], dtype=np.float32)
    tensors = {
        **_sample(rng).tensors,
        "param/special": special.reshape(2, 4),
        "state/empty": np.zeros((0, 3)),
        "state/step": np.asarray(5.0),
    }
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, Checkpoint(config={"seed": 1}, tensors=tensors))
    raw = path.read_bytes()
    loaded = load_checkpoint(path)
    buffer = loaded.tensors["param/special"].base
    assert buffer.dtype == np.float64 and buffer.ndim == 1
    assert buffer.size == sum(t.size for t in tensors.values())
    offset = 0
    for name in sorted(tensors):  # file order
        got = loaded.tensors[name]
        payload = np.asarray(tensors[name], dtype="<f4").tobytes()
        assert payload in raw
        assert got.base is buffer and got.shape == np.shape(tensors[name])
        if got.size:  # an empty view may point anywhere
            assert got.__array_interface__["data"][0] == buffer.__array_interface__["data"][0] + 8 * offset
        assert got.tobytes() == np.frombuffer(payload, "<f4").astype(np.float64).tobytes(), name
        offset += got.size
    save_checkpoint(tmp_path / "b.ckpt", loaded)
    assert (tmp_path / "b.ckpt").read_bytes() == raw


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_save_fsyncs_the_directory_after_the_rename(tmp_path, rng, monkeypatch, relative):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "directory" if stat.S_ISDIR(info.st_mode) else "file"
        events.append(("fsync", kind, os.path.samestat(info, os.stat(tmp_path))))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(affseq.checkpoint.os, "fsync", fsync)
    monkeypatch.setattr(affseq.checkpoint.os, "replace", replace)
    monkeypatch.chdir(tmp_path)
    save_checkpoint("best.ckpt" if relative else tmp_path / "best.ckpt", _sample(rng))
    assert events == [("fsync", "file", False), ("replace",), ("fsync", "directory", True)]
    assert load_checkpoint(tmp_path / "best.ckpt").epoch == 3


def test_config_accessors(rng):
    ckpt = _sample(rng)
    assert ckpt.epoch == 3
    assert ckpt.best_val_score == 0.42
    assert ckpt.seed == 7
    assert ckpt.model_config().width_scale == 32


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError, match="version 9"):
        load_checkpoint(path)


def test_whole_file_crc_detects_any_flip(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_payload_crc_detects_tensor_tamper(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = bytearray(path.read_bytes()[:-4])
    # find the payload of norm/audio/mean: name | rank(1) | dim | payload
    name = b"norm/audio/mean"
    at = raw.index(name)
    payload_start = at + len(name) + 1 + 4
    raw[payload_start] ^= 0xFF
    path.write_bytes(_refix_crc(bytes(raw)))
    with pytest.raises(ChecksumError, match="norm/audio/mean"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = path.read_bytes()
    path.write_bytes(_refix_crc(raw[: len(raw) // 2]))
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_file_cut_in_half_reads_as_truncated_not_corrupt(tmp_path, rng):
    # the whole-file CRC is left as the cut leaves it: the layout walk must fail first
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError, match="file too short"):
        load_checkpoint(path)


def test_tiny_file_is_truncated(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"AFCK\x01")
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = path.read_bytes()[:-4]
    path.write_bytes(_refix_crc(raw + b"\x00\x00\x00"))
    with pytest.raises(FileFormatError, match="unexpected bytes"):
        load_checkpoint(path)


def test_config_blob_must_be_json(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _sample(rng))
    raw = bytearray(path.read_bytes()[:-4])
    (config_len,) = struct.unpack_from("<I", raw, 8)
    raw[12 : 12 + 4] = b"}{x("
    path.write_bytes(_refix_crc(bytes(raw)))
    with pytest.raises(FileFormatError, match="JSON"):
        load_checkpoint(path)


def test_overlong_tensor_name_rejected_on_save(tmp_path):
    ckpt = Checkpoint(config={}, tensors={"p" * 70000: np.zeros(1)})
    with pytest.raises(FileFormatError, match="name too long"):
        save_checkpoint(tmp_path / "a.ckpt", ckpt)


class _FailingFile:
    """File proxy whose writes go through until ``limit`` bytes are written, then raise.

    The write that crosses the limit writes the bytes that fit first, as a
    write past a full disk or a file-size limit does.
    """

    def __init__(self, fh, limit):
        self._fh = fh
        self._left = limit

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(data[: self._left])
            self._left = 0
            raise OSError("injected failure mid-write")
        self._left -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fail_mid_write(monkeypatch):
    def failing_open(file, mode="r", *args, **kwargs):
        return _FailingFile(builtins.open(file, mode, *args, **kwargs), limit=40)

    # the module of ``replace_file``, which every writer goes through
    monkeypatch.setattr(affseq.dataset, "open", failing_open, raising=False)


def _fail_fsync(monkeypatch):
    def failing_fsync(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(affseq.checkpoint.os, "fsync", failing_fsync)


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A two-row corpus of narrow feature files and the paths of two untrained checkpoints of it."""
    root = tmp_path_factory.mktemp("scored")
    dims = {"audio": 4, "expnet": 6, "facepose": 5}
    manifest = make_corpus(root / "corpus", [("tr0", "train", 25), ("va0", "val", 20)], np.random.default_rng(5),
                           dims=dims)
    ckpts = []
    for seed in (1, 2):
        config = TrainConfig(epochs=0, seed=seed, model=ModelConfig(width_scale=32))
        train(load_manifest(manifest), config, root / f"run{seed}")
        ckpts.append(root / f"run{seed}" / "best.ckpt")
    return manifest, ckpts


def _report(out, scored, version):
    manifest, ckpts = scored
    argv = ["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpts[version])]
    cli._run([*argv, "--report", str(out / "report.csv")])  # the command, its errors raised, not printed


# Each writer of an output file: ``write(out, scored, version)`` writes its
# file(s) under ``out``, and versions 0 and 1 give different bytes.
_WRITERS = {
    "save_checkpoint": lambda out, scored, version: save_checkpoint(
        out / "best.ckpt", _sample(np.random.default_rng(version))),
    "write_feature_file": lambda out, scored, version: write_feature_file(
        out / "a.feat", np.random.default_rng(version).normal(size=(30, 4))),
    "predict": lambda out, scored, version: predict(
        load_manifest(scored[0]), load_checkpoint(scored[1][version]), out),
    "history.csv": lambda out, scored, version: train_module._write_history(
        out, [f"{epoch},{version}.5,0.1,0.2,0.3,0.4" for epoch in (1, 2)]),
    "--report": _report,
}


@pytest.mark.parametrize("writer", list(_WRITERS))
@pytest.mark.parametrize("inject", [_fail_mid_write, _fail_fsync])
def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch, scored, inject, writer):
    """A write or fsync that fails in any writer leaves the previous bytes of its output and no temp file."""
    write, out = _WRITERS[writer], tmp_path / "out"
    out.mkdir()
    write(out, scored, 0)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    inject(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        write(out, scored, 1)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # so no temp file is left either
    if writer == "save_checkpoint":
        assert load_checkpoint(out / "best.ckpt").epoch == 3
    write(out, scored, 1)  # the write that failed would have changed every output
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys() and all(after[name] != before[name] for name in before)


def test_failed_first_save_creates_no_file(tmp_path, rng, monkeypatch):
    _fail_mid_write(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        save_checkpoint(tmp_path / "best.ckpt", _sample(rng))
    assert os.listdir(tmp_path) == []



def _large(rng):
    """Nine tensors of 1 MiB of float32 each but for one of 2 MiB: the file is 10 MiB."""
    sizes = {f"param/t{i}": 2**18 * (2 if i == 3 else 1) for i in range(9)}
    return Checkpoint(config={"seed": 1}, tensors={name: rng.normal(size=n) for name, n in sizes.items()})


def test_load_holds_the_buffer_and_one_payload_not_the_file(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    ckpt = _large(rng)
    save_checkpoint(path, ckpt)
    total = sum(t.size for t in ckpt.tensors.values())
    largest = max(t.size for t in ckpt.tensors.values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * total + 4 * largest + 2**20, peak
    for name, tensor in ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == tensor.astype("<f4").astype(np.float64).tobytes()


class _ShrinksAtFirstPayload:
    """File proxy that cuts its file to half its length just before the first payload is read."""

    def __init__(self, fh, path):
        self._fh, self._path, self._cut = fh, path, False

    def readinto(self, buffer):
        if not self._cut:
            self._cut = True
            os.truncate(self._path, os.path.getsize(self._path) // 2)
        return self._fh.readinto(buffer)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_file_that_shrinks_after_its_layout_was_walked_is_truncated(tmp_path, rng, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, _large(rng))
    monkeypatch.setattr(
        affseq.checkpoint, "open", lambda file, mode="r": _ShrinksAtFirstPayload(builtins.open(file, mode), file),
        raising=False,
    )
    with pytest.raises(TruncatedFileError, match="file too short"):
        load_checkpoint(path)


def test_a_failed_write_removes_the_directories_it_made_up_to_one_in_use(tmp_path):
    """``new/a`` is removed once the write fails; ``new`` stays when another writer has put a file in it."""

    def chunks(other=None):
        if other is not None:  # another writer's file, made after this write made its directories
            other.write_bytes(b"theirs")
        yield b"ours"
        raise OSError("injected failure mid-write")

    target = tmp_path / "new" / "a" / "out.bin"
    with pytest.raises(OSError, match="injected"):
        replace_file(target, chunks())
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError, match="injected"):
        replace_file(target, chunks(tmp_path / "new" / "theirs"))
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["new", "new/theirs"]
