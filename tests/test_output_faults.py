"""Output files under a file-size limit and under SIGKILL, in child processes.

Every output is replaced whole (``dataset.replace_file``), so a command that
fails or dies mid-write leaves each output absent, with its previous bytes,
or with the complete bytes of a run that was not stopped; the only other
files it may leave are its own ``.<name>.<pid>.tmp``, and a write that fails
leaves no directory it made.
"""

import errno
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import affseq
import affseq.train as train_module
from affseq.checkpoint import load_checkpoint
from affseq.cli import main

from conftest import make_corpus
from oracles import pcm16_wav_bytes

_DIMS = {"audio": 4, "expnet": 6, "facepose": 5}
_SRC = str(Path(affseq.__file__).resolve().parents[1])


def _affseq(argv, cwd, limit=None):
    """``affseq`` in a child process; with ``limit``, under that ``RLIMIT_FSIZE`` and ignoring ``SIGXFSZ``."""

    def limited():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return subprocess.Popen([sys.executable, "-m", "affseq.cli", *argv], cwd=cwd, env=_env(),
                            preexec_fn=None if limit is None else limited,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
                PYTHONDONTWRITEBYTECODE="1")


def _run(argv, cwd, limit=None):
    proc = _affseq(argv, cwd, limit)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


def _wav(path: Path, seconds: float) -> None:
    t = np.arange(int(16000 * seconds)) / 16000
    tone = np.sin(2 * np.pi * 440.0 * t) * (1 + 0.5 * np.sin(2 * np.pi * 3 * t))
    path.write_bytes(pcm16_wav_bytes(np.round(tone * 12000).astype(np.int64), 16000))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A corpus of narrow files whose first row is short and whose second is long, plus a WAV clip.

    Relative to the returned directory: ``corpus/manifest.csv``, ``a.wav``,
    and two untrained checkpoints, ``seed1/best.ckpt`` and ``seed2/best.ckpt``.
    """
    root = tmp_path_factory.mktemp("output_faults")
    videos = [("va0", "val", 20), ("tr0", "train", 100), ("tr1", "train", 60)]
    make_corpus(root / "corpus", videos, np.random.default_rng(11), dims=_DIMS)
    _wav(root / "a.wav", 2.0)
    for seed in ("1", "2"):
        assert main(["train", "--manifest", str(root / "corpus" / "manifest.csv"), "--out", str(root / f"seed{seed}"),
                     "--epochs", "0", "--model.width-scale", "32", "--seed", seed]) == 0
    return root


def _scoring(ckpt):
    return ["--manifest", "corpus/manifest.csv", "--checkpoint", ckpt]


# name: (argv of the run, the output it writes, the file the limit stops, argv of the earlier run that left its
# previous bytes); the limit is half the size of the file it stops
_LIMITED = {
    "extract-audio": (["extract-audio", "--wav", "a.wav", "--frames", "40", "--out", "out/a.feat"], "out/a.feat",
                      "a.feat", ["extract-audio", "--wav", "a.wav", "--frames", "30", "--out", "out/a.feat"]),
    "train": (["train", "--manifest", "corpus/manifest.csv", "--out", "out", "--epochs", "2", "--seed", "3",
               "--model.width-scale", "32"], "out", "best.ckpt",
              ["train", "--manifest", "corpus/manifest.csv", "--out", "out", "--epochs", "1", "--seed", "4",
               "--model.width-scale", "32"]),
    # va0.csv is written first and fits; tr0.csv does not
    "predict": (["predict", *_scoring("seed1/best.ckpt"), "--out", "out"], "out", "tr0.csv",
                ["predict", *_scoring("seed2/best.ckpt"), "--out", "out"]),
    "evaluate --report": (["evaluate", *_scoring("seed1/best.ckpt"), "--report", "out/report.csv"], "out/report.csv",
                          "report.csv", ["evaluate", *_scoring("seed2/best.ckpt"), "--report", "out/report.csv"]),
}


@pytest.mark.parametrize("case", list(_LIMITED))
def test_a_write_past_the_file_size_limit_exits_2_naming_its_output_and_leaves_no_fragment(corpus, tmp_path, case):
    argv, output, stopped, earlier = _LIMITED[case]
    ref, work = tmp_path / "ref", tmp_path / "work"
    for directory in (ref, work):
        for name in ("corpus", "a.wav", "seed1", "seed2"):
            (directory / name).parent.mkdir(exist_ok=True)
            os.symlink(corpus / name, directory / name)
    assert _run(argv, ref)[0] == 0  # the complete bytes of a run without the limit
    assert _run(earlier, work)[0] == 0  # the previous bytes
    out = Path(output) if (ref / output).is_dir() else Path(output).parent
    complete, previous = _files(ref / out), _files(work / out)
    assert complete.keys() == previous.keys() and all(complete[n] != previous[n] for n in complete)
    target = out / stopped
    code, stdout, stderr = _run(argv, work, limit=len(complete[stopped]) // 2)
    assert code == 2, stderr
    assert stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{target}'\n"
    left = _files(work / out)
    assert left.keys() == previous.keys(), sorted(left)  # so no temp file either
    assert left[stopped] == previous[stopped]
    for name, data in left.items():
        assert data in (previous[name], complete[name]), name
    if case == "predict":
        assert left["va0.csv"] == complete["va0.csv"]


# name: (argv of a run whose first write makes the directory ``new`` and exceeds a 16-byte limit, its target)
_FIRST_WRITE = {
    "extract-audio": (["extract-audio", "--wav", "a.wav", "--frames", "40", "--out", "new/x.feat"], "new/x.feat"),
    "train": (["train", "--manifest", "corpus/manifest.csv", "--out", "new/run", "--epochs", "1",
               "--model.width-scale", "32"], "new/run/best.ckpt"),
    "evaluate --report": (["evaluate", *_scoring("seed1/best.ckpt"), "--report", "new/r.csv"], "new/r.csv"),
    # va0.csv, the first video's, is written first
    "predict": (["predict", *_scoring("seed1/best.ckpt"), "--out", "new/preds"], "new/preds/va0.csv"),
}


@pytest.mark.parametrize("case", list(_FIRST_WRITE))
def test_a_first_write_past_the_file_size_limit_leaves_no_directory_it_made(corpus, tmp_path, case):
    argv, target = _FIRST_WRITE[case]
    for name in ("corpus", "a.wav", "seed1"):
        os.symlink(corpus / name, tmp_path / name)
    code, stdout, stderr = _run(argv, tmp_path, limit=16)
    assert code == 2, stderr
    assert (stdout, stderr) == ("", f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{target}'\n")
    assert not (tmp_path / "new").exists()


_TMP = re.compile(r"\.(?P<name>.+)\.(?P<pid>\d+)\.tmp")


def _check_left(out: Path, pid: int, versions: dict[str, list[bytes]]) -> None:
    """Each file in ``out`` is one of its ``versions`` or a temp file of the process ``pid``."""
    for path in out.iterdir() if out.exists() else ():
        tmp = _TMP.fullmatch(path.name)
        if tmp:
            assert tmp["name"] in versions and int(tmp["pid"]) == pid, path.name
        else:
            assert path.read_bytes() in versions[path.name], path.name


def _appears(proc, path: Path) -> bool:
    """Wait until ``path`` exists (True) or ``proc`` ends without it (False)."""
    while not path.exists():
        if proc.poll() is not None:
            return path.exists()
    return True


def _kill_at_random(argv_to, out: Path, versions, seed: int, kills: int = 8) -> None:
    """Run ``argv_to(directory)`` once whole, then ``kills`` times with SIGKILL at seeded random moments.

    Each run writes into its own directory under ``out``. Every output is
    written after that directory appears, so each kill comes a delay after
    it does, drawn up to the time from then to the end of the whole run.
    """
    whole = _affseq(argv_to(out / "whole"), out.parent)
    assert _appears(whole, out / "whole")
    start = time.perf_counter()
    stderr = whole.communicate(timeout=120)[1]
    writing = time.perf_counter() - start
    assert whole.returncode == 0, stderr
    _check_left(out / "whole", -1, versions)
    draw = random.Random(seed)
    for kill in range(kills):
        target = out / f"kill{kill}"
        proc = _affseq(argv_to(target), out.parent)
        delay = draw.uniform(0, writing)
        if _appears(proc, target):
            time.sleep(delay)
        proc.kill()
        proc.communicate(timeout=120)
        _check_left(target, proc.pid, versions)
        if (target / "best.ckpt").exists():
            load_checkpoint(target / "best.ckpt")


def test_sigkill_at_any_moment_leaves_whole_outputs_or_none(corpus, tmp_path, monkeypatch):
    """``train``, ``predict`` and ``extract-audio`` killed at seeded random moments, eight times each."""
    manifest, ckpt = str(corpus / "corpus" / "manifest.csv"), str(corpus / "seed1" / "best.ckpt")

    def train_to(out):
        return ["train", "--manifest", manifest, "--out", str(out), "--epochs", "12", "--learning-rate", "1e-2",
                "--seed", "5", "--model.width-scale", "32"]

    saves, real_save = [], train_module.save_checkpoint

    def save(path, ckpt):
        real_save(path, ckpt)
        saves.append(Path(path).read_bytes())

    monkeypatch.setattr(train_module, "save_checkpoint", save)
    assert main(train_to(tmp_path / "reference")) == 0
    monkeypatch.undo()
    lines = (tmp_path / "reference" / "history.csv").read_bytes().splitlines(keepends=True)
    history = [b"".join(lines[:k]) for k in range(1, len(lines) + 1)]  # the header, then one more epoch each
    _kill_at_random(train_to, tmp_path / "train", {"best.ckpt": saves, "history.csv": history}, 1)

    # a long first video, so its CSV takes a while to write
    long = make_corpus(tmp_path / "long", [("long", "val", 20000), ("va0", "val", 20)], np.random.default_rng(12),
                       dims=_DIMS)

    def predict_to(out):
        return ["predict", "--manifest", str(long), "--checkpoint", ckpt, "--out", str(out)]

    assert main(predict_to(tmp_path / "predictions")) == 0
    versions = {name: [data] for name, data in _files(tmp_path / "predictions").items()}
    _kill_at_random(predict_to, tmp_path / "predict", versions, 2)

    _wav(tmp_path / "long.wav", 20.0)

    def extract_to(out):
        return ["extract-audio", "--wav", str(tmp_path / "long.wav"), "--frames", "2000", "--out", str(out / "a.feat")]

    assert main(extract_to(tmp_path / "features")) == 0
    _kill_at_random(extract_to, tmp_path / "extract", {"a.feat": [(tmp_path / "features" / "a.feat").read_bytes()]}, 3)
