"""Run one fixed matrix of affseq commands and record the bytes they leave.

    python tools/samebytes.py --work DIR --out RUN.json [--src SRC]
    python tools/samebytes.py --compare A.json B.json

The first form builds a seeded corpus under ``DIR`` (which must be new or
empty), runs every command of the matrix below through ``python -m
affseq.cli`` with the engine taken from ``SRC`` (default: this checkout's
``src``), one process per command, at one BLAS thread and with ``DIR`` as the
working directory, and writes ``RUN.json``: each command's argv, exit code,
stdout and stderr, and the sha256 of every file left under ``DIR``. Two runs
on one tree give identical JSON, so ``--compare`` of a run on a parent commit
and a run on a change lists every byte the change moved. It prints one line
per difference and exits 1 if there is any, 0 if there is none.

The matrix:

- ``extract-audio`` with the default DSP keys, with ``--n-fft 512
  --stft-hop 128 --n-mels 40 --n-mfcc 13``, and with ``--n-fft 4096``,
  which is longer than the clips' segments, so every STFT row is zero-padded;
- ``train`` of the full-width ``gru`` and ``bilstm`` fusion models, shuffled,
  with a partial last batch; of ``bilstm`` again with ``--threads 2``; and of
  ``gru`` again with ``--threads 2``, with ``--threads 3`` and with
  ``--shuffle false``, whose batches hold runs of windows of one video. With
  more than one thread, worker threads check the files;
- a corpus of the clips (``a0`` train, ``a1`` val) whose audio is their
  ``--n-mels 40 --n-mfcc 13`` extraction, 53 columns (``audio/keys.csv``):
  ``train`` of ``gru`` for one epoch, then ``evaluate`` and ``predict`` with
  its checkpoint;
- ``predict`` with each checkpoint at batch 32, and at batch 7 with
  ``--threads 3``; one val video (``va2``, 340 frames, 34 windows) is longer
  than one batch at either size, so scoring reads it as several frame
  blocks;
- ``evaluate`` with each checkpoint in both CCC modes;
- the standing error cases: usage and option errors, config files (one of
  them not UTF-8, one holding a NUL), ``AFFSEQ_THREADS``, bad WAV input,
  every manifest and label table rule (tables that are not UTF-8 or hold a
  NUL included, and a NUL ``video_id`` given to ``predict``), broken feature
  files (missing, truncated, narrow, and non-finite: ``tr0``'s expnet with a
  NaN in its first row and ``va2``'s with a NaN in its last, partial 64-row
  chunk, each given to ``train`` and to ``predict``) and broken checkpoints:
  a flipped byte, a file cut in half, and, each with its whole-file CRC
  refixed, a flipped payload byte, two tensors out of name order, trailing
  bytes after the last tensor and a ``best.ckpt`` re-saved with
  ``"expnet_dim": 10000000``, an input width its tensors do not have, given
  to ``evaluate`` and to ``predict``;
- feature widths that disagree: ``train`` on ``audio/mixed.csv``, the clips'
  corpus with 53-column audio in its train row and 168-column audio in its
  val row, and the 53-column checkpoint given to ``evaluate`` and to
  ``predict`` on the 168-column corpus.

Standard library and NumPy only; the inputs come from ``perfbench/inputs.py``
(``feature_corpus`` and ``wav_corpus``, seed 4242).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from inputs import Video  # noqa: E402

SEED = 4242
SIGNAL = 0.5
VIDEOS = [
    Video("tr0", "train", 60),
    Video("tr1", "train", 47),
    Video("tr2", "train", 12),
    Video("va0", "val", 45),
    Video("va1", "val", 9),
    Video("va2", "val", 340),
]
CLIPS = [Video("a0", "val", 30), Video("a1", "val", 7)]
DSP_FLAGS = ["--n-fft", "512", "--stft-hop", "128", "--n-mels", "40", "--n-mfcc", "13"]
# about 2.6k samples a segment in CLIPS, so each segment is one zero-padded STFT row
PADDED_FLAGS = ["--n-fft", "4096"]
# 12 train windows: batches of 5, 5 and 2
TRAIN_FLAGS = ["--epochs", "2", "--batch-size", "5", "--learning-rate", "1e-3", "--seed", "7"]
COMMANDS = ("extract-audio", "train", "evaluate", "predict")
MANIFEST = "corpus/manifest.csv"
KEYS_MANIFEST = "audio/keys.csv"  # CLIPS with their DSP_FLAGS audio: 53 columns
KEYS_TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "5", "--learning-rate", "1e-3", "--seed", "7"]
# manifests whose expnet file holds a NaN: tr0's in its first row, va2's in its last, partial 64-row chunk
NON_FINITE = ("non-finite-first-row", "non-finite-last-chunk")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _write_inputs(work: Path) -> None:
    inputs.feature_corpus(work / "corpus", SEED, VIDEOS, SIGNAL)
    inputs.wav_corpus(work / "wav", SEED, CLIPS, SIGNAL)
    (work / "audio").mkdir()
    for name, val_audio in (("keys", "keys"), ("mixed", "default")):
        lines = [inputs.MANIFEST_HEADER]
        for clip, split in zip(CLIPS, ("train", "val")):
            audio = f"{clip.video_id}/{val_audio if split == 'val' else 'keys'}.feat"  # as extracted below
            wav = f"../wav/{clip.video_id}"
            cells = [audio, f"{wav}.expnet.feat", f"{wav}.facepose.feat", f"{wav}.labels.csv", str(clip.n_frames)]
            lines.append(",".join([clip.video_id, split, *cells]))
        (work / "audio" / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _main_commands() -> list[tuple[str, list[str], dict]]:
    """(name, argv, extra environment) of every command that succeeds, in run order."""
    cmds = []
    for clip in CLIPS:
        extract = ["extract-audio", "--wav", f"wav/{clip.video_id}.wav", "--frames", str(clip.n_frames), "--out"]
        out = f"audio/{clip.video_id}"
        cmds.append((f"extract-{clip.video_id}-default", [*extract, f"{out}/default.feat"], {}))
        cmds.append((f"extract-{clip.video_id}-keys", [*extract, f"{out}/keys.feat", *DSP_FLAGS], {}))
        cmds.append((f"extract-{clip.video_id}-padded", [*extract, f"{out}/padded.feat", *PADDED_FLAGS], {}))
    for cell in ("gru", "bilstm"):
        train = ["train", "--manifest", MANIFEST, "--out", f"runs/{cell}", "--model.cell", cell, *TRAIN_FLAGS]
        cmds.append((f"train-{cell}", train, {}))
        scoring = ["--manifest", MANIFEST, "--checkpoint", f"runs/{cell}/best.ckpt"]
        b32 = ["predict", *scoring, "--out", f"preds/{cell}-b32", "--batch-size", "32"]
        b7 = ["predict", *scoring, "--out", f"preds/{cell}-b7-t3", "--batch-size", "7", "--threads", "3"]
        cmds += [(f"predict-{cell}-b32", b32, {}), (f"predict-{cell}-b7-t3", b7, {})]
        for mode in ("concat", "per-video-mean"):
            report = ["evaluate", *scoring, "--ccc-mode", mode, "--report", f"reports/{cell}-{mode}.csv"]
            cmds.append((f"evaluate-{cell}-{mode}", report, {}))
    for cell, threads in (("gru", "2"), ("gru", "3"), ("bilstm", "2")):
        threaded = ["train", "--manifest", MANIFEST, "--out", f"runs/{cell}-t{threads}", "--model.cell", cell]
        cmds.append((f"train-{cell}-t{threads}", [*threaded, *TRAIN_FLAGS, "--threads", threads], {}))
    unshuffled = ["train", "--manifest", MANIFEST, "--out", "runs/gru-unshuffled", "--model.cell", "gru", *TRAIN_FLAGS]
    cmds.append(("train-gru-unshuffled", [*unshuffled, "--shuffle", "false"], {}))
    keys = ["--manifest", KEYS_MANIFEST]
    cmds.append(("train-keys-gru", ["train", *keys, "--out", "runs/keys", "--model.cell", "gru", *KEYS_TRAIN_FLAGS], {}))
    scoring = [*keys, "--checkpoint", "runs/keys/best.ckpt"]
    cmds.append(("evaluate-keys", ["evaluate", *scoring, "--report", "reports/keys.csv"], {}))
    cmds.append(("predict-keys", ["predict", *scoring, "--out", "preds/keys"], {}))
    return cmds


def _refixed(body: bytes) -> bytes:
    """An AFCK file of ``body``, everything before the whole-file CRC, and that CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def _with_model_key(ckpt: bytes, key: str, value) -> bytes:
    """``ckpt``, an AFCK file, with one key of its model config set and the whole-file CRC refixed."""
    (config_len,) = struct.unpack_from("<I", ckpt, 8)
    config = json.loads(ckpt[12 : 12 + config_len])
    config["model"][key] = value
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return _refixed(ckpt[:8] + struct.pack("<I", len(blob)) + blob + ckpt[12 + config_len : -4])


def _tensor_spans(ckpt: bytes) -> list[tuple[int, int, int]]:
    """(start, payload start, end) in ``ckpt``, an AFCK file, of each tensor entry, in file order."""
    (config_len,) = struct.unpack_from("<I", ckpt, 8)
    offset = 12 + config_len
    (count,) = struct.unpack_from("<I", ckpt, offset)
    offset += 4
    spans = []
    for _ in range(count):
        start = offset
        (name_len,) = struct.unpack_from("<H", ckpt, offset)
        offset += 2 + name_len
        rank = ckpt[offset]
        dims = struct.unpack_from(f"<{rank}I", ckpt, offset + 1)
        payload = offset + 1 + 4 * rank
        offset = payload + 4 * math.prod(dims) + 4  # the payload, then its CRC
        spans.append((start, payload, offset))
    return spans


def _with_nan(src: Path, dst: Path, row: int) -> None:
    """A copy at ``dst`` of ``src``, an AFFW file, with a NaN in column 0 of row ``row``."""
    blob = bytearray(src.read_bytes())
    (cols,) = struct.unpack_from("<I", blob, 12)
    struct.pack_into("<f", blob, 16 + 4 * row * cols, math.nan)
    dst.write_bytes(bytes(blob))


def _write_broken_inputs(work: Path) -> list[str]:
    """Broken config files, WAV, checkpoints, feature and label files, and manifests.

    Returns the names of the manifests, each written as ``corpus/<name>.csv``
    beside the good one; only one row (``tr0``, train, unless named) or its splits differ.
    """
    corpus = work / "corpus"
    (work / "config").mkdir()
    (work / "config" / "unknown-key.conf").write_text("epochs = 1\nnope = 1\n", encoding="utf-8")
    (work / "config" / "no-equals.conf").write_text("epochs 1\n", encoding="utf-8")
    (work / "config" / "not-utf8.conf").write_bytes(b"epochs = 1\nseed = \xff\n")
    (work / "config" / "nul.conf").write_bytes(b"epochs = 1\nout = errors/nul\x00\n")
    (work / "wav" / "not-riff.wav").write_bytes(b"RIFX" + bytes(40))
    (work / "broken").mkdir()
    ckpt = (work / "runs" / "gru" / "best.ckpt").read_bytes()
    flipped = bytearray(ckpt)
    flipped[len(ckpt) // 2] ^= 0x01
    (work / "broken" / "flipped.ckpt").write_bytes(bytes(flipped))
    (work / "broken" / "truncated.ckpt").write_bytes(ckpt[: len(ckpt) // 2])
    (work / "broken" / "wrong-width.ckpt").write_bytes(_with_model_key(ckpt, "expnet_dim", 10_000_000))
    spans = _tensor_spans(ckpt)
    body = bytearray(ckpt[:-4])
    body[spans[len(spans) // 2][1]] ^= 0x01
    (work / "broken" / "payload-flipped.ckpt").write_bytes(_refixed(bytes(body)))
    (first, _, second), (_, _, third) = spans[0], spans[1]
    swapped = ckpt[:first] + ckpt[second:third] + ckpt[first:second] + ckpt[third:-4]
    (work / "broken" / "out-of-order.ckpt").write_bytes(_refixed(swapped))
    (work / "broken" / "trailing-bytes.ckpt").write_bytes(_refixed(ckpt[:-4] + bytes(3)))
    (corpus / "truncated.audio.feat").write_bytes((corpus / "tr0.audio.feat").read_bytes()[:-7])
    inputs.write_affw(corpus / "narrow.audio.feat", np.zeros((60, 10)))
    _with_nan(corpus / "tr0.expnet.feat", corpus / "nan-first-row.expnet.feat", 0)
    _with_nan(corpus / "va2.expnet.feat", corpus / "nan-last-chunk.expnet.feat", 337)

    header, *rows = (corpus / "manifest.csv").read_text(encoding="utf-8").splitlines()
    first, rest = rows[0].split(","), rows[1:]
    label_header, *label_rows = (corpus / "tr0.labels.csv").read_text(encoding="utf-8").splitlines()

    def lines(*body):
        return "".join(line + "\n" for line in body)

    def with_cell(index, value, video="tr0"):
        at = next(i for i, row in enumerate(rows) if row.startswith(f"{video},"))
        cells = rows[at].split(",")
        cells[index] = value
        return lines(header, *rows[:at], ",".join(cells), *rows[at + 1 :])

    def as_bytes(text):
        return text if isinstance(text, bytes) else text.encode("utf-8")

    def with_labels(name, text):
        (corpus / f"{name}.labels.csv").write_bytes(as_bytes(text))
        return with_cell(5, f"{name}.labels.csv")

    manifests = {
        "empty": "",
        "bad-header": lines("video,split", *rows),
        "bad-split": with_cell(1, "test"),
        "non-numeric-frames": with_cell(6, "many"),
        "zero-frames": with_cell(6, "0"),
        "frame-mismatch": with_cell(6, "61"),
        "field-count": lines(header, ",".join(first[:-1]), *rest),
        "repeated-id": lines(header, rows[0], *rows),
        "escaped-id": with_cell(0, "../escaped"),
        "no-val-rows": lines(header, *(r for r in rows if ",val," not in r)),
        "no-train-rows": lines(header, *(r for r in rows if ",train," not in r)),
        "missing-feature": with_cell(2, "nope.feat"),
        "empty-feature-cell": with_cell(2, ""),
        "truncated-feature": with_cell(2, "truncated.audio.feat"),
        "narrow-feature": with_cell(2, "narrow.audio.feat"),
        NON_FINITE[0]: with_cell(3, "nan-first-row.expnet.feat"),
        NON_FINITE[1]: with_cell(3, "nan-last-chunk.expnet.feat", video="va2"),
        "unlabeled-train": with_cell(5, ""),
        "missing-labels": with_cell(5, "nope.labels.csv"),
        "label-header": with_labels("label-header", lines("frame,v,a", *label_rows)),
        "label-gap": with_labels("label-gap", lines(label_header, *label_rows[1:])),
        "label-non-numeric": with_labels("label-non-numeric", lines(label_header, "0,abc,0")),
        "label-field-count": with_labels("label-field-count", lines(label_header, "0,0.5")),
        "label-empty": with_labels("label-empty", ""),
        "label-not-utf8": with_labels("label-not-utf8", as_bytes(lines(label_header)) + b"0,\xff,0\n"),
        "label-nul": with_labels("label-nul", lines(label_header, "0,0\0,0")),
        "not-utf8": as_bytes(lines(header, *rows)) + b"\xff\n",
        "nul-id": with_cell(0, "tr0\0"),
    }
    unannotated = with_labels("label-all-unannotated", lines(label_header, *(f"{i},-5,-5" for i in range(60))))
    # tr0 is the only train row left, and none of its labels is valid
    manifests["label-all-unannotated"] = lines(*unannotated.splitlines()[:2], *(r for r in rest if ",val," in r))
    for name, text in manifests.items():
        (corpus / f"{name}.csv").write_bytes(as_bytes(text))
    return list(manifests)


def _error_commands(manifests: list[str]) -> list[tuple[str, list[str], dict]]:
    train = ["train", "--manifest", MANIFEST, "--out", "errors/train"]
    evaluate = ["evaluate", "--manifest", MANIFEST, "--checkpoint"]

    def extract(wav, *flags):
        return ["extract-audio", "--wav", wav, "--frames", "30", "--out", "errors/audio.feat", *flags]

    return [
        ("usage-bare", [], {}),
        ("usage-help", ["--help"], {}),
        *((f"usage-help-{c}", [c, "--help"], {}) for c in COMMANDS),
        *((f"usage-bare-{c}", [c], {}) for c in COMMANDS),
        ("usage-unknown-command", ["fly"], {}),
        ("usage-unknown-flag", [*train, "--nope", "1"], {}),
        ("option-bad-int", [*train, "--epochs", "two"], {}),
        ("option-bad-bool", [*train, "--shuffle", "maybe"], {}),
        ("option-bad-choice", [*train, "--model.cell", "rnn"], {}),
        ("option-zero-batch", [*train, "--batch-size", "0"], {}),
        ("option-negative-seed", [*train, "--seed", "-1"], {}),
        ("option-nan-clip", [*train, "--clip-norm", "nan"], {}),
        ("option-width-collapse", [*train, "--model.width-scale", "1000"], {}),
        ("option-zero-predict-batch", ["predict", "--manifest", MANIFEST, "--checkpoint", "runs/gru/best.ckpt",
                                       "--out", "errors/preds", "--batch-size", "0"], {}),
        ("config-unknown-key", [*train, "--config", "config/unknown-key.conf"], {}),
        ("config-no-equals", [*train, "--config", "config/no-equals.conf"], {}),
        ("config-missing-file", [*train, "--config", "config/nope.conf"], {}),
        ("config-not-utf8", [*train, "--config", "config/not-utf8.conf"], {}),
        ("config-nul", ["train", "--manifest", MANIFEST, "--config", "config/nul.conf"], {}),
        ("threads-env-not-int", [*evaluate, "runs/gru/best.ckpt"], {"AFFSEQ_THREADS": "many"}),
        ("threads-env-zero", [*evaluate, "runs/gru/best.ckpt"], {"AFFSEQ_THREADS": "0"}),
        ("extract-empty-mel-filters", extract("wav/a0.wav", "--n-mels", "4000"), {}),
        ("extract-missing-wav", extract("wav/nope.wav"), {}),
        ("extract-not-riff", extract("wav/not-riff.wav"), {}),
        ("checkpoint-missing", [*evaluate, "runs/nope/best.ckpt"], {}),
        ("checkpoint-flipped-byte", [*evaluate, "broken/flipped.ckpt"], {}),
        ("checkpoint-truncated", [*evaluate, "broken/truncated.ckpt"], {}),
        ("checkpoint-payload-flipped", [*evaluate, "broken/payload-flipped.ckpt"], {}),
        ("checkpoint-out-of-order", [*evaluate, "broken/out-of-order.ckpt"], {}),
        ("checkpoint-trailing-bytes", [*evaluate, "broken/trailing-bytes.ckpt"], {}),
        ("checkpoint-payload-flipped-predict", ["predict", "--manifest", MANIFEST, "--checkpoint",
                                                "broken/payload-flipped.ckpt", "--out", "errors/flipped-preds"], {}),
        ("checkpoint-wrong-width", [*evaluate, "broken/wrong-width.ckpt"], {}),
        ("checkpoint-wrong-width-predict", ["predict", "--manifest", MANIFEST, "--checkpoint",
                                            "broken/wrong-width.ckpt", "--out", "errors/wide-preds"], {}),
        ("width-mixed-train", ["train", "--manifest", "audio/mixed.csv", "--out", "errors/mixed"], {}),
        ("width-keys-checkpoint", [*evaluate, "runs/keys/best.ckpt"], {}),
        ("width-keys-checkpoint-predict", ["predict", "--manifest", MANIFEST, "--checkpoint", "runs/keys/best.ckpt",
                                           "--out", "errors/keys-preds"], {}),
        *((f"table-{name}", ["train", "--manifest", f"corpus/{name}.csv", "--out", f"errors/{name}"], {})
          for name in manifests),
        *((f"table-{name}-predict", ["predict", "--manifest", f"corpus/{name}.csv", "--checkpoint",
                                     "runs/gru/best.ckpt", "--out", f"errors/{name}-preds"], {})
          for name in NON_FINITE),
        ("table-nul-id-predict", ["predict", "--manifest", "corpus/nul-id.csv", "--checkpoint", "runs/gru/best.ckpt",
                                  "--out", "errors/nul-id-preds"], {}),
    ]


def _run_command(argv: list[str], extra_env: dict, work: Path, src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AFFSEQ_THREADS"}
    env.update({var: "1" for var in BLAS_VARS}, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **extra_env)
    done = subprocess.run([sys.executable, "-m", "affseq.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True, check=False)
    # an absolute path in a message names the work directory, which differs between runs
    stdout, stderr = (text.replace(str(work), "<work>") for text in (done.stdout, done.stderr))
    return {"argv": argv, "env": extra_env, "exit": done.returncode, "stdout": stdout, "stderr": stderr}


def record(work: Path, src: Path) -> dict:
    """Run the matrix in ``work`` against the engine in ``src``; returns the JSON record."""
    _write_inputs(work)
    commands = {name: _run_command(argv, env, work, src) for name, argv, env in _main_commands()}
    manifests = _write_broken_inputs(work)
    commands.update({name: _run_command(argv, env, work, src) for name, argv, env in _error_commands(manifests)})
    files = {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.rglob("*")) if p.is_file()}
    conditions = {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1}
    return {"conditions": conditions, "commands": commands, "files": files}


def compare(a: dict, b: dict) -> list[str]:
    """One line per difference between two records."""
    diffs = []
    for key in sorted(set(a["conditions"]) | set(b["conditions"])):
        if a["conditions"].get(key) != b["conditions"].get(key):
            diffs.append(f"conditions {key}: {a['conditions'].get(key)!r} != {b['conditions'].get(key)!r}")
    for name in sorted(set(a["commands"]) | set(b["commands"])):
        if name not in b["commands"] or name not in a["commands"]:
            diffs.append(f"command {name}: only in {'A' if name in a['commands'] else 'B'}")
            continue
        for field, left in a["commands"][name].items():
            right = b["commands"][name].get(field)
            if left != right:
                diffs.append(f"command {name} {field}: {left!r} != {right!r}")
    for path in sorted(set(a["files"]) | set(b["files"])):
        left, right = a["files"].get(path), b["files"].get(path)
        if left is None or right is None:
            diffs.append(f"file {path}: only in {'A' if right is None else 'B'}")
        elif left != right:
            diffs.append(f"file {path}: sha256 differs")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two records")
    parser.add_argument("--work", type=Path, help="new or empty directory to run the matrix in")
    parser.add_argument("--out", type=Path, help="where to write the JSON record")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="engine source directory (default: ./src)")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        diffs = compare(a, b)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} differences" if diffs else "no difference")
        return 1 if diffs else 0
    if args.work is None or args.out is None:
        parser.error("give --work and --out, or --compare A B")
    if args.work.exists() and any(args.work.iterdir()):
        parser.error(f"{args.work} is not empty")
    args.work.mkdir(parents=True, exist_ok=True)
    result = record(args.work.resolve(), args.src.resolve())
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sorted(name for name, _, _ in _main_commands() if result["commands"][name]["exit"] != 0)
    print(f"{args.out}: {len(result['commands'])} commands, {len(result['files'])} files"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
