"""End-to-end and per-layer benchmark of the affseq engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. The engine runs from ``src/`` through its
public CLI (``python -m affseq.cli``), one process per command, exactly as a
user would call it. Workloads (see ``perfbench/METRICS.md``):

  train-gru       train the full-width fusion GRU model, then predict and
                  evaluate with the best checkpoint
  ingest-predict  extract-audio per WAV clip, then predict and evaluate with
                  a fixed seeded BiLSTM checkpoint over videos of mixed length

Inputs are generated from ``--seed`` under ``.perfbench/`` in the checkout and
deleted afterwards. Commands repeat in cycles until ``--seconds`` have passed
(at least three cycles on train-gru and four on ingest-predict, so every
output is also checked byte for byte against later runs of the same seed).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each command
once plain and once under the span tracer and reports the per-layer metrics.
``--quick`` shrinks the corpus and divides every layer width by 8, for the
schema test.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, including the
machine record and the per-span table, is written to
``.perfbench/results/``. Exit code 2 means the benchmark could not run
(no engine sources, bad arguments, threads over ``nproc``); 3 means a traced
run broke a span invariant.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import report  # noqa: E402
from inputs import Video  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "main.items_per_s": "items/s",
    "predict.frames_per_s": "frames/s",
    "evaluate.frames_per_s": "frames/s",
    "val_ccc": "1",
    "peak_rss_mib": "MiB",
    "success_rate": "1",
}
WORKLOADS = ("train-gru", "ingest-predict")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
HISTORY_HEADER = "epoch,train_loss,val_ccc_valence,val_ccc_arousal,val_mse_valence,val_mse_arousal"
BATCH_SIZE = 32
LEARNING_RATE = "1e-3"
SIGNAL = 0.5  # label-signal scale in the synthetic features; unit noise
RESTORE_PROBES = 2  # set-up samples per ingest cycle
CHECKPOINT_SEED = 1234  # model seed of ingest-predict's fixed checkpoint
CHECKPOINT_CELL = "bilstm"  # its recurrent cell: train-gru covers the GRU
# Fewest cycles of a --trace 0 run. On a shared host speed drifts in phases
# of seconds to minutes, so a rate is only as steady as the span it pools;
# these make a run about 50 s on either workload.
TRAIN_CYCLES = 3
INGEST_CYCLES = 4
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Scale:
    width_scale: int
    train_lengths: tuple[int, ...]
    val_lengths: tuple[int, ...]
    epochs: int
    ingest_train_lengths: tuple[int, ...]
    ingest_val_lengths: tuple[int, ...]
    ingest_epochs: int


# Medium-length videos (~300 frames, 30 windows each). The 8 train videos
# are 239 windows, eight batches of up to 32, and 27 MiB of float32 features on
# disk, more than twice one float64 batch (11 MiB); the 8 val videos double
# that. Ingest mixes lengths; four clips are shorter than one 15-frame window.
FULL = Scale(
    width_scale=1,
    train_lengths=(280, 290, 300, 310, 320, 295, 305, 300),
    val_lengths=(300, 290, 310, 300, 295, 305, 300, 300),
    epochs=2,
    ingest_train_lengths=(300, 300, 300, 300),
    ingest_val_lengths=(6, 9, 12, 14, 24, 45, 75, 120, 180, 240, 300, 300),
    ingest_epochs=3,
)
QUICK = Scale(
    width_scale=8,
    train_lengths=(40, 35),
    val_lengths=(30,),
    epochs=1,
    ingest_train_lengths=(30,),
    ingest_val_lengths=(6, 20),
    ingest_epochs=1,
)


class Abort(Exception):
    """A command failed in a way later commands depend on."""


class TimeUp(Exception):
    pass


@dataclass
class Op:
    label: str
    code: int
    wall: float
    rss_mib: float
    marker: float | None  # seconds from launch until the marker file appeared
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)


def _on_alarm(signum, frame):
    raise TimeUp()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


class Bench:
    def __init__(self, args, scale: Scale, env: dict[str, str], loader_threads: int):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = scale
        self.env = env
        self.loader_threads = loader_threads
        self.work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.started = time.perf_counter()
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.span_files: list[Path] = []
        self.overhead: list[tuple[float, float]] = []  # (plain wall, traced wall)
        self.untimed = 0.0  # preparation inside the measured loop, not counted against --seconds

    # -- processes -----------------------------------------------------------

    def launch(self, label: str, cmd: list[str], marker: Path | None) -> Op:
        log = self.work / "logs" / f"{len(self.ops):04d}-{label}"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{log}.out", "w+", encoding="utf-8") as out, open(f"{log}.err", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            seen = None
            remaining = DEADLINE_S - (start - self.started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.01))
            try:
                status = None
                while marker is not None and seen is None:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    status = None
                    if marker.exists():
                        seen = time.perf_counter() - start
                    else:
                        time.sleep(0.0005)
                if status is None:
                    _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:  # deadline, SIGTERM or Ctrl-C: never leave the child running
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            op = Op(label, proc.returncode, wall, usage.ru_maxrss / 1024.0, seen, out.read(), err.read())
        self.ops.append(op)
        if op.code != 0:
            op.errors.append(f"exit code {op.code}: {op.stderr.strip()[-300:]}")
        return op

    def cli(self, label: str, args: list, marker: Path | None = None, traced: bool = False) -> Op:
        args = [str(a) for a in args]
        if traced:
            spans = self.work / "spans" / f"{len(self.ops):04d}-{label}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            self.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans), "--", *args]
        else:
            cmd = [sys.executable, "-m", "affseq.cli", *args]
        return self.launch(label, cmd, marker)

    def step(self, label: str, make_args, out: Path, check, marker: str | None = None) -> Op:
        """Run one command, checking its outputs; a traced run repeats it under the tracer.

        ``make_args(out)`` builds the arguments for an output location, so the
        traced repeat writes next to the plain one and both are checked against
        the same digests: tracing must not change a single output byte.
        """
        runs = [(out, False)]
        if self.trace:
            runs.append((out.with_name(out.name + "-traced"), True))
        ops = []
        for path, traced in runs:
            path.mkdir(parents=True, exist_ok=True)
            op = self.cli(label, make_args(path), path / marker if marker else None, traced)
            if op.code == 0:
                try:
                    check(op, path)
                except (OSError, ValueError, IndexError) as exc:
                    op.errors.append(f"output check: {exc}")
            ops.append(op)
            if op.code != 0:
                raise Abort(f"{label} failed")
        if self.trace:
            self.overhead.append((ops[0].wall, ops[1].wall))
        return ops[0]

    def same_bytes(self, key: str, path: Path, op: Op) -> None:
        """Outputs of one seed must be byte-identical across every repeat in a run."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            op.errors.append(f"{key}: bytes differ from the first run of this seed")

    def cycles(self, min_cycles: int):
        """Yield cycle numbers until --seconds have passed and ``min_cycles`` ran."""
        cycle = 0
        measure_start = time.perf_counter()
        while cycle < min_cycles or time.perf_counter() - measure_start - self.untimed < self.seconds:
            if cycle >= min_cycles and time.perf_counter() - self.started > DEADLINE_S / 2:
                return
            yield cycle
            cycle += 1

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.errors)


# -- output checks ----------------------------------------------------------------


def check_history(op: Op, path: Path, epochs: int) -> float | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HISTORY_HEADER:
        op.errors.append(f"{path}: bad history header")
        return None
    rows = lines[1:]
    if len(rows) != epochs:
        op.errors.append(f"{path}: {len(rows)} history rows for {epochs} epochs")
        return None
    best = None
    for i, row in enumerate(rows, start=1):
        cells = row.split(",")
        values = [float(c) for c in cells[1:]]
        if cells[0] != str(i) or len(values) != 5 or not all(np.isfinite(values)):
            op.errors.append(f"{path}: malformed history row {row!r}")
            return None
        score = 0.5 * (values[1] + values[2])
        best = score if best is None else max(best, score)
    return best


def check_predictions(op: Op, out: Path, videos: list[Video]) -> None:
    files = sorted(p.name for p in out.glob("*.csv"))
    if files != sorted(f"{v.video_id}.csv" for v in videos):
        op.errors.append(f"{out}: prediction files {files[:5]}... do not match the manifest")
        return
    for video in videos:
        path = out / f"{video.video_id}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "frame,valence,arousal" or len(lines) != video.n_frames + 1:
            op.errors.append(f"{path}: bad header or {len(lines) - 1} rows for {video.n_frames} frames")
            continue
        table = np.array([row.split(",") for row in lines[1:]], dtype=np.float64)
        frames_ok = np.array_equal(table[:, 0], np.arange(video.n_frames))
        values = table[:, 1:]
        if not frames_ok or not np.all(np.isfinite(values)) or np.any(np.abs(values) >= 1.0):
            op.errors.append(f"{path}: frame indices or values outside (-1, 1)")


def check_report(op: Op, path: Path, frames: int) -> float | None:
    expected = f"frames evaluated: {frames}"
    if expected not in op.stdout:
        op.errors.append(f"evaluate stdout lacks {expected!r}: {op.stdout.strip()[:200]!r}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 3 or lines[0] != "metric,valence,arousal":
        op.errors.append(f"{path}: malformed report")
        return None
    ccc = [float(c) for c in lines[1].split(",")[1:]]
    mse = [float(c) for c in lines[2].split(",")[1:]]
    if not (lines[1].startswith("ccc,") and lines[2].startswith("mse,")
            and all(np.isfinite(ccc + mse)) and all(-1 <= c <= 1 for c in ccc) and min(mse) >= 0):
        op.errors.append(f"{path}: report values out of range")
        return None
    return 0.5 * (ccc[0] + ccc[1])


# -- workloads ----------------------------------------------------------------------


def _train_args(b: Bench, manifest: Path, cell: str, epochs: int, seed: int):
    return lambda out: [
        "train", "--manifest", manifest, "--out", out, "--epochs", epochs,
        "--batch-size", BATCH_SIZE, "--seed", seed, "--learning-rate", LEARNING_RATE,
        "--threads", b.loader_threads, "--model.cell", cell,
        "--model.width-scale", b.scale.width_scale,
    ]


class Samples:
    """Per-run measurements: rates pool work over seconds; other metrics take the median."""

    def __init__(self):
        self.rates: dict[str, list[float]] = {}
        self.values: dict[str, list[float]] = {}

    def rate(self, name: str, amount: float, seconds: float) -> None:
        pooled = self.rates.setdefault(name, [0.0, 0.0])
        pooled[0] += amount
        pooled[1] += seconds

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        out = {k: statistics.median(v) for k, v in self.values.items()}
        out.update({k: a / s for k, (a, s) in self.rates.items() if s > 0})
        return out


def _predict_evaluate(b: Bench, d: Path, manifest: Path, ckpt: Path, videos: list[Video], m: Samples):
    """Export predictions for every manifest video, then score the val split.

    Returns the evaluate command and its mean CCC.
    """
    val_frames = sum(v.n_frames for v in videos if v.split == "val")

    def check_predict(op, out):
        check_predictions(op, out, videos)
        for video in videos:
            b.same_bytes(f"predict/{video.video_id}.csv", out / f"{video.video_id}.csv", op)

    predict = b.step(
        "predict",
        lambda out: ["predict", "--manifest", manifest, "--checkpoint", ckpt, "--out", out,
                     "--threads", b.loader_threads, "--batch-size", BATCH_SIZE],
        d / "preds", check_predict,
    )
    scores = []

    def check_evaluate(op, out):
        scores.append(check_report(op, out / "report.csv", val_frames))
        b.same_bytes("evaluate/report.csv", out / "report.csv", op)

    evaluate = b.step(
        "evaluate",
        lambda out: ["evaluate", "--manifest", manifest, "--checkpoint", ckpt,
                     "--report", out / "report.csv", "--threads", b.loader_threads,
                     "--batch-size", BATCH_SIZE],
        d / "eval", check_evaluate,
    )
    m.rate("predict.frames_per_s", sum(v.n_frames for v in videos), predict.wall)
    m.rate("evaluate.frames_per_s", val_frames, evaluate.wall)
    return predict, evaluate, scores[0]


def run_train(b: Bench, cell: str) -> Samples:
    sc = b.scale
    videos = [Video(f"tr{i:02d}", "train", n) for i, n in enumerate(sc.train_lengths)]
    videos += [Video(f"va{i:02d}", "val", n) for i, n in enumerate(sc.val_lengths)]
    manifest = inputs.feature_corpus(b.work / "corpus", b.seed, videos, SIGNAL)
    windows = sum(inputs.window_count(v.n_frames) for v in videos if v.split == "train")

    m = Samples()
    for cycle in b.cycles(1 if b.trace else TRAIN_CYCLES):
        d = b.work / f"cycle{cycle}"
        if not b.trace:

            def check_setup(op, out):
                check_history(op, out / "history.csv", 0)
                b.same_bytes("setup/best.ckpt", out / "best.ckpt", op)

            op = b.step("train-setup", _train_args(b, manifest, cell, 0, b.seed), d / "setup",
                        check_setup, marker="history.csv")
            m.add("setup_s", op.marker)
        best = []

        def check_train(op, out):
            best.append(check_history(op, out / "history.csv", sc.epochs))
            b.same_bytes("train/best.ckpt", out / "best.ckpt", op)
            b.same_bytes("train/history.csv", out / "history.csv", op)
            if op.marker is None:
                op.errors.append("history.csv never appeared while training ran")

        train = b.step("train", _train_args(b, manifest, cell, sc.epochs, b.seed), d / "train",
                       check_train, marker="history.csv")
        predict, evaluate, score = _predict_evaluate(b, d, manifest, d / "train" / "best.ckpt", videos, m)
        # best.ckpt is the best epoch's model stored as float32: it must score
        # what history.csv recorded for that epoch, up to float32 rounding.
        if best[0] is not None and score is not None and abs(score - best[0]) > 1e-3:
            evaluate.errors.append(f"best.ckpt scores {score} but history's best is {best[0]}")
        if train.marker is not None:
            m.add("setup_s", train.marker)
            m.rate("main.items_per_s", windows * sc.epochs, train.wall - train.marker)
        # Training holds the whole corpus; its process is the one whose memory a
        # constant-memory data path must bound. Scoring RSS is ingest-predict's.
        m.add("peak_rss_mib", train.rss_mib)
        m.add("predict.rss_mib", predict.rss_mib)
        m.add("val_ccc", best[0] if best[0] is not None else 0.0)
    return m


def run_ingest(b: Bench) -> Samples:
    sc = b.scale
    videos = [Video(f"tr{i:02d}", "train", n) for i, n in enumerate(sc.ingest_train_lengths)]
    videos += [Video(f"va{i:02d}", "val", n) for i, n in enumerate(sc.ingest_val_lengths)]
    data = b.work / "inputs"
    inputs.wav_corpus(data, b.seed, videos, SIGNAL)

    m = Samples()
    ckpt = None
    for cycle in b.cycles(1 if b.trace else INGEST_CYCLES):
        d = b.work / f"cycle{cycle}"
        rss = []
        for video in videos:

            def check_extract(op, out, video=video):
                path = out / "audio.feat"
                want = f"rows={video.n_frames} cols=168"
                if want not in op.stdout or path.stat().st_size != 16 + 4 * 168 * video.n_frames:
                    op.errors.append(f"{path}: expected {want}, got {op.stdout.strip()!r}")
                b.same_bytes(f"extract/{video.video_id}", path, op)

            op = b.step(
                "extract-audio",
                lambda out, video=video: ["extract-audio", "--wav", data / f"{video.video_id}.wav",
                                          "--frames", video.n_frames, "--out", out / "audio.feat"],
                d / "audio" / video.video_id, check_extract,
            )
            m.rate("main.items_per_s", video.n_frames, op.wall)
            rss.append(op.rss_mib)
        manifest = inputs.extracted_manifest(d / "manifest.csv", videos, data, d / "audio")

        if ckpt is None:
            # The fixed checkpoint: a seeded model trained briefly on this
            # corpus's train split. Untimed and never traced: ingest-predict
            # itself runs no backward pass and no optimizer step.
            prep = time.perf_counter()
            out = b.work / "checkpoint"
            op = b.cli("checkpoint", _train_args(b, manifest, CHECKPOINT_CELL, sc.ingest_epochs, CHECKPOINT_SEED)(out))
            if op.code != 0:
                raise Abort("checkpoint training failed")
            check_history(op, out / "history.csv", sc.ingest_epochs)
            ckpt = out / "best.ckpt"
            b.untimed += time.perf_counter() - prep
        if not b.trace:
            for _ in range(RESTORE_PROBES):
                probe = b.launch("restore", [sys.executable, str(HERE / "child.py"), "restore", str(ckpt)], None)
                if probe.code != 0:
                    raise Abort("restore probe failed")
                m.add("setup_s", json.loads(probe.stdout.strip().splitlines()[-1])["seconds"])
        predict, evaluate, score = _predict_evaluate(b, d, manifest, ckpt, videos, m)
        m.add("peak_rss_mib", max(rss + [predict.rss_mib, evaluate.rss_mib]))
        m.add("val_ccc", score if score is not None else 0.0)
    return m


# -- environment --------------------------------------------------------------------


def _positive_int_env(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw in (None, ""):
        return None
    value = int(raw)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {raw}")
    return value


def thread_settings() -> tuple[int, int, int]:
    """(nproc, BLAS threads, loader threads): BLAS pinned to 1 unless the environment sets it."""
    nproc = len(os.sched_getaffinity(0))
    blas = next((v for v in map(_positive_int_env, BLAS_VARS) if v is not None), 1)
    loader = _positive_int_env("AFFSEQ_THREADS") or 1
    return nproc, blas, loader


def child_env(blas: int, loader: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(blas)
    env["AFFSEQ_THREADS"] = str(loader)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(env: dict[str, str], nproc: int) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS") or k == "AFFSEQ_THREADS"},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny corpus and width_scale 8, for the schema test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affseq" / "cli.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        nproc, blas, loader = thread_settings()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if blas * loader > nproc:
        print(f"error: loader threads {loader} x BLAS threads {blas} exceed nproc {nproc}", file=sys.stderr)
        return 2
    env = child_env(blas, loader)
    compileall.compile_dir(str(SRC), quiet=1)
    machine = environment(env, nproc)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)

    bench = Bench(args, QUICK if args.quick else FULL, env, loader)
    aborted = None
    try:
        try:
            if args.workload == "ingest-predict":
                samples = run_ingest(bench)
            else:
                samples = run_train(bench, args.workload.removeprefix("train-"))
        except (Abort, TimeUp) as exc:
            aborted = f"{type(exc).__name__}: {exc}"
            samples = Samples()
        if args.trace:
            pct = 0.0
            if bench.overhead:
                plain = sum(p for p, _ in bench.overhead)
                pct = 100.0 * (sum(t for _, t in bench.overhead) / plain - 1.0)
            try:
                metrics, table = report.per_layer_metrics(bench.span_files, pct)
            except report.TraceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            units = report.PER_LAYER_UNITS
        else:
            samples.add("success_rate", 1.0 - bench.failed / max(len(bench.ops), 1))
            measured = samples.metrics()
            metrics = {k: measured.get(k, 0.0) for k in END_TO_END_UNITS}
            units, table = END_TO_END_UNITS, {}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    errors = [f"{op.label}: {e}" for op in bench.ops for e in op.errors]
    if aborted:
        errors.append(aborted)
    result = {
        "correct": not errors,
        "attempted": max(len(bench.ops), 1),
        "failed": bench.failed + (1 if aborted and not bench.failed else 0),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "machine": machine, "result": result, "errors": errors,
              "samples": vars(samples), "spans": table,
              "ops": [{"label": op.label, "wall": op.wall} for op in bench.ops]}
    print(f"# machine: {json.dumps(machine)}")
    if args.trace and report.step_shares(metrics):
        record["step_share"] = report.step_shares(metrics)
        top = sorted(record["step_share"].items(), key=lambda kv: -kv[1])[:5]
        print("# share of a train step (fwd+bwd): " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in top))
    for message in errors:
        print(f"# FAILED {message}")
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
