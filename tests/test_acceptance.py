"""Acceptance gate: ten checks covering numerics, training, and the I/O contract.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion. Each check is self-contained and uses fixed seeds.
"""

import struct
import time
import zlib

import numpy as np
import pytest

from affseq.checkpoint import load_checkpoint, save_checkpoint
from affseq.cli import main as cli_main
from affseq.dataset import load_manifest, window_starts
from affseq.dsp import fft, plan_segments
from affseq.errors import ChecksumError
from affseq.metrics import ccc
from affseq.model import ModelConfig, build
from affseq.nn.layers import BatchNorm, Dense, PReLU, Tanh
from affseq.nn.losses import masked_mse
from affseq.nn.optim import RMSprop, clip_global_norm
from affseq.nn.recurrent import Bidirectional, GRULayer, LSTMLayer
from affseq.train import TrainConfig, predict, train

from conftest import make_corpus
from oracles import (
    ccc_direct,
    check_layer_gradients,
    naive_dft,
    num_grad,
    rel_err,
    segment_invariants,
    window_starts_oracle,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# --- synthetic sequence tasks (criteria 6 and 7) -------------------------------

def _sinusoid_tracks(rng, n_seq, n_steps):
    t = np.arange(n_steps)
    phase = rng.uniform(0, 2 * np.pi, size=(n_seq, 1))
    freq = rng.uniform(0.15, 0.5, size=(n_seq, 1))
    return 0.8 * np.sin(freq * t + phase)


def _embed(rng, latent, dim):
    # latent [n_seq x n_steps x 2] -> features [n_seq x n_steps x dim]
    return latent @ (rng.normal(size=(2, dim)) / np.sqrt(2))


def _fit(model, inputs, targets, epochs, batch_size, seed, eval_every=0):
    """Shared mini training loop at the mandated learning rate."""
    optimizer = RMSprop(model.params, model.grad_arena, lr=1e-4)
    rng = np.random.default_rng(seed)
    mask = np.ones(targets.shape[:2], dtype=bool)
    n_seq = targets.shape[0]
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_seq)
        for start in range(0, n_seq, batch_size):
            idx = order[start : start + batch_size]
            model.zero_grads()
            pred = model.forward({m: v[idx] for m, v in inputs.items()}, train=True)
            _, d_pred = masked_mse(pred, targets[idx], mask[idx])
            model.backward(d_pred)
            clip_global_norm(model.grads, 5.0)
            optimizer.step()
        if eval_every and epoch % eval_every == 0:
            pred = model.forward(inputs, train=False)
            mse = float(np.mean((pred - targets) ** 2))
            ccc_v = ccc(pred[..., 0].ravel(), targets[..., 0].ravel())
            ccc_a = ccc(pred[..., 1].ravel(), targets[..., 1].ravel())
            if mse < 1e-3 and ccc_v > 0.95 and ccc_a > 0.95:
                return epoch, mse, ccc_v, ccc_a
    pred = model.forward(inputs, train=False)
    mse = float(np.mean((pred - targets) ** 2))
    ccc_v = ccc(pred[..., 0].ravel(), targets[..., 0].ravel())
    ccc_a = ccc(pred[..., 1].ravel(), targets[..., 1].ravel())
    return epochs, mse, ccc_v, ccc_a


def _val_ccc(model, inputs, targets):
    pred = model.forward(inputs, train=False)
    return 0.5 * (
        ccc(pred[..., 0].ravel(), targets[..., 0].ravel())
        + ccc(pred[..., 1].ravel(), targets[..., 1].ravel())
    )


# --- 1: FFT vs naive DFT ----------------------------------------------------------

def test_criterion_01_fft_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = 2 ** int(rng.integers(2, 11))  # 4 .. 1024
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        worst = max(worst, float(np.max(np.abs(fft(x) - naive_dft(x)))))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "fft matches naive dft",
        worst < 1e-9 and elapsed < 5.0,
        f"max dev {worst:.2e}, {elapsed:.1f}s",
    )


# --- 2: per-layer gradient suite ---------------------------------------------------

def test_criterion_02_layer_gradient_suite():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    cases = [
        ("dense", 1e-6, lambda: Dense(5, 4, "d", rng), [(3, 5), (1, 5), (7, 5)]),
        ("td-dense", 1e-6, lambda: Dense(6, 3, "td", rng), [(2, 4, 6), (3, 1, 6), (1, 9, 6)]),
        ("prelu", 1e-5, lambda: PReLU(4, "p"), [(3, 4), (2, 5, 4), (8, 4)]),
        ("batchnorm", 1e-5, lambda: BatchNorm(3, "bn"), [(4, 3), (2, 6, 3), (16, 3)]),
        ("tanh", 1e-5, lambda: Tanh(), [(4, 2), (2, 5, 2), (9, 3)]),
        ("gru", 1e-5, lambda: GRULayer(4, 5, "g", rng), [(2, 6, 4), (3, 1, 4), (1, 9, 4)]),
        ("lstm", 1e-5, lambda: LSTMLayer(4, 5, "l", rng), [(2, 6, 4), (3, 1, 4), (1, 9, 4)]),
        (
            "bilstm",
            1e-5,
            lambda: Bidirectional(lambda name: LSTMLayer(3, 4, name, rng), "bi"),
            [(2, 5, 3), (3, 1, 3), (1, 8, 3)],
        ),
    ]
    failures = []
    for label, tol, make, shapes in cases:
        for shape in shapes:
            try:
                check_layer_gradients(make(), rng.normal(size=shape), rng, tol=tol)
            except AssertionError as exc:
                failures.append(f"{label}{shape}: {exc}")

    # masked MSE gradient w.r.t. predictions
    for shape in [(2, 5, 2), (3, 4, 2), (1, 15, 2)]:
        pred = rng.normal(size=shape)
        target = rng.normal(size=shape)
        mask = rng.random(shape[:2]) < 0.7
        mask[:, 0] = True
        _, grad = masked_mse(pred, target, mask)
        numeric = num_grad(lambda: masked_mse(pred, target, mask)[0], pred)
        err = rel_err(grad, numeric)
        if err >= 1e-5:
            failures.append(f"masked-mse{shape}: rel err {err:.2e}")

    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "layer gradients match finite differences",
        not failures and elapsed < 60.0,
        f"{len(cases) * 3 + 3} checks, {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


# --- 3: full-model gradient check -------------------------------------------

def test_criterion_03_full_model_gradients():
    rng = np.random.default_rng(303)
    config = ModelConfig(dropout=0.0, width_scale=32, audio_dim=6, expnet_dim=8, facepose_dim=5)
    model = build(config, seed=303)
    inputs = {m: rng.normal(size=(2, 15, config.input_dim(m))) for m in config.modalities()}
    out = model.forward(inputs, train=True)
    proj = rng.normal(size=out.shape)
    model.zero_grads()
    input_grads = model.backward(proj)

    def loss():
        return float(np.sum(model.forward(inputs, train=True) * proj))

    worst = 0.0
    for (_, holder, key), grad in zip(model.params, model.grads):
        worst = max(worst, rel_err(grad, num_grad(loss, holder[key])))
    for modality in config.modalities():
        worst = max(worst, rel_err(input_grads[modality], num_grad(loss, inputs[modality])))
    _verdict(3, "full fusion model gradient check", worst < 1e-4, f"max rel err {worst:.2e}")


# --- 4: CCC oracle ---------------------------------------------------------------

def test_criterion_04_ccc_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        x = rng.normal(scale=rng.uniform(0.2, 3.0), size=n)
        y = rng.normal(scale=rng.uniform(0.2, 3.0), size=n) + rng.uniform(-2, 2)
        worst = max(worst, abs(ccc(x, y) - ccc_direct(x, y)))
    hand_scaled = abs(ccc([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) - 8.0 / 22.0)
    hand_shifted = abs(ccc([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]) - 4.0 / 7.0)
    ok = worst < 1e-12 and hand_scaled < 5e-13 and hand_shifted < 5e-13
    _verdict(
        4,
        "ccc matches direct formula",
        ok,
        f"1000 pairs max dev {worst:.1e}; hand values dev {hand_scaled:.1e}/{hand_shifted:.1e}",
    )


# --- 5: segmentation and windowing combinatorics ---------------------------------

def test_criterion_05_segmentation_combinatorics():
    started = time.perf_counter()
    checked = 0
    for clip_len in range(1, 2001):
        for n_frames in range(1, min(clip_len, 50) + 1):
            segment_invariants(clip_len, n_frames, plan_segments(clip_len, n_frames))
            checked += 1
    for n_frames in range(1, 501):
        assert window_starts(n_frames) == window_starts_oracle(n_frames), n_frames
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        "segment plans and window starts match oracles",
        True,
        f"{checked} plans + 500 window layouts, {elapsed:.1f}s",
    )


# --- 6: overfit sanity --------------------------------------------------------

def test_criterion_06_overfit_sanity():
    rng = np.random.default_rng(606)
    n_seq, n_steps = 64, 15
    z1 = _sinusoid_tracks(rng, n_seq, n_steps)
    z2 = _sinusoid_tracks(rng, n_seq, n_steps)
    latent = np.stack([z1, z2], axis=-1)
    inputs = {
        "audio": _embed(rng, latent, 10),
        "expnet": _embed(rng, latent, 12),
        "facepose": _embed(rng, latent, 8),
    }
    targets = np.stack([0.5 * z1, 0.4 * z2], axis=-1)

    config = ModelConfig(dropout=0.0, width_scale=4, audio_dim=10, expnet_dim=12, facepose_dim=8)
    model = build(config, seed=606)
    started = time.perf_counter()
    epoch, mse, ccc_v, ccc_a = _fit(
        model, inputs, targets, epochs=500, batch_size=4, seed=606, eval_every=10
    )
    elapsed = time.perf_counter() - started
    ok = mse < 1e-3 and ccc_v > 0.95 and ccc_a > 0.95 and elapsed < 600.0
    _verdict(
        6,
        "fusion model overfits 64 synthetic sequences",
        ok,
        f"epoch {epoch}, mse {mse:.2e}, ccc ({ccc_v:.3f}, {ccc_a:.3f}), {elapsed:.0f}s",
    )


# --- 7: fusion beats unimodal -------------------------------------------------

def test_criterion_07_fusion_beats_unimodal():
    rng = np.random.default_rng(707)
    n_train, n_val, n_steps = 48, 16, 15
    n_seq = n_train + n_val
    audio_latent = np.stack(
        [_sinusoid_tracks(rng, n_seq, n_steps), _sinusoid_tracks(rng, n_seq, n_steps)], axis=-1
    )
    video_latent = np.stack(
        [_sinusoid_tracks(rng, n_seq, n_steps), _sinusoid_tracks(rng, n_seq, n_steps)], axis=-1
    )
    inputs = {
        "audio": _embed(rng, audio_latent, 10),
        "expnet": _embed(rng, video_latent, 12),
        "facepose": _embed(rng, video_latent, 8),
    }
    # each output needs both the audio latent and the video latent
    targets = np.stack(
        [
            0.5 * audio_latent[..., 0] + 0.45 * video_latent[..., 0],
            0.45 * audio_latent[..., 1] + 0.5 * video_latent[..., 1],
        ],
        axis=-1,
    )
    train_x = {m: v[:n_train] for m, v in inputs.items()}
    val_x = {m: v[n_train:] for m, v in inputs.items()}
    train_y, val_y = targets[:n_train], targets[n_train:]

    scores = {}
    for variant in ("fusion", "audio_only", "video_only"):
        config = ModelConfig(
            variant=variant, dropout=0.0, width_scale=4, audio_dim=10, expnet_dim=12, facepose_dim=8
        )
        model = build(config, seed=707)
        used = config.modalities()
        _fit(
            model,
            {m: train_x[m] for m in used},
            train_y,
            epochs=150,
            batch_size=8,
            seed=707,
        )
        scores[variant] = _val_ccc(model, {m: val_x[m] for m in used}, val_y)

    margin_audio = scores["fusion"] - scores["audio_only"]
    margin_video = scores["fusion"] - scores["video_only"]
    ok = margin_audio >= 0.05 and margin_video >= 0.05
    _verdict(
        7,
        "fusion val CCC beats both unimodal variants",
        ok,
        f"fusion {scores['fusion']:.3f}, audio {scores['audio_only']:.3f}, "
        f"video {scores['video_only']:.3f}, margins ({margin_audio:.3f}, {margin_video:.3f})",
    )


# --- 8: checkpoint round trip --------------------------------------------------

def test_criterion_08_checkpoint_round_trip(tmp_path, rng):
    manifest = make_corpus(
        tmp_path / "corpus", [("tr0", "train", 25), ("va0", "val", 20)], rng
    )
    rows = load_manifest(manifest)
    config = TrainConfig(epochs=1, seed=8, model=ModelConfig(width_scale=32))
    ckpt, _ = train(rows, config, tmp_path / "run")

    before = predict(rows, ckpt, tmp_path / "before")
    copy_path = tmp_path / "copy.ckpt"
    save_checkpoint(copy_path, ckpt)
    after = predict(rows, load_checkpoint(copy_path), tmp_path / "after")
    identical = all(before[v].read_bytes() == after[v].read_bytes() for v in before)

    corrupt_raw = tmp_path / "corrupt_raw.ckpt"
    raw = bytearray(copy_path.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    corrupt_raw.write_bytes(bytes(raw))
    raw_detected = False
    try:
        load_checkpoint(corrupt_raw)
    except ChecksumError:
        raw_detected = True

    # fix the trailing whole-file CRC so the per-tensor payload CRC must catch it
    corrupt_tensor = tmp_path / "corrupt_tensor.ckpt"
    body = bytearray(copy_path.read_bytes()[:-4])
    body[len(body) // 2] ^= 0x10
    corrupt_tensor.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    tensor_detected = False
    try:
        load_checkpoint(corrupt_tensor)
    except ChecksumError:
        tensor_detected = True

    _verdict(
        8,
        "checkpoint round trip is bit-exact and CRC-guarded",
        identical and raw_detected and tensor_detected,
        f"{len(before)} tracks identical; corruption detected {raw_detected}/{tensor_detected}",
    )


# --- 9: seeded determinism through the CLI ------------------------------------

def test_criterion_09_cli_determinism(tmp_path, rng):
    manifest = make_corpus(
        tmp_path / "corpus", [("tr0", "train", 30), ("tr1", "train", 25), ("va0", "val", 20)], rng
    )
    histories = []
    for run_dir in ("a", "b"):
        code = cli_main(
            [
                "train",
                "--manifest", str(manifest),
                "--out", str(tmp_path / run_dir),
                "--epochs", "2",
                "--seed", "7",
                "--threads", "1",
                "--model.width-scale", "32",
            ]
        )
        assert code == 0
        histories.append((tmp_path / run_dir / "history.csv").read_bytes())
    _verdict(
        9,
        "two seed-7 runs produce identical history bytes",
        histories[0] == histories[1],
        f"{len(histories[0])} bytes",
    )


# --- 10: prediction output contract ---------------------------------------------

def test_criterion_10_output_contract(tmp_path, rng):
    lengths = (14, 15, 25, 30)
    videos = [(f"v{n}", "train" if i == 0 else "val", n) for i, n in enumerate(lengths)]
    manifest = make_corpus(tmp_path / "corpus", videos, rng)
    rows = load_manifest(manifest)
    ckpt, _ = train(
        rows, TrainConfig(epochs=1, seed=10, model=ModelConfig(width_scale=32)), tmp_path / "run"
    )
    written = predict(rows, ckpt, tmp_path / "preds")

    ok = True
    details = []
    for n in lengths:
        lines = written[f"v{n}"].read_text().splitlines()
        rows_ok = len(lines) == n + 1
        values = np.array([line.split(",")[1:] for line in lines[1:]], dtype=np.float64)
        range_ok = bool(np.all(np.abs(values) <= 1.0))
        ok = ok and rows_ok and range_ok
        details.append(f"{n}:{len(lines) - 1}")
    _verdict(
        10,
        "predictions bounded and row counts match frame counts",
        ok,
        "rows " + ", ".join(details),
    )
