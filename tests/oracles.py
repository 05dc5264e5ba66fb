"""Independent reference implementations used to cross-check the package.

Everything here is written from the defining formulas, deliberately not
sharing code paths with the package: a whole-file AFFW reader, naive DFT,
direct-formula CCC, CCC in exact rational arithmetic, a covering-set
windowing oracle, slice-and-pad window cutting, a per-window overlap merge,
a pointwise mel filterbank, a sign-split sigmoid, a single GRU step, a
per-tensor RMSprop step, and central finite-difference gradient helpers. Bitwise
layer references keep the earlier cache-everything design: GRU and LSTM
backpropagation through time that caches every step's state (the previous
hidden state and r*h included), dropout that keeps a float mask, and weight
gradients summed with ``+=`` into zeros; the layers, which hold each value
once, must match them bit for bit. Three more bitwise references are
built partly from the package's own pieces: the per-window inference path
(the package's windowing, gather and merge), which the frame-block path of
``predict_video`` must match; the per-segment audio feature path (the
package's segment plan, filterbank and DCT around a segment-at-a-time STFT),
which the chunked ``extract_audio_track`` must match; and a straight-line
trainer (the package's model, loss and metrics inside the oracles' windowing,
optimizer and merge), which ``train`` must match.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np


def read_affw(path) -> np.ndarray:
    """The float32 [rows x cols] payload of the AFFW file at ``path``: the header's shape, then the bytes after its 16."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _, rows, cols = struct.unpack_from("<III", blob, 4)
    return np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=16).reshape(rows, cols)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) DFT straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


def ccc_direct(x, y) -> float:
    """Concordance correlation via E[xy] - E[x]E[y] moments."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx = x.sum() / len(x)
    my = y.sum() / len(y)
    vx = (x * x).sum() / len(x) - mx * mx
    vy = (y * y).sum() / len(y) - my * my
    cov = (x * y).sum() / len(x) - mx * my
    return 2.0 * cov / (vx + vy + (mx - my) ** 2)


def ccc_exact(x, y) -> float | None:
    """Concordance correlation of the float inputs in exact rational arithmetic, rounded once.

    None when the denominator is exactly 0 (both inputs constant with equal means).
    """
    xs, ys = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    vx = sum((a - mx) ** 2 for a in xs) / len(xs)
    vy = sum((b - my) ** 2 for b in ys) / len(ys)
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / len(xs)
    denom = vx + vy + (mx - my) ** 2
    return None if denom == 0 else float(2 * cov / denom)


def segment_invariants(T: int, N: int, plan) -> None:
    """Assert every stated property of a segmentation plan ``(segment_len, starts)`` for clip length T."""
    L, starts = plan
    starts = list(starts)
    assert len(starts) == N
    assert L >= 1
    assert starts[0] == 0
    assert starts[-1] + L == T if N >= 1 else True
    hop = L // 2
    for i in range(N - 2):
        assert starts[i + 1] - starts[i] == hop, (T, N, i)
    for s in starts:
        assert 0 <= s and s + L <= T
    assert starts == sorted(starts)
    if N == 1:
        assert L == T
    else:
        assert L == (2 * T) // (N + 1)


def window_starts_oracle(n_frames: int, seq_len: int = 15, hop: int = 10) -> list[int]:
    """Covering set: hop-spaced starts plus a final window anchored at the end."""
    if n_frames <= seq_len:
        return [0]
    starts = []
    s = 0
    while s + seq_len < n_frames:
        starts.append(s)
        s += hop
    tail = n_frames - seq_len
    if starts and starts[-1] == tail:
        return starts
    return starts + [min(s, tail)]


def slice_and_pad_windows(data: np.ndarray, targets: np.ndarray, valid: np.ndarray, starts, seq_len: int = 15):
    """Stacked windows by slicing each start and repeating a short track's last row.

    Returns features [n x seq_len x width], targets [n x seq_len x 2] (0 on
    padding) and mask [n x seq_len] (False on padding).
    """
    n_frames = data.shape[0]
    feats, tgts, masks = [], [], []
    for start in starts:
        real = min(seq_len, n_frames - start)
        block = data[start : start + real]
        if real < seq_len:
            block = np.concatenate([block, np.repeat(block[-1:], seq_len - real, axis=0)], axis=0)
        tgt = np.zeros((seq_len, 2))
        tgt[:real] = targets[start : start + real]
        mask = np.zeros(seq_len, dtype=bool)
        mask[:real] = valid[start : start + real]
        feats.append(block)
        tgts.append(tgt)
        masks.append(mask)
    return np.stack(feats), np.stack(tgts), np.stack(masks)


def merge_windows_loop(starts, blocks, n_frames: int, seq_len: int = 15) -> np.ndarray:
    """Frame average of window predictions, one window at a time in order.

    ``blocks[j]`` is the [seq_len x 2] prediction of the window at
    ``starts[j]``; its positions past the track end are dropped.
    """
    total = np.zeros((n_frames, 2))
    count = np.zeros(n_frames, dtype=np.int64)
    for start, block in zip(starts, blocks):
        stop = min(start + seq_len, n_frames)
        total[start:stop] += block[: stop - start]
        count[start:stop] += 1
    return total / count[:, None]


def hz_to_mel_slaney(f: float) -> float:
    if f < 1000.0:
        return f / (200.0 / 3.0)
    return 15.0 + math.log(f / 1000.0) / (math.log(6.4) / 27.0)


def mel_to_hz_slaney(m: float) -> float:
    if m < 15.0:
        return m * (200.0 / 3.0)
    return 1000.0 * math.exp(m * (math.log(6.4) / 27.0) - 15.0 * (math.log(6.4) / 27.0))


def mel_weights_direct(sr: int, n_fft: int, n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """Triangle filterbank computed pointwise from edge frequencies."""
    mel_edges = np.linspace(hz_to_mel_slaney(fmin), hz_to_mel_slaney(fmax), n_mels + 2)
    hz_edges = np.array([mel_to_hz_slaney(m) for m in mel_edges])
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sr / n_fft)
    weights = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        for k, f in enumerate(bin_hz):
            rising = (f - lo) / (mid - lo)
            falling = (hi - f) / (hi - mid)
            w = min(rising, falling)
            if w > 0:
                weights[m, k] = w * 2.0 / (hi - lo)
    return weights


def pcm16_wav_bytes(
    samples: np.ndarray,
    sample_rate: int,
    channels: int = 1,
    extra_chunk: bytes | None = None,
) -> bytes:
    """Build a RIFF/WAVE file byte-by-byte with struct, independent of the package."""
    ints = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    return _wrap_riff(payload, sample_rate, channels, bits=16, fmt_code=1, extra_chunk=extra_chunk)


def float32_wav_bytes(samples: np.ndarray, sample_rate: int, channels: int = 1) -> bytes:
    payload = np.asarray(samples, dtype="<f4").tobytes()
    return _wrap_riff(payload, sample_rate, channels, bits=32, fmt_code=3)


def pcm_wav_bytes(samples_int: np.ndarray, sample_rate: int, bits: int, channels: int = 1) -> bytes:
    """PCM with explicit integer samples (use for 24/32-bit layouts)."""
    if bits == 24:
        payload = b"".join(int(v & 0xFFFFFF).to_bytes(3, "little") for v in samples_int.ravel())
    elif bits == 32:
        payload = np.asarray(samples_int, dtype="<i4").tobytes()
    elif bits == 16:
        payload = np.asarray(samples_int, dtype="<i2").tobytes()
    else:
        raise ValueError(bits)
    return _wrap_riff(payload, sample_rate, channels, bits=bits, fmt_code=1)


def _wrap_riff(
    payload: bytes,
    sample_rate: int,
    channels: int,
    bits: int,
    fmt_code: int,
    extra_chunk: bytes | None = None,
) -> bytes:
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_code, channels, sample_rate, sample_rate * block_align, block_align, bits
    )
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def sigmoid_sign_split(x: np.ndarray) -> np.ndarray:
    """Logistic function evaluated as 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_cell(x_t: np.ndarray, h_prev: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Single GRU step on [batch x in] given the nine parameter tensors."""
    z = sigmoid_sign_split(x_t @ params["W_z"] + h_prev @ params["U_z"] + params["b_z"])
    r = sigmoid_sign_split(x_t @ params["W_r"] + h_prev @ params["U_r"] + params["b_r"])
    hh = np.tanh(x_t @ params["W_h"] + (r * h_prev) @ params["U_h"] + params["b_h"])
    return z * h_prev + (1.0 - z) * hh


def _projections(params, x, gates):
    """Each gate's input projection ``x @ W_g + b_g``, as one 2-D product per gate, back in [B x T x H]."""
    batch, steps, in_dim = x.shape
    x2d = x.reshape(-1, in_dim)
    return [(x2d @ params[f"W_{g}"] + params[f"b_{g}"]).reshape(batch, steps, -1) for g in gates]


def _input_side_grads(params, x, dpre, gates, grads):
    """Add the W and b gradients of each gate into ``grads`` with ``+=``; return the input gradient."""
    x2d = x.reshape(-1, x.shape[-1])
    dx = np.zeros_like(x2d)
    for gate, dgate in zip(gates, dpre):
        g2d = dgate.reshape(-1, dgate.shape[-1])
        grads[f"W_{gate}"] += x2d.T @ g2d
        grads[f"b_{gate}"] += g2d.sum(axis=0)
        dx += g2d @ params[f"W_{gate}"].T
    return dx.reshape(x.shape)


def gru_bptt_cache_everything(params, x, d_out):
    """(output, parameter gradients, input gradient) of a GRU layer with every step's state cached.

    Each step caches z, r, h~, its own copy of the previous state and r*h;
    every gradient is summed with ``+=`` into zeros. Bit for bit what
    ``GRULayer`` computed before it kept each value once.
    """
    batch, steps, _ = x.shape
    hidden = params["U_z"].shape[0]
    xz, xr, xh = _projections(params, x, "zrh")
    h = np.zeros((batch, hidden))
    out = np.empty((batch, steps, hidden))
    cache = []
    for t in range(steps):
        z = sigmoid_sign_split(xz[:, t] + h @ params["U_z"])
        r = sigmoid_sign_split(xr[:, t] + h @ params["U_r"])
        rh = r * h
        hh = np.tanh(xh[:, t] + rh @ params["U_h"])
        cache.append((z, r, hh, h, rh))
        h = z * h + (1.0 - z) * hh
        out[:, t] = h

    grads = {key: np.zeros(value.shape) for key, value in params.items()}
    dxz, dxr, dxh = (np.empty(d_out.shape) for _ in range(3))
    dh_next = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        z, r, hh, h_prev, rh = cache[t]
        dh = d_out[:, t] + dh_next
        dz = dh * (h_prev - hh)
        dhh = dh * (1.0 - z)
        dh_prev = dh * z
        da_hh = dhh * (1.0 - hh**2)
        dxh[:, t] = da_hh
        grads["U_h"] += rh.T @ da_hh
        drh = da_hh @ params["U_h"].T
        dr = drh * h_prev
        dh_prev += drh * r
        da_z = dz * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        dxz[:, t] = da_z
        dxr[:, t] = da_r
        grads["U_z"] += h_prev.T @ da_z
        grads["U_r"] += h_prev.T @ da_r
        dh_prev += da_z @ params["U_z"].T + da_r @ params["U_r"].T
        dh_next = dh_prev
    return out, grads, _input_side_grads(params, x, (dxz, dxr, dxh), "zrh", grads)


def lstm_bptt_cache_everything(params, x, d_out):
    """(output, parameter gradients, input gradient) of an LSTM layer with every step's state cached.

    Each step caches i, f, o, g, its own copy of the previous hidden state,
    the previous cell state and tanh of the new one; every gradient is summed
    with ``+=`` into zeros. Bit for bit what ``LSTMLayer`` computed before it
    kept each value once.
    """
    gates = "ifog"
    batch, steps, _ = x.shape
    hidden = params["U_i"].shape[0]
    pre = _projections(params, x, gates)
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    out = np.empty((batch, steps, hidden))
    cache = []
    for t in range(steps):
        i, f, o = (sigmoid_sign_split(pre[k][:, t] + h @ params[f"U_{gate}"]) for k, gate in enumerate("ifo"))
        g = np.tanh(pre[3][:, t] + h @ params["U_g"])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        cache.append((i, f, o, g, h, c, tanh_c))
        h = o * tanh_c
        c = c_new
        out[:, t] = h

    grads = {key: np.zeros(value.shape) for key, value in params.items()}
    dpre = [np.empty(d_out.shape) for _ in gates]
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        i, f, o, g, h_prev, c_prev, tanh_c = cache[t]
        dh = d_out[:, t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        da = (di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g**2))
        dh_prev = np.zeros_like(dh)
        for gate, dgate, da_gate in zip(gates, dpre, da):
            dgate[:, t] = da_gate
            grads[f"U_{gate}"] += h_prev.T @ da_gate
            dh_prev += da_gate @ params[f"U_{gate}"].T
        dh_next = dh_prev
    return out, grads, _input_side_grads(params, x, dpre, gates, grads)


def dense_summed(params, x, grad):
    """(output, parameter gradients, input gradient) of ``x @ W + b``, each gradient summed with ``+=`` into zeros."""
    x2d = x.reshape(-1, x.shape[-1])
    g2d = grad.reshape(-1, grad.shape[-1])
    grads = {key: np.zeros(value.shape) for key, value in params.items()}
    grads["W"] += x2d.T @ g2d
    grads["b"] += g2d.sum(axis=0)
    out = (x2d @ params["W"] + params["b"]).reshape(grad.shape)
    return out, grads, (g2d @ params["W"].T).reshape(x.shape)


def dropout_float_mask(x, grad, rate, rng):
    """(output, input gradient, float mask) of inverted dropout that keeps its float64 mask."""
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, grad * mask, mask


def num_grad(loss_fn, arr: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. arr, perturbed in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation scaled by the larger gradient magnitude (floored at 1)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_layer_gradients(layer, x: np.ndarray, rng: np.random.Generator,
                          eps: float = 1e-6, tol: float = 1e-5) -> None:
    """FD-check a train-mode layer's input and parameter gradients against backward()."""
    out = layer.forward(x, train=True)
    proj = rng.normal(size=out.shape)
    for leaf in layer.sublayers() or [layer]:
        for grad in leaf.grads.values():
            grad.fill(0.0)
    dx = layer.backward(proj)

    def loss() -> float:
        return float(np.sum(layer.forward(x, train=True) * proj))

    gx = num_grad(loss, x, eps)
    err = rel_err(dx, gx)
    assert err < tol, f"{layer.name} input grad rel err {err:.3e}"
    for leaf in layer.sublayers() or [layer]:
        for key in leaf.params:
            gp = num_grad(loss, leaf.params[key], eps)
            err = rel_err(leaf.grads[key], gp)
            assert err < tol, f"{leaf.name}.{key} grad rel err {err:.3e}"


class RMSpropReference:
    """Per-tensor RMSprop (rho 0.9, eps 1e-7) with a name-keyed cache made on first use.

    ``step`` checks and updates one (name, param, grad) slot at a time, so a
    non-finite gradient in slot k raises after slots 0..k-1 have moved.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.cache: dict[str, np.ndarray] = {}

    def step(self, slots) -> None:
        for name, param, grad in slots:
            if not np.all(np.isfinite(grad)):
                raise ValueError(f"non-finite gradient for {name}")
            cache = self.cache.get(name)
            if cache is None:
                cache = self.cache[name] = np.zeros_like(param)
            cache *= 0.9
            cache += (1.0 - 0.9) * grad**2
            param -= self.lr * grad / (np.sqrt(cache) + 1e-7)


def predict_video_per_window(model, video, batch_size: int, stats) -> np.ndarray:
    """Frame predictions with every window gathered and run whole: no frame block.

    Each batch of windows becomes one z-scored [B x 15 x width] tensor per
    modality (``gather_windows``), runs through ``Model.forward`` in
    inference mode, and the window predictions merge back to frames.
    """
    from affseq.dataset import build_windows, gather_windows, merge_window_predictions

    windows = build_windows(video.features)
    modalities = model.config.modalities()
    pred = []
    for i in range(0, len(windows), batch_size):
        chunk = windows.select(slice(i, i + batch_size))
        pred.append(model.forward({m: gather_windows(chunk, m, stats) for m in modalities}, train=False))
    return merge_window_predictions(windows.rows, np.concatenate(pred), video.row.n_frames)


def _stft_power(segment: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Power spectrogram [frames x (n_fft//2 + 1)]; short segments zero-pad to one frame."""
    length = len(segment)
    if length < n_fft:
        padded = np.zeros(n_fft)
        padded[:length] = segment
        frames = padded[None, :]
    else:
        n_steps = 1 + (length - n_fft) // hop
        offsets = np.arange(n_steps) * hop
        frames = segment[offsets[:, None] + np.arange(n_fft)[None, :]]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    return np.abs(np.fft.rfft(frames * window, axis=-1)) ** 2


def extract_audio_per_segment(clip, n_frames: int, params) -> np.ndarray:
    """Feature rows [n_frames x (n_mfcc + n_mels)], one segment per Python iteration.

    Each segment runs its own last-axis STFT, a [steps x bins] @ filterbank.T
    GEMM, the floored log, the mean over steps and the DCT. No finite check.
    """
    from affseq.dsp import dct_ortho_matrix, mel_filterbank, plan_segments

    segment_len, starts = plan_segments(clip.duration_samples, n_frames)
    filterbank = mel_filterbank(clip.sample_rate, params.n_fft, params.n_mels, params.fmin, params.fmax)
    rows = np.empty((n_frames, params.feature_dim()))
    for i, start in enumerate(starts):
        segment = clip.samples[start : start + segment_len]
        power = _stft_power(segment, params.n_fft, params.stft_hop)
        mel_energy = power @ filterbank.T
        log_mel = 10.0 * np.log10(np.maximum(mel_energy, params.log_floor))
        mel_feature = log_mel.mean(axis=0)
        mfcc = dct_ortho_matrix(params.n_mels)[: params.n_mfcc] @ mel_feature
        rows[i] = np.concatenate([mfcc, mel_feature])
    return rows


def fit_reference(manifest_rows, config):
    """``train`` written out in one straight line: its history lines and best tensors.

    Stats are the float64 ``mean(0)``/``std(0)`` (floored at 1e-8) of every
    train row widened and stacked. Each video is z-scored whole and cut by
    ``slice_and_pad_windows`` at ``window_starts_oracle``; windows with no
    valid frame are dropped. The shuffle generator seeds the model before it
    draws any permutation. Each batch zeroes the gradients, runs the model
    forward and back through ``masked_mse``, clips the gradients to a joint
    norm of ``clip_norm`` and takes a ``RMSpropReference`` step. Validation
    takes the per-window path of ``predict_video_per_window``, but with the
    oracles' cutting and ``merge_windows_loop`` in place of the package's
    windowing and merge, and scores with the package's ``evaluate``; the
    tensors are kept at every strictly higher mean CCC.

    Returns ``(history lines, best epoch, best mean CCC or None, tensors)``,
    the tensors as float32 under the names a checkpoint stores them by.
    """
    from affseq.dataset import load_labels
    from affseq.metrics import evaluate
    from affseq.model import build
    from affseq.nn import masked_mse

    modalities = config.model.modalities()

    def load(row):
        tracks = {m: read_affw(row.features[m]).astype(np.float64) for m in modalities}
        return row.video_id, tracks, load_labels(row.label_path)

    train_videos = [load(row) for row in manifest_rows if row.split == "train"]
    val_videos = [load(row) for row in manifest_rows if row.split == "val"]
    mean, std = {}, {}
    for m in modalities:
        stacked = np.concatenate([tracks[m] for _, tracks, _ in train_videos])
        mean[m], std[m] = stacked.mean(0), np.maximum(stacked.std(0), 1e-8)

    def windows(tracks, labels):
        """(starts, {modality: z-scored windows}, targets, mask) of one video."""
        starts = window_starts_oracle(len(labels.valence))
        feats = {}
        for m in modalities:
            z = (tracks[m] - mean[m]) / std[m]
            feats[m], targets, mask = slice_and_pad_windows(z, labels.targets(), labels.valid, starts)
        return starts, feats, targets, mask

    parts = [windows(tracks, labels) for _, tracks, labels in train_videos]
    inputs = {m: np.concatenate([feats[m] for _, feats, _, _ in parts]) for m in modalities}
    targets = np.concatenate([t for _, _, t, _ in parts])
    mask = np.concatenate([k for _, _, _, k in parts])
    keep = mask.any(axis=1)
    inputs, targets, mask = {m: x[keep] for m, x in inputs.items()}, targets[keep], mask[keep]

    root_rng = np.random.default_rng(config.seed)
    model = build(config.model, seed=int(root_rng.integers(2**63)))
    optimizer = RMSpropReference(config.learning_rate)
    slots = [(name, holder[key], grad) for (name, holder, key), grad in zip(model.params, model.grads)]

    def tensors():
        out = {name: holder[key].astype(np.float32) for name, holder, key in model.slots}
        for m in modalities:
            out[f"norm/{m}/mean"], out[f"norm/{m}/std"] = mean[m].astype(np.float32), std[m].astype(np.float32)
        return out

    history, best_epoch, best_score, best_tensors = [], 0, -math.inf, tensors()
    for epoch in range(1, config.epochs + 1):
        n = len(targets)
        order = root_rng.permutation(n) if config.shuffle else np.arange(n)
        total_sq, total_count = 0.0, 0
        for start in range(0, n, config.batch_size):
            pick = order[start : start + config.batch_size]
            model.zero_grads()
            pred = model.forward({m: x[pick] for m, x in inputs.items()}, train=True)
            loss, d_pred = masked_mse(pred, targets[pick], mask[pick])
            model.backward(d_pred, input_grads=False)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in model.grads))
            if 0 < config.clip_norm < norm:
                for g in model.grads:
                    g *= config.clip_norm / norm
            optimizer.step(slots)
            count = int(mask[pick].sum()) * 2
            total_sq += loss * count
            total_count += count

        predictions, labels = {}, {}
        for video_id, tracks, track_labels in val_videos:
            starts, feats, _, _ = windows(tracks, track_labels)
            blocks = np.concatenate([
                model.forward({m: x[i : i + config.batch_size] for m, x in feats.items()}, train=False)
                for i in range(0, len(starts), config.batch_size)
            ])
            predictions[video_id] = merge_windows_loop(starts, blocks, len(track_labels.valence))
            labels[video_id] = track_labels
        report = evaluate(predictions, labels, ccc_mode=config.ccc_mode)
        scores = [total_sq / total_count, report.ccc_valence, report.ccc_arousal,
                  report.mse_valence, report.mse_arousal]
        history.append(",".join([str(epoch), *(repr(float(v)) for v in scores)]))
        mean_ccc = 0.5 * (report.ccc_valence + report.ccc_arousal)
        if mean_ccc > best_score:
            best_epoch, best_score, best_tensors = epoch, mean_ccc, tensors()
    return history, best_epoch, best_score if best_epoch else None, best_tensors
