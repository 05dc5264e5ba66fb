"""Inference over frame blocks: each first layer projects a block once and gathers window rows.

``forward(frames, rows=r)`` must give ``forward(frames[r])`` bit for bit at
every level: the first layers alone, ``Model.forward`` and the whole
``predict_video``, which reads its blocks from the feature files, against
the per-window path in ``oracles``. Both sides
run on the installed BLAS at one thread count; CI also runs this file with
two BLAS threads.
"""

import tracemalloc

import numpy as np
import pytest

from affseq.dataset import (
    MODALITY_DIMS,
    SEQUENCE_LEN,
    ManifestRow,
    NormalizationStats,
    build_windows,
    file_track,
    window_rows,
    write_feature_file,
)
from affseq.errors import DomainError
from affseq.model import ModelConfig, build
from affseq.nn import Bidirectional, Dense, GRULayer, LSTMLayer
from affseq.train import VideoData, predict_video

from oracles import predict_video_per_window

FIRST_LAYERS = {
    "dense": lambda rng: Dense(37, 8, "d", rng),
    "gru": lambda rng: GRULayer(37, 8, "gru", rng),
    "lstm": lambda rng: LSTMLayer(37, 8, "lstm", rng),
    "bilstm": lambda rng: Bidirectional(lambda name: LSTMLayer(37, 4, name, rng), "bi"),
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# --- first layers ---------------------------------------------------------------

@pytest.mark.parametrize("kind", FIRST_LAYERS)
@pytest.mark.parametrize("n_block", [15, 16, 40, 97])
def test_layer_on_block_equals_layer_on_gathered_windows(rng, kind, n_block):
    layer = FIRST_LAYERS[kind](rng)
    frames = rng.normal(size=(n_block, 37))
    rows = window_rows(n_block)
    out = layer.forward(frames, rows=rows)
    np.testing.assert_array_equal(_bits(out), _bits(layer.forward(frames[rows])))


@pytest.mark.parametrize("kind", FIRST_LAYERS)
def test_layer_on_block_reads_only_the_given_rows(rng, kind):
    layer = FIRST_LAYERS[kind](rng)
    frames = rng.normal(size=(30, 37))
    # overlapping windows, clamped at frame 22; frames 23+ are never read
    rows = np.minimum(np.arange(3)[:, None] * 4 + np.arange(SEQUENCE_LEN), 22)
    out = layer.forward(frames, rows=rows)
    np.testing.assert_array_equal(_bits(out), _bits(layer.forward(frames[rows])))


@pytest.mark.parametrize("kind", FIRST_LAYERS)
def test_layer_on_block_refuses_train_mode(rng, kind):
    layer = FIRST_LAYERS[kind](rng)
    with pytest.raises(DomainError, match="inference only"):
        layer.forward(rng.normal(size=(20, 37)), train=True, rows=window_rows(20))


@pytest.mark.parametrize("kind", FIRST_LAYERS)
def test_layer_on_block_wants_a_2d_block_of_its_width(rng, kind):
    layer = FIRST_LAYERS[kind](rng)
    for frames in (rng.normal(size=(20, 36)), rng.normal(size=(1, 20, 37))):
        with pytest.raises(DomainError, match="block"):
            layer.forward(frames, rows=window_rows(20))


# --- Model.forward ----------------------------------------------------------------

def _small_fusion(cell="gru"):
    config = ModelConfig(cell=cell, audio_dim=12, expnet_dim=16, facepose_dim=10, width_scale=8)
    return config, build(config, seed=4)


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
def test_model_on_blocks_equals_model_on_gathered_windows(rng, cell):
    config, model = _small_fusion(cell)
    blocks = {m: rng.normal(size=(33, config.input_dim(m))) for m in config.modalities()}
    rows = window_rows(33)
    out = model.forward(blocks, train=False, rows=rows)
    want = model.forward({m: b[rows] for m, b in blocks.items()}, train=False)
    np.testing.assert_array_equal(_bits(out), _bits(want))


@pytest.mark.parametrize(
    "rows, message",
    [
        (np.arange(SEQUENCE_LEN), "integer \\[batch x 15\\]"),
        (np.zeros((2, SEQUENCE_LEN, 1), dtype=np.intp), "integer \\[batch x 15\\]"),
        (np.zeros((2, 10), dtype=np.intp), "integer \\[batch x 15\\]"),
        (np.zeros((2, SEQUENCE_LEN)), "integer \\[batch x 15\\]"),
        (window_rows(20) + 1, "block has 20 frames"),
        (window_rows(20) - 1, "must be ≥ 0"),
    ],
    ids=["1-d", "3-d", "10-wide", "float", "past-block-end", "negative"],
)
def test_model_rejects_rows_that_do_not_fit_the_block(rng, rows, message):
    config, model = _small_fusion()
    blocks = {m: rng.normal(size=(20, config.input_dim(m))) for m in config.modalities()}
    with pytest.raises(DomainError, match=message):
        model.forward(blocks, train=False, rows=rows)


def test_model_rejects_rows_in_train_mode(rng):
    config, model = _small_fusion()
    blocks = {m: rng.normal(size=(20, config.input_dim(m))) for m in config.modalities()}
    with pytest.raises(DomainError, match="inference only"):
        model.forward(blocks, train=True, rows=window_rows(20))


def test_model_rejects_a_block_of_the_wrong_shape(rng):
    config, model = _small_fusion()
    blocks = {m: rng.normal(size=(20, config.input_dim(m))) for m in config.modalities()}
    blocks["audio"] = blocks["audio"][:, :-1]
    with pytest.raises(DomainError, match="audio frame block must be"):
        model.forward(blocks, train=False, rows=window_rows(20))
    blocks["audio"] = rng.normal(size=(1, 20, config.audio_dim))
    with pytest.raises(DomainError, match="audio frame block must be"):
        model.forward(blocks, train=False, rows=window_rows(20))


# --- no backward state in inference ------------------------------------------------

def _held(model):
    """{leaf name: private attributes it holds}, for every leaf that holds any."""
    held = {}
    for layer in [*(l for m in model.config.modalities() for l in model.branches[m]), *model.head]:
        for leaf in layer.sublayers() or [layer]:
            names = sorted(k for k, v in vars(leaf).items() if k.startswith("_") and v is not None)
            if names:
                held[leaf.name] = names
    return held


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
def test_inference_forward_leaves_no_backward_state(rng, cell):
    config, model = _small_fusion(cell)
    blocks = {m: rng.normal(size=(33, config.input_dim(m))) for m in config.modalities()}
    rows = window_rows(33)
    windows = {m: b[rows] for m, b in blocks.items()}
    out = model.forward(windows, train=True)
    assert _held(model)  # a train forward keeps what backward reads
    model.forward(windows, train=False)
    assert _held(model) == {}
    model.forward(windows, train=True)
    model.forward(blocks, train=False, rows=rows)
    assert _held(model) == {}
    # and a train step drops everything once backward has read it
    model.forward(windows, train=True)
    model.backward(np.ones_like(out), input_grads=False)
    assert _held(model) == {}


# --- predict_video against the per-window path ------------------------------------

@pytest.fixture(scope="module", params=["gru", "bilstm"])
def full_width_model(request):
    return build(ModelConfig(cell=request.param), seed=8)


@pytest.fixture(scope="module")
def stats():
    rng = np.random.default_rng(81)
    out = NormalizationStats()
    for modality, dim in MODALITY_DIMS.items():
        out.mean[modality] = rng.normal(size=dim)
        out.std[modality] = rng.uniform(0.5, 2.0, size=dim)
    return out


def _video(tmp_path, n_frames, seed):
    """A video of random features in AFFW files, checked as scoring checks them."""
    rng = np.random.default_rng(seed)
    features = {}
    for m, dim in MODALITY_DIMS.items():
        path = tmp_path / f"v.{m}.feat"
        write_feature_file(path, rng.normal(size=(n_frames, dim)).astype(np.float32))
        features[m] = file_track(path, m, "v")
    return VideoData(ManifestRow("v", "test", {}, None, n_frames), features, None)


@pytest.mark.parametrize("n_frames", [1, 6, 9, 14, 15, 16, 24, 300, 997])
def test_predict_video_equals_per_window_path_bitwise(tmp_path, full_width_model, stats, n_frames):
    video = _video(tmp_path, n_frames, seed=n_frames)
    # 7 splits a long video over many blocks and leaves a short last batch
    for batch_size in (32, 7):
        got = predict_video(full_width_model, video, batch_size, stats=stats)
        want = predict_video_per_window(full_width_model, video, batch_size, stats)
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"batch_size {batch_size}")


def test_predict_video_keeps_nothing_allocated_after_it_returns(tmp_path, full_width_model, stats):
    video = _video(tmp_path, 300, seed=3)
    n_windows = len(build_windows(video.features))
    assert n_windows <= 32  # one batch
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pred = predict_video(full_width_model, video, 32, stats=stats)
        kept = tracemalloc.get_traced_memory()[0] - before - pred.nbytes
    finally:
        tracemalloc.stop()
    # no layer keeps backward state after an inference forward
    assert kept < 64 * 1024, kept
