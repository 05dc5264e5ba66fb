import numpy as np
import pytest

from affseq import Model, ModelConfig, build
from affseq.errors import ConfigError, DomainError, FileFormatError, NumericFaultError

from oracles import num_grad, rel_err


def _inputs(rng, config, batch=2):
    return {
        m: rng.normal(size=(batch, config.sequence_len, config.input_dim(m)))
        for m in config.modalities()
    }


SMALL = dict(audio_dim=6, expnet_dim=8, facepose_dim=5, width_scale=32)


# --- config -------------------------------------------------------------------

def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        ModelConfig(variant="multimodal")


def test_config_rejects_unknown_cell():
    with pytest.raises(ConfigError):
        ModelConfig(cell="rnn")


def test_config_rejects_bad_dropout():
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)


def test_config_bilstm_needs_even_scaled_widths():
    ModelConfig(cell="bilstm", width_scale=2)  # 64, 32, 128/2 all even
    with pytest.raises(ConfigError):
        ModelConfig(cell="bilstm", width_scale=64)  # 64/64 = 1 per slot


def test_config_round_trips_through_dict():
    cfg = ModelConfig(variant="audio_only", cell="bilstm", dropout=0.1, width_scale=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_modalities_per_variant():
    assert ModelConfig().modalities() == ("audio", "expnet", "facepose")
    assert ModelConfig(variant="audio_only").modalities() == ("audio",)
    assert ModelConfig(variant="video_only").modalities() == ("expnet",)


# --- construction ----------------------------------------------------------------

def test_fusion_parameter_counts_match_analytic():
    model = build(ModelConfig(), seed=0)
    table = dict(model.parameter_table())
    assert table["audio.rnn1"] == 114048  # 3 * (168*128 + 128*128 + 128)
    assert table["expnet.rnn1"] == 1770240  # 3 * (2048*256 + 256*256 + 256)
    assert table["head.dense1"] == 192 * 64 + 64  # 12352
    assert table["head.dense2"] == 64 * 2 + 2  # 130
    assert table["head.act"] == 64
    assert table["head.dense1"] == 12352


def test_zero_inputs_give_zero_outputs(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=1)
    zeros = {m: np.zeros((3, 15, config.input_dim(m))) for m in config.modalities()}
    np.testing.assert_array_equal(model.forward(zeros, train=False), 0.0)
    np.testing.assert_array_equal(model.forward(zeros, train=True), 0.0)


def test_output_shape_and_open_interval(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=2)
    out = model.forward(_inputs(rng, config, batch=4), train=False)
    assert out.shape == (4, 15, 2)
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_unimodal_head_is_two_dense_layers(rng):
    config = ModelConfig(variant="audio_only", width_scale=8, audio_dim=12)
    model = build(config, seed=3)
    table = dict(model.parameter_table())
    hidden = 64 // 8
    assert table["head.dense1"] == hidden * hidden + hidden  # Dense(8 -> 8)
    assert table["head.dense2"] == hidden * 2 + 2
    assert not any("norm" in name for name in table)  # no batchnorm outside fusion
    out = model.forward({"audio": rng.normal(size=(2, 15, 12))}, train=False)
    assert out.shape == (2, 15, 2)


def test_video_only_uses_expnet_branch(rng):
    config = ModelConfig(variant="video_only", width_scale=8, expnet_dim=16)
    model = build(config, seed=4)
    names = [name for name, _ in model.parameter_table()]
    assert any(name.startswith("expnet.rnn3") for name in names)  # three recurrent layers
    assert not any(name.startswith("audio") for name in names)
    out = model.forward({"expnet": rng.normal(size=(2, 15, 16))}, train=False)
    assert out.shape == (2, 15, 2)


def test_bilstm_variant_keeps_slot_widths(rng):
    config = ModelConfig(cell="bilstm", **SMALL)
    model = build(config, seed=5)
    out = model.forward(_inputs(rng, config), train=False)
    assert out.shape == (2, 15, 2)
    # per-direction width is half the slot width
    rnn = model.branches["audio"][0]
    assert rnn.fwd.hidden_dim == (128 // 32) // 2
    assert rnn.hidden_dim == 128 // 32


def test_seeded_build_reproducible():
    a = build(ModelConfig(**SMALL), seed=9)
    b = build(ModelConfig(**SMALL), seed=9)
    for (name_a, pa), (name_b, pb) in zip(
        sorted(a.named_parameters().items()), sorted(b.named_parameters().items())
    ):
        assert name_a == name_b
        np.testing.assert_array_equal(pa, pb)


def _gated(layer, gates):
    return [f"{layer}.{kind}_{gate}" for gate in gates for kind in ("W", "U", "b")]


def _rnn(layer, cell):
    if cell == "gru":
        return _gated(layer, "zrh")
    return _gated(f"{layer}.fwd", "ifog") + _gated(f"{layer}.bwd", "ifog")


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
def test_parameter_slot_order_is_pinned(cell):
    """Seeded init draws and clip_global_norm sums in this order."""
    model = Model(ModelConfig(cell=cell), init=False)
    want = [
        *_rnn("audio.rnn1", cell), "audio.act1.alpha",
        *_rnn("audio.rnn2", cell), "audio.act2.alpha",
        "audio.norm.gamma", "audio.norm.beta",
        *_rnn("expnet.rnn1", cell), "expnet.act1.alpha",
        *_rnn("expnet.rnn2", cell), "expnet.act2.alpha",
        *_rnn("expnet.rnn3", cell), "expnet.act3.alpha",
        "expnet.norm.gamma", "expnet.norm.beta",
        "facepose.td1.W", "facepose.td1.b", "facepose.td2.W", "facepose.td2.b",
        "facepose.norm.gamma", "facepose.norm.beta",
        "head.dense1.W", "head.dense1.b", "head.act.alpha", "head.dense2.W", "head.dense2.b",
    ]
    assert [name for name, _, _ in model.parameter_slots()] == want


# --- forward validation ---------------------------------------------------------------

def test_forward_rejects_missing_modality(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=6)
    inputs = _inputs(rng, config)
    del inputs["facepose"]
    with pytest.raises(DomainError):
        model.forward(inputs)


def test_forward_rejects_wrong_width(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=6)
    inputs = _inputs(rng, config)
    inputs["audio"] = rng.normal(size=(2, 15, 7))
    with pytest.raises(DomainError):
        model.forward(inputs)


def test_forward_rejects_wrong_sequence_length(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=6)
    inputs = {m: rng.normal(size=(2, 14, config.input_dim(m))) for m in config.modalities()}
    with pytest.raises(DomainError):
        model.forward(inputs)


def test_forward_flags_non_finite_input(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=6)
    inputs = _inputs(rng, config)
    inputs["audio"][0, 0, 0] = np.nan
    with pytest.raises(NumericFaultError):
        model.forward(inputs)


# --- behaviour -----------------------------------------------------------------------

def test_fusion_with_zeroed_video_branches_depends_only_on_audio(rng):
    config = ModelConfig(**SMALL, dropout=0.0)
    model = build(config, seed=7)
    for modality in ("expnet", "facepose"):
        for layer in model.branches[modality]:
            for leaf in layer.sublayers() or [layer]:
                for key in leaf.params:
                    leaf.params[key][:] = 0.0

    audio = rng.normal(size=(2, 15, config.audio_dim))
    video_a = {
        "expnet": rng.normal(size=(2, 15, config.expnet_dim)),
        "facepose": rng.normal(size=(2, 15, config.facepose_dim)),
    }
    video_b = {
        "expnet": rng.normal(size=(2, 15, config.expnet_dim)),
        "facepose": rng.normal(size=(2, 15, config.facepose_dim)),
    }
    out_a = model.forward({"audio": audio, **video_a}, train=False)
    out_b = model.forward({"audio": audio, **video_b}, train=False)
    np.testing.assert_array_equal(out_a, out_b)

    out_c = model.forward({"audio": rng.normal(size=(2, 15, config.audio_dim)), **video_a}, train=False)
    assert np.any(out_c != out_a)


def test_full_model_gradients_match_finite_differences(rng):
    config = ModelConfig(dropout=0.0, **SMALL)
    model = build(config, seed=8)
    inputs = _inputs(rng, config)
    out = model.forward(inputs, train=True)
    proj = rng.normal(size=out.shape)
    model.zero_grads()
    input_grads = model.backward(proj)

    def loss():
        return float(np.sum(model.forward(inputs, train=True) * proj))

    for name, param, grad in model.gradient_slots():
        numeric = num_grad(loss, param)
        err = rel_err(grad, numeric)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
    for modality in config.modalities():
        numeric = num_grad(loss, inputs[modality])
        err = rel_err(input_grads[modality], numeric)
        assert err < 1e-4, f"{modality} input grad: rel err {err:.2e}"


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
@pytest.mark.parametrize("variant", ["fusion", "audio_only", "video_only"])
def test_backward_without_input_grads_keeps_parameter_grads(rng, variant, cell):
    config = ModelConfig(variant=variant, cell=cell, **SMALL)
    inputs = _inputs(rng, config, batch=3)
    proj = rng.normal(size=(3, config.sequence_len, 2))
    grads = []
    for input_grads in (True, False):
        model = build(config, seed=5)  # same seed: same weights and dropout masks
        model.forward(inputs, train=True)
        returned = model.backward(proj, input_grads=input_grads)
        assert (returned is None) == (not input_grads)
        grads.append(model.gradient_slots())
    for (name, _, with_dx), (_, _, without_dx) in zip(*grads):
        np.testing.assert_array_equal(without_dx, with_dx, err_msg=name)


def test_load_state_rejects_name_mismatch(rng):
    model = build(ModelConfig(**SMALL), seed=1)
    params = model.named_parameters()
    params = {("x" + k): v for k, v in params.items()}
    with pytest.raises(FileFormatError):
        model.load_state(params, model.named_state())


def test_load_state_rejects_shape_mismatch(rng):
    model = build(ModelConfig(**SMALL), seed=1)
    params = {k: v.copy() for k, v in model.named_parameters().items()}
    first = next(iter(params))
    params[first] = np.zeros((1, 1))
    with pytest.raises(FileFormatError):
        model.load_state(params, model.named_state())


def test_load_state_round_trip_changes_nothing(rng):
    config = ModelConfig(**SMALL)
    model = build(config, seed=1)
    inputs = _inputs(rng, config)
    before = model.forward(inputs, train=False)
    model.load_state(
        {k: v.copy() for k, v in model.named_parameters().items()},
        {k: v.copy() for k, v in model.named_state().items()},
    )
    np.testing.assert_array_equal(model.forward(inputs, train=False), before)
