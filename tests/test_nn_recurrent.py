import warnings

import numpy as np
import pytest

from affseq.errors import DomainError
from affseq.nn import Bidirectional, Dense, GRULayer, LSTMLayer
from affseq.nn.recurrent import _sigmoid

from oracles import (
    check_layer_gradients,
    dense_summed,
    gru_bptt_cache_everything,
    gru_cell,
    lstm_bptt_cache_everything,
    num_grad,
    rel_err,
    sigmoid_sign_split,
)


def _sigmoid_probe(rng):
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, tiny, 1e-310, 36.0, 709.0, 745.0, 1e308])
    edges = np.concatenate([edges, -edges])
    normals = rng.normal(size=4096)
    return np.concatenate([edges] + [normals * scale for scale in (0.01, 1.0, 30.0)])


def _param_count(layer):
    return sum(p.size for leaf in layer.sublayers() or [layer] for p in leaf.params.values())


def _zero_gru_params(in_dim, h):
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = np.zeros((in_dim, h))
        params[f"U_{gate}"] = np.zeros((h, h))
        params[f"b_{gate}"] = np.zeros(h)
    return params


# --- sigmoid -------------------------------------------------------------------

def test_sigmoid_bit_equal_to_sign_split(rng):
    x = _sigmoid_probe(rng)
    # compared as raw bits, so a flipped sign of zero would fail too
    np.testing.assert_array_equal(_sigmoid(x).view(np.uint64), sigmoid_sign_split(x).view(np.uint64))


def test_sigmoid_raises_no_warning(rng):
    x = _sigmoid_probe(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(x)
    assert np.all((out >= 0.0) & (out <= 1.0))


# --- GRU cell -----------------------------------------------------------------

def test_gru_cell_zero_params_halves_state(rng):
    h_prev = rng.normal(size=(3, 5))
    x = rng.normal(size=(3, 4))
    h = gru_cell(x, h_prev, _zero_gru_params(4, 5))
    np.testing.assert_allclose(h, 0.5 * h_prev, atol=1e-15)


def test_gru_cell_zero_everything(rng):
    h = gru_cell(rng.normal(size=(2, 4)), np.zeros((2, 5)), _zero_gru_params(4, 5))
    np.testing.assert_array_equal(h, 0.0)


def test_gru_zero_param_fixed_point(rng):
    h = rng.normal(size=(1, 6))
    h0 = h.copy()
    params = _zero_gru_params(3, 6)
    for t in range(1, 8):
        h = gru_cell(rng.normal(size=(1, 3)), h, params)
        np.testing.assert_allclose(h, 0.5**t * h0, atol=1e-15)


def test_gru_cell_three_step_bptt_matches_finite_differences(rng):
    """Loss = sum of squared hidden states over a 3-step sequence."""
    layer = GRULayer(4, 5, "gru", rng)
    x = rng.normal(size=(2, 3, 4))

    def loss():
        return float(np.sum(layer.forward(x) ** 2))

    out = layer.forward(x, train=True)
    layer.backward(2.0 * out)  # into the freshly built, zero gradient buffers
    for key in layer.params:
        numeric = num_grad(loss, layer.params[key])
        err = rel_err(layer.grads[key], numeric)
        assert err < 1e-5, f"{key}: {err:.2e}"


# --- GRU layer ------------------------------------------------------------------

def test_gru_layer_single_step_equals_cell(rng):
    layer = GRULayer(4, 6, "gru", rng)
    x = rng.normal(size=(3, 1, 4))
    out = layer.forward(x)
    expected = gru_cell(x[:, 0], np.zeros((3, 6)), layer.params)
    np.testing.assert_allclose(out[:, 0], expected, atol=1e-15)


def test_gru_layer_stepwise_equals_cell_chain(rng):
    layer = GRULayer(3, 4, "gru", rng)
    x = rng.normal(size=(2, 6, 3))
    out = layer.forward(x)
    h = np.zeros((2, 4))
    for t in range(6):
        h = gru_cell(x[:, t], h, layer.params)
        np.testing.assert_allclose(out[:, t], h, atol=1e-14)


def test_gru_layer_zero_params_zero_output(rng):
    layer = GRULayer(3, 4, "gru", rng)
    for key in layer.params:
        layer.params[key][:] = 0.0
    out = layer.forward(rng.normal(size=(2, 5, 3)))
    np.testing.assert_array_equal(out, 0.0)


def test_gru_layer_gradients(rng):
    for b, t, i, h in ((2, 3, 4, 5), (1, 6, 2, 3), (3, 4, 5, 2)):
        layer = GRULayer(i, h, "gru", rng)
        check_layer_gradients(layer, rng.normal(size=(b, t, i)), rng, tol=1e-5)


def test_gru_parameter_counts():
    rng = np.random.default_rng(0)
    assert _param_count(GRULayer(168, 128, "g", rng)) == 114048
    assert _param_count(GRULayer(168, 128, "g", rng)) == 3 * (168 * 128 + 128 * 128 + 128)
    assert _param_count(GRULayer(2048, 256, "g", rng)) == 1770240


def test_gru_rejects_bad_shape(rng):
    with pytest.raises(DomainError):
        GRULayer(3, 4, "gru", rng).forward(np.zeros((2, 5)))


# --- LSTM -------------------------------------------------------------------------

def test_lstm_forget_bias_default_one(rng):
    layer = LSTMLayer(3, 4, "lstm", rng)
    np.testing.assert_array_equal(layer.params["b_f"], 1.0)


def test_lstm_zero_params_zero_forget_bias_stays_zero(rng):
    layer = LSTMLayer(3, 4, "lstm", rng)
    for key in layer.params:
        layer.params[key][:] = 0.0
    out = layer.forward(rng.normal(size=(2, 6, 3)))
    np.testing.assert_array_equal(out, 0.0)


def test_lstm_gradients(rng):
    for b, t, i, h in ((2, 3, 4, 5), (1, 5, 2, 3), (3, 4, 3, 2)):
        layer = LSTMLayer(i, h, "lstm", rng)
        check_layer_gradients(layer, rng.normal(size=(b, t, i)), rng, tol=1e-5)


def test_lstm_parameter_count(rng):
    assert _param_count(LSTMLayer(10, 8, "l", rng)) == 4 * (10 * 8 + 8 * 8 + 8)


# --- bidirectional ------------------------------------------------------------------

def test_bidirectional_width_doubles(rng):
    layer = Bidirectional(lambda name: GRULayer(3, 4, name, rng), "bi")
    out = layer.forward(rng.normal(size=(2, 5, 3)))
    assert out.shape == (2, 5, 8)
    assert layer.hidden_dim == 8


def test_bidirectional_palindrome_symmetry(rng):
    layer = Bidirectional(lambda name: LSTMLayer(3, 4, name, rng), "bi")
    for key in layer.fwd.params:
        layer.bwd.params[key] = layer.fwd.params[key].copy()
    half = rng.normal(size=(1, 4, 3))
    x = np.concatenate([half, half[:, ::-1]], axis=1)  # palindrome, T=8
    out = layer.forward(x)
    T = x.shape[1]
    for t in range(T):
        np.testing.assert_allclose(out[0, t, :4], out[0, T - 1 - t, 4:], atol=1e-12)


def test_bidirectional_gradients(rng):
    for cell in (GRULayer, LSTMLayer):
        layer = Bidirectional(lambda name: cell(3, 2, name, rng), "bi")
        check_layer_gradients(layer, rng.normal(size=(2, 4, 3)), rng, tol=1e-5)


def test_bidirectional_param_count(rng):
    layer = Bidirectional(lambda name: GRULayer(6, 4, name, rng), "bi")
    assert _param_count(layer) == 2 * 3 * (6 * 4 + 4 * 4 + 4)


def test_bidirectional_equals_layers_on_explicit_reversed_copies(rng):
    layer = Bidirectional(lambda name: LSTMLayer(5, 4, name, rng), "bi")
    fwd = LSTMLayer(5, 4, "f", rng)
    bwd = LSTMLayer(5, 4, "b", rng)
    for key in layer.fwd.params:
        fwd.params[key] = layer.fwd.params[key].copy()
        bwd.params[key] = layer.bwd.params[key].copy()
    x = rng.normal(size=(3, 6, 5))
    grad = rng.normal(size=(3, 6, 8))

    out = layer.forward(x, train=True)
    want = np.concatenate(
        [fwd.forward(x.copy(), train=True), bwd.forward(x[:, ::-1].copy(), train=True)[:, ::-1]], axis=-1
    )
    np.testing.assert_array_equal(out, want)

    dx = layer.backward(grad)
    dx_f = fwd.backward(grad[..., :4].copy())
    dx_b = bwd.backward(grad[..., 4:][:, ::-1].copy())[:, ::-1]
    np.testing.assert_array_equal(dx, dx_f + dx_b)
    for key in fwd.grads:
        np.testing.assert_array_equal(layer.fwd.grads[key], fwd.grads[key])
        np.testing.assert_array_equal(layer.bwd.grads[key], bwd.grads[key])


@pytest.mark.parametrize("cell", [GRULayer, LSTMLayer])
def test_backward_input_grad_has_input_shape(rng, cell):
    layer = cell(5, 3, "rnn", rng)
    x = rng.normal(size=(4, 6, 5))
    out = layer.forward(x, train=True)
    dx = layer.backward(np.ones_like(out))
    assert dx.shape == x.shape


def test_seeded_initialization_reproducible():
    a = GRULayer(5, 4, "g", np.random.default_rng(11))
    b = GRULayer(5, 4, "g", np.random.default_rng(11))
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])


# --- backward state ------------------------------------------------------------

RECURRENT = {
    "gru": lambda rng: GRULayer(5, 3, "rnn", rng),
    "lstm": lambda rng: LSTMLayer(5, 3, "rnn", rng),
    "bilstm": lambda rng: Bidirectional(lambda name: LSTMLayer(5, 2, name, rng), "bi"),
}


@pytest.mark.parametrize("kind", RECURRENT)
def test_backward_after_inference_forward_names_the_layer(rng, kind):
    layer = RECURRENT[kind](rng)
    x = rng.normal(size=(4, 15, 5))
    for out in (layer.forward(x), layer.forward(x[0], rows=np.arange(15)[None] % 4)):
        assert all(leaf._saved is None for leaf in layer.sublayers() or [layer])
        with pytest.raises(DomainError, match="^(rnn|bi.fwd): backward needs a forward\\(train=True\\)"):
            layer.backward(np.ones_like(out))


@pytest.mark.parametrize("kind", RECURRENT)
def test_backward_drops_the_state_it_read(rng, kind):
    layer = RECURRENT[kind](rng)
    x = rng.normal(size=(4, 6, 5))
    out = layer.forward(x, train=True)
    layer.forward(x)  # an inference forward drops what a train forward kept
    with pytest.raises(DomainError):
        layer.backward(np.ones_like(out))
    layer.forward(x, train=True)
    layer.backward(np.ones_like(out), need_dx=False)
    assert all(leaf._saved is None for leaf in layer.sublayers() or [layer])


# --- each value held once ----------------------------------------------------------

def _same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


CACHE_EVERYTHING = {
    "gru": (GRULayer, gru_bptt_cache_everything),
    "lstm": (LSTMLayer, lstm_bptt_cache_everything),
    "dense": (Dense, dense_summed),
}
TINY = 1e-170  # the square of TINY underflows to zero


@pytest.mark.parametrize("upstream", ["normal", "tiny-negative"])
@pytest.mark.parametrize("hidden", [2, 16, 64])
@pytest.mark.parametrize("batch", [1, 4, 32])
@pytest.mark.parametrize("kind", sorted(CACHE_EVERYTHING))
def test_gradients_match_the_cache_everything_reference_bit_for_bit(rng, kind, batch, hidden, upstream):
    """Output, parameter and input gradients equal the references' in value and sign bit.

    The references cache every step's state and sum each weight product into
    zeros with ``+=``; the layers read the previous state from their output
    and write the product straight into the zeroed buffer. Window 0 is all
    zero but for feature 0, which is TINY in every row. With TINY negative
    upstream gradients the products of that feature underflow, and a fused
    multiply-add GEMM returns -0.0 where the sum into zeros gives +0.0.
    """
    make, reference = CACHE_EVERYTHING[kind]
    layer = make(24, hidden, kind, rng)
    x = rng.normal(size=(batch, 15, 24))
    x[0] = 0.0
    x[..., 0] = TINY
    out = layer.forward(x, train=True)
    if upstream == "normal":
        d_out = rng.normal(size=out.shape)
    else:
        d_out = -TINY * (1.0 + rng.random(out.shape))
    want_out, want_grads, want_dx = reference(layer.params, x, d_out)
    _same_bits(out, want_out)
    _same_bits(layer.backward(d_out), want_dx)
    assert layer.grads.keys() == want_grads.keys()
    for key, want in want_grads.items():
        _same_bits(layer.grads[key], want)


def _saved_arrays(saved):
    if isinstance(saved, np.ndarray):
        return [saved]
    return [a for item in saved for a in _saved_arrays(item)]


@pytest.mark.parametrize("cell, per_step", [(GRULayer, 3), (LSTMLayer, 6)])
def test_train_forward_keeps_the_input_the_output_and_the_step_cache_only(rng, cell, per_step):
    """GRU: (z, r, h~) per step; LSTM: (i, f, o, g, c, tanh c'); no copy of a hidden state."""
    batch, steps, hidden = 4, 6, 3
    layer = cell(5, hidden, "rnn", rng)
    x = rng.normal(size=(batch, steps, 5))
    out = layer.forward(x, train=True)
    saved = {id(a): a for a in _saved_arrays(layer._saved)}
    assert id(x) in saved and id(out) in saved
    assert all(a.base is None and a.dtype == np.float64 for a in saved.values())
    cached = per_step * batch * steps * hidden * 8
    assert sum(a.nbytes for a in saved.values()) == x.nbytes + out.nbytes + cached
