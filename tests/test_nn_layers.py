import numpy as np
import pytest

from affseq.errors import DomainError
from affseq.nn import BatchNorm, Dense, Dropout, PReLU, Tanh

from oracles import check_layer_gradients


# --- dense -----------------------------------------------------------------

def test_dense_identity(rng):
    layer = Dense(3, 3, "d", rng)
    layer.params["W"] = np.eye(3)
    layer.params["b"] = np.zeros(3)
    x = rng.normal(size=(4, 3))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_dense_hand_example(rng):
    layer = Dense(2, 2, "d", rng)
    layer.params["W"] = np.eye(2)
    layer.params["b"] = np.array([3.0, 4.0])
    np.testing.assert_array_equal(layer.forward(np.array([[1.0, 2.0]])), [[4.0, 6.0]])


def test_dense_gradients(rng):
    for b, i, o in ((2, 3, 4), (1, 7, 2), (5, 4, 4)):
        layer = Dense(i, o, "d", rng)
        check_layer_gradients(layer, rng.normal(size=(b, i)), rng, tol=1e-6)


def test_time_distributed_dense_equals_per_step_loop(rng):
    layer = Dense(6, 4, "td", rng)
    x = rng.normal(size=(3, 15, 6))
    out = layer.forward(x)
    assert out.shape == (3, 15, 4)
    for t in range(15):
        np.testing.assert_array_equal(out[:, t], x[:, t] @ layer.params["W"] + layer.params["b"])


def test_time_distributed_dense_gradients(rng):
    for b, t, i, o in ((2, 5, 3, 4), (1, 15, 6, 2), (3, 2, 4, 4)):
        layer = Dense(i, o, "td", rng)
        check_layer_gradients(layer, rng.normal(size=(b, t, i)), rng, tol=1e-6)


def test_dense_shape_mismatch(rng):
    with pytest.raises(DomainError):
        Dense(3, 2, "d", rng).forward(np.zeros((4, 5)))


# --- prelu -----------------------------------------------------------------

def test_prelu_definition():
    layer = PReLU(1, "p")
    assert layer.forward(np.array([[-2.0]]))[0, 0] == -0.5
    assert layer.forward(np.array([[3.0]]))[0, 0] == 3.0


def test_prelu_alpha_initialized_quarter():
    assert np.all(PReLU(8, "p").params["alpha"] == 0.25)


def test_prelu_gradients(rng):
    for shape in ((4, 3), (2, 15, 5), (6, 1)):
        layer = PReLU(shape[-1], "p")
        layer.params["alpha"] = rng.uniform(0.1, 0.5, size=shape[-1])
        check_layer_gradients(layer, rng.normal(size=shape), rng, tol=1e-5)


def test_prelu_width_mismatch(rng):
    with pytest.raises(DomainError):
        PReLU(3, "p").forward(np.zeros((2, 4)))


# --- tanh ------------------------------------------------------------------

def test_tanh_bounded(rng):
    moderate = Tanh().forward(rng.normal(size=(50, 2)) * 2)
    assert np.all(moderate > -1.0) and np.all(moderate < 1.0)
    # float64 saturates to exactly +-1 for huge inputs; the inclusive bound must hold
    extreme = Tanh().forward(rng.normal(size=(50, 2)) * 1000)
    assert np.all(np.abs(extreme) <= 1.0)


def test_tanh_gradients(rng):
    for shape in ((3, 2), (2, 15, 2), (1, 4)):
        check_layer_gradients(Tanh(), rng.normal(size=shape), rng, tol=1e-5)


# --- batchnorm ----------------------------------------------------------------

def test_batchnorm_train_normalizes(rng):
    layer = BatchNorm(5, "bn")
    x = rng.normal(size=(64, 5)) * 3 + 7
    out = layer.forward(x, train=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_beta_shifts_mean(rng):
    layer = BatchNorm(4, "bn")
    layer.params["beta"] = np.full(4, 5.0)
    out = layer.forward(rng.normal(size=(32, 4)), train=True)
    np.testing.assert_allclose(out.mean(axis=0), 5.0, atol=1e-6)


def test_batchnorm_gradients(rng):
    for shape in ((6, 3), (2, 15, 4), (8, 2)):
        layer = BatchNorm(shape[-1], "bn")
        layer.params["gamma"] = rng.uniform(0.5, 2.0, size=shape[-1])
        layer.params["beta"] = rng.normal(size=shape[-1])
        check_layer_gradients(layer, rng.normal(size=shape), rng, train=True, tol=1e-5)


def test_batchnorm_inference_gradients(rng):
    layer = BatchNorm(3, "bn")
    layer.forward(rng.normal(size=(32, 3)) * 2 + 1, train=True)  # warm running stats
    check_layer_gradients(layer, rng.normal(size=(5, 3)), rng, train=False, tol=1e-6)


def test_batchnorm_running_stats_momentum(rng):
    layer = BatchNorm(2, "bn")
    x = rng.normal(size=(100, 2)) + 4
    layer.forward(x, train=True)
    np.testing.assert_allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0), atol=1e-12)


def test_batchnorm_inference_uses_running_stats(rng):
    layer = BatchNorm(2, "bn")
    for _ in range(200):
        layer.forward(rng.normal(size=(64, 2)) * 2 + 3, train=True)
    out = layer.forward(rng.normal(size=(1000, 2)) * 2 + 3, train=False)
    assert abs(out.mean()) < 0.2
    assert abs(out.std() - 1.0) < 0.2


def test_batchnorm_singleton_train_batch_rejected(rng):
    with pytest.raises(DomainError):
        BatchNorm(3, "bn").forward(np.zeros((1, 3)), train=True)


def test_batchnorm_3d_flattens_time(rng):
    layer = BatchNorm(4, "bn")
    x = rng.normal(size=(3, 15, 4)) * 2 + 1
    out = layer.forward(x, train=True)
    np.testing.assert_allclose(out.reshape(-1, 4).mean(axis=0), 0.0, atol=1e-6)


# --- dropout -----------------------------------------------------------------

def test_dropout_inference_identity(rng):
    layer = Dropout(0.25, "dr", rng)
    x = rng.normal(size=(8, 5))
    assert layer.forward(x, train=False) is x


def test_dropout_rate_zero_identity(rng):
    layer = Dropout(0.0, "dr", rng)
    x = rng.normal(size=(8, 5))
    assert layer.forward(x, train=True) is x


def test_dropout_monte_carlo(rng):
    layer = Dropout(0.25, "dr", rng)
    x = np.ones((400, 500))
    y = layer.forward(x, train=True)
    zero_fraction = np.mean(y == 0.0)
    assert abs(zero_fraction - 0.25) < 0.01
    assert abs(y.mean() - 1.0) < 0.02  # inverted scaling keeps the expectation
    kept = y[y != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)


def test_dropout_backward_reuses_mask(rng):
    layer = Dropout(0.5, "dr", rng)
    x = np.ones((20, 20))
    y = layer.forward(x, train=True)
    g = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(g, y)


def test_dropout_rejects_rate_one(rng):
    with pytest.raises(DomainError):
        Dropout(1.0, "dr", rng)
    with pytest.raises(DomainError):
        Dropout(-0.1, "dr", rng)

