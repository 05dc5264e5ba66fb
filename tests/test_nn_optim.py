import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affseq.errors import DomainError, NumericFaultError
from affseq.model import ModelConfig, build
from affseq.nn import RMSprop, arena_views, clip_global_norm, masked_mse

from oracles import RMSpropReference, num_grad, rel_err


# --- masked MSE -----------------------------------------------------------------

def test_loss_zero_at_target(rng):
    pred = rng.normal(size=(2, 15, 2))
    mask = np.ones((2, 15), dtype=bool)
    loss, grad = masked_mse(pred, pred.copy(), mask)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_loss_single_element_hand_arithmetic():
    pred = np.full((1, 1, 1), 0.5)
    target = np.zeros((1, 1, 1))
    mask = np.ones((1, 1), dtype=bool)
    loss, grad = masked_mse(pred, target, mask)
    assert loss == 0.25
    assert grad[0, 0, 0] == 1.0


def test_loss_half_masked_equals_subset(rng):
    pred = rng.normal(size=(4, 6, 2))
    target = rng.normal(size=(4, 6, 2))
    mask = np.zeros((4, 6), dtype=bool)
    mask[:2] = True
    loss, _ = masked_mse(pred, target, mask)
    subset = float(np.mean((pred[:2] - target[:2]) ** 2))
    assert abs(loss - subset) < 1e-15


def test_loss_fully_masked_rejected(rng):
    with pytest.raises(DomainError):
        masked_mse(rng.normal(size=(2, 3, 2)), np.zeros((2, 3, 2)), np.zeros((2, 3), dtype=bool))


def test_loss_gradient_matches_finite_differences(rng):
    pred = rng.normal(size=(2, 5, 2))
    target = rng.normal(size=(2, 5, 2))
    mask = rng.random((2, 5)) > 0.3
    _, grad = masked_mse(pred, target, mask)

    def loss():
        return masked_mse(pred, target, mask)[0]

    assert rel_err(grad, num_grad(loss, pred)) < 1e-9


def test_loss_gradient_zero_on_masked(rng):
    pred = rng.normal(size=(2, 4, 2))
    mask = np.ones((2, 4), dtype=bool)
    mask[0, 1] = False
    _, grad = masked_mse(pred, np.zeros_like(pred), mask)
    np.testing.assert_array_equal(grad[0, 1], 0.0)


def test_loss_shape_mismatch(rng):
    with pytest.raises(DomainError):
        masked_mse(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)), np.ones((2, 3), dtype=bool))
    with pytest.raises(DomainError):
        masked_mse(np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.ones((2, 4), dtype=bool))


# --- RMSprop -----------------------------------------------------------------------

def _arena(values):
    """(name, dict, key) entries for ``values`` and a zero gradient arena with a view per tensor."""
    params = {f"p{i}": v for i, v in enumerate(values)}
    grads = np.zeros(sum(v.size for v in values))
    return [(name, params, name) for name in params], grads, arena_views(grads, [v.shape for v in values])


def _one(w, lr=1e-4):
    """RMSprop over the single tensor ``w``, and the view its gradient is written to."""
    params, grads, (g,) = _arena([w])
    return RMSprop(params, grads, lr=lr), g


def test_rmsprop_first_step_closed_form():
    w = np.array([1.0])
    opt, g = _one(w)
    g[:] = 1.0
    opt.step()
    assert abs(opt.cache[0] - 0.1) < 1e-15
    delta = 1e-4 / (math.sqrt(0.1) + 1e-7)
    assert abs((1.0 - w[0]) - delta) < 1e-15
    assert abs(delta - 3.16227e-4) < 1e-8


def test_rmsprop_two_steps_hand_unrolled():
    w = np.array([2.0])
    opt, g = _one(w)
    g[:] = 1.0
    opt.step()
    opt.step()
    cache1 = 0.1
    w1 = 2.0 - 1e-4 / (math.sqrt(cache1) + 1e-7)
    cache2 = 0.9 * cache1 + 0.1
    w2 = w1 - 1e-4 / (math.sqrt(cache2) + 1e-7)
    assert abs(opt.cache[0] - cache2) < 1e-12
    assert abs(w[0] - w2) < 1e-12


def test_rmsprop_zero_gradient_decays_cache():
    w = np.array([1.5])
    opt, g = _one(w, lr=1e-2)
    g[:] = 2.0
    opt.step()
    cache_before = opt.cache.copy()
    w_before = w.copy()
    g[:] = 0.0
    opt.step()
    np.testing.assert_array_equal(w, w_before)
    np.testing.assert_allclose(opt.cache, 0.9 * cache_before, atol=1e-18)


def test_rmsprop_cache_nonnegative(rng):
    w = rng.normal(size=(4, 3))
    opt, g = _one(w)
    for _ in range(20):
        g[:] = rng.normal(size=(4, 3))
        opt.step()
        assert np.all(opt.cache >= 0)


def test_rmsprop_rejects_non_finite_gradient():
    opt, g = _one(np.zeros(2))
    g[:] = [1.0, np.nan]
    with pytest.raises(NumericFaultError, match="^non-finite gradient for p0$"):
        opt.step()
    g[:] = [np.inf, 0.0]
    with pytest.raises(NumericFaultError):
        opt.step()


def test_rmsprop_updates_in_place(rng):
    w = rng.normal(size=(3,))
    params, grads, _ = _arena([w])
    grads[:] = 1.0
    RMSprop(params, grads, lr=1e-3).step()
    assert params[0][1]["p0"] is w  # the caller's array object moved


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple), min_size=1, max_size=6
    ),
    lr=st.floats(1e-6, 1e-1),
    steps=st.integers(1, 4),
    max_norm=st.sampled_from([0.0, 0.5, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rmsprop_arena_step_bit_equal_to_per_tensor_reference(shapes, lr, steps, max_norm, seed):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    params, grads, views = _arena([v.copy() for v in values])
    ref_params = [v.copy() for v in values]
    opt, ref = RMSprop(params, grads, lr=lr), RMSpropReference(lr)
    for _ in range(steps):
        draws = [rng.normal(scale=rng.uniform(0.1, 10.0), size=shape) for shape in shapes]
        ref_grads = [d.copy() for d in draws]
        for view, draw in zip(views, draws):
            view[...] = draw
        assert clip_global_norm(views, max_norm) == clip_global_norm(ref_grads, max_norm)
        opt.step()
        ref.step([(name, p, g) for (name, _, _), p, g in zip(params, ref_params, ref_grads)])
    for (name, holder, key), want in zip(params, ref_params):
        np.testing.assert_array_equal(holder[key].view(np.int64), want.view(np.int64), err_msg=name)
    for (name, _, _), cache in zip(params, arena_views(opt.cache, shapes)):
        np.testing.assert_array_equal(cache.view(np.int64), ref.cache[name].view(np.int64), err_msg=name)


def test_rmsprop_step_with_a_late_non_finite_gradient_changes_nothing(rng):
    """The whole arena is checked before any write: no parameter or cache moves."""
    config = ModelConfig(audio_dim=6, expnet_dim=8, facepose_dim=5, width_scale=32, dropout=0.0)
    model = build(config, seed=3)
    optimizer = RMSprop(model.params, model.grad_arena, lr=1e-3)
    model.grad_arena[:] = rng.normal(size=model.grad_arena.size)
    optimizer.step()  # caches and parameters away from their initial values
    name, holder, key = model.params[-2]  # head.dense2.W, late in the table
    assert name == "head.dense2.W"
    model.grad_arena[:] = rng.normal(size=model.grad_arena.size)
    model.grads[-2][0, 1] = np.nan
    params = [holder[key].copy() for _, holder, key in model.params]
    cache = optimizer.cache.copy()
    with pytest.raises(NumericFaultError, match="^non-finite gradient for head.dense2.W$"):
        optimizer.step()
    for (slot, holder, key), before in zip(model.params, params):
        np.testing.assert_array_equal(holder[key].view(np.int64), before.view(np.int64), err_msg=slot)
    np.testing.assert_array_equal(optimizer.cache.view(np.int64), cache.view(np.int64))


# --- gradient clipping ------------------------------------------------------------------

def test_clip_scales_to_max_norm():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    norm = clip_global_norm([g1, g2], 1.0)
    assert abs(norm - 5.0) < 1e-12
    joint = math.sqrt(float(np.sum(g1**2) + np.sum(g2**2)))
    assert abs(joint - 1.0) < 1e-12
    np.testing.assert_allclose(g1, [0.6, 0.0])
    np.testing.assert_allclose(g2, [0.0, 0.8])


def test_clip_leaves_small_gradients_alone():
    g = np.array([0.3, 0.4])
    norm = clip_global_norm([g], 5.0)
    assert abs(norm - 0.5) < 1e-12
    np.testing.assert_array_equal(g, [0.3, 0.4])


def test_clip_direction_preserved(rng):
    g = rng.normal(size=(10,))
    original = g.copy()
    clip_global_norm([g], 0.1)
    cos = float(g @ original / (np.linalg.norm(g) * np.linalg.norm(original)))
    assert abs(cos - 1.0) < 1e-12
