"""Dense, activation, normalization, and dropout layers with exact backward passes.

Every layer exposes ``forward(x, train=False)`` and ``backward(grad)``;
parameters and their gradients live in the ``params`` / ``grads`` dicts under
matching keys, and persistent non-trainable tensors (batch-norm running
statistics) in the ``state`` dict. All math is float64.

Layers that can sit first in a branch (``Dense`` and the recurrent layers)
take two more arguments:

* ``backward(grad, need_dx=False)`` accumulates the same parameter gradients,
  skips the input-gradient product and returns None;
* ``forward(frames, train=False, rows=r)`` reads a [n x in] frame block and
  integer window rows ``r`` [batch x T] into it, and equals
  ``forward(frames[r])`` bit for bit. It projects each block row once and
  gathers the windows' rows from the product, so frames shared by
  overlapping windows are projected once, not once per window. Each row of
  a GEMM is computed on its own, so the gathered rows match the window
  product's as long as BLAS picks the same kernel for both row counts; the
  caller's block has at least one window's rows (see ``train.predict_video``).
  This path is for inference only and keeps no input for a backward pass.

Only ``forward(x, train=True)`` keeps what ``backward`` reads, in the one
attribute ``_saved``, and it keeps no copy of a value it can read or rebuild
(Dropout keeps its boolean keep mask, not the float mask); an inference
forward keeps nothing, so a restored model holds its parameters and one
batch. ``backward`` takes the state and drops it, and raises DomainError
after an inference forward. A layer built on its own makes its gradient
buffers at the first read of ``grads``; in a ``Model`` they are views of one
gradient arena (``arena_views``), which the model makes at its first
train-mode forward and only a train step writes.

``backward`` adds into gradient buffers that a train step has zeroed
(``Model.zero_grads``). A weight gradient ``x.T @ grad`` is written straight
into its zeroed buffer (``add_product``), with no temporary product, so a
second backward without zeroing replaces that gradient instead of adding.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..errors import DomainError
from .initializers import glorot_uniform

_PRELU_ALPHA_INIT = 0.25
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


def arena_views(arena: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of the flat ``arena``, one per shape, in order."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [arena[end - math.prod(shape) : end].reshape(shape) for end, shape in zip(ends, shapes)]


def add_product(a: np.ndarray, b: np.ndarray, zeroed: np.ndarray) -> None:
    """``zeroed += a @ b`` for a ``zeroed`` that holds only zeros, with no temporary product.

    The product is written straight into ``zeroed``. Adding 0.0 then turns
    each -0.0 into the +0.0 that ``0.0 + (-0.0)`` gives, so the bits are
    those of the sum.
    """
    np.matmul(a, b, out=zeroed)
    zeroed += 0.0


def check_frame_block(layer: "Layer", frames: np.ndarray, in_dim: int, train: bool) -> None:
    """Raise DomainError unless ``frames`` is a [n x in_dim] block read in inference mode."""
    if train:
        raise DomainError(f"{layer.name}: a frame block with window rows is for inference only")
    if frames.ndim != 2 or frames.shape[1] != in_dim:
        raise DomainError(f"{layer.name}: expected a [frames x {in_dim}] block, got {frames.shape}")


class Layer:
    """Base class: named parameter tensors with same-shape gradient tensors.

    ``state`` holds the tensors a checkpoint stores besides the parameters
    (running statistics and the like); training never takes a gradient of them.
    """

    _saved = None  # what backward reads; kept by a train-mode forward only

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}

    @cached_property
    def grads(self) -> dict[str, np.ndarray]:
        """Gradient buffers under the ``params`` keys, made zeroed at first read unless a Model set its own."""
        return {key: np.zeros(param.shape) for key, param in self.params.items()}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_saved(self):
        """Return the state the last train-mode forward kept, and drop it."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise DomainError(
                f"{self.name}: backward needs a forward(train=True) first; "
                "an inference forward keeps no backward state"
            )
        return saved

    def sublayers(self) -> list["Layer"]:
        return []


class Dense(Layer):
    """Affine map y = xW + b over the last axis.

    Accepts [batch x in] or [batch x time x in]; on 3-D input the same kernel
    applies at every timestep (time-distributed behaviour). With ``rows`` it
    maps a [frames x in] block and returns the rows' [batch x time x out].
    """

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator):
        super().__init__(name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params["W"] = glorot_uniform(rng, in_dim, out_dim)
        self.params["b"] = np.zeros(out_dim)

    def forward(self, x, train=False, rows=None):
        if rows is not None:
            check_frame_block(self, x, self.in_dim, train)
            self._saved = None
            return (x @ self.params["W"] + self.params["b"])[rows]
        if x.shape[-1] != self.in_dim:
            raise DomainError(
                f"{self.name}: input width {x.shape[-1]} does not match {self.in_dim}"
            )
        x2d = x.reshape(-1, self.in_dim)
        self._saved = (x2d, x.shape) if train else None
        out = x2d @ self.params["W"] + self.params["b"]
        return out.reshape(*x.shape[:-1], self.out_dim)

    def backward(self, grad, need_dx=True):
        x2d, x_shape = self._take_saved()
        g2d = grad.reshape(-1, self.out_dim)
        add_product(x2d.T, g2d, self.grads["W"])
        self.grads["b"] += g2d.sum(axis=0)
        if not need_dx:
            return None
        return (g2d @ self.params["W"].T).reshape(x_shape)


class PReLU(Layer):
    """y = x for x > 0 else alpha * x, with one learnable alpha per feature."""

    def __init__(self, n_features: int, name: str):
        super().__init__(name)
        self.params["alpha"] = np.full(n_features, _PRELU_ALPHA_INIT)

    def forward(self, x, train=False):
        if x.shape[-1] != self.params["alpha"].shape[0]:
            raise DomainError(
                f"{self.name}: feature width {x.shape[-1]} does not match "
                f"{self.params['alpha'].shape[0]}"
            )
        pos = x > 0
        self._saved = (x, pos) if train else None
        return np.where(pos, x, self.params["alpha"] * x)

    def backward(self, grad):
        x, pos = self._take_saved()
        axes = tuple(range(grad.ndim - 1))
        self.grads["alpha"] += np.sum(grad * x * ~pos, axis=axes)
        return np.where(pos, grad, self.params["alpha"] * grad)


class Tanh(Layer):
    """Saturating output activation; keeps predictions strictly inside (-1, 1)."""

    def __init__(self, name: str = "tanh"):
        super().__init__(name)

    def forward(self, x, train=False):
        y = np.tanh(x)
        self._saved = y if train else None
        return y

    def backward(self, grad):
        y = self._take_saved()
        return grad * (1.0 - y**2)


class BatchNorm(Layer):
    """Per-feature normalization over all leading axes.

    Train mode uses batch statistics (biased variance, eps=1e-5) and updates
    running statistics with momentum 0.9; inference mode uses the running
    statistics, kept in ``state`` as ``running_mean`` and ``running_var`` and
    rebound, not updated in place, at each train step. A 3-D
    [batch x time x features] input is treated as a (batch*time) x features
    batch.
    """

    def __init__(self, n_features: int, name: str):
        super().__init__(name)
        self.params["gamma"] = np.ones(n_features)
        self.params["beta"] = np.zeros(n_features)
        self.state["running_mean"] = np.zeros(n_features)
        self.state["running_var"] = np.ones(n_features)

    def forward(self, x, train=False):
        n_features = self.params["gamma"].shape[0]
        if x.shape[-1] != n_features:
            raise DomainError(
                f"{self.name}: feature width {x.shape[-1]} does not match {n_features}"
            )
        axes = tuple(range(x.ndim - 1))
        if train:
            n = int(np.prod(x.shape[:-1]))
            if n < 2:
                raise DomainError(f"{self.name}: train-mode batch norm needs ≥ 2 rows, got {n}")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            state = self.state
            state["running_mean"] = _BN_MOMENTUM * state["running_mean"] + (1 - _BN_MOMENTUM) * mean
            state["running_var"] = _BN_MOMENTUM * state["running_var"] + (1 - _BN_MOMENTUM) * var
        else:
            mean = self.state["running_mean"]
            var = self.state["running_var"]
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = (x - mean) * inv_std
        self._saved = (xhat, inv_std, n) if train else None
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, grad):
        xhat, inv_std, n = self._take_saved()
        axes = tuple(range(grad.ndim - 1))
        self.grads["gamma"] += np.sum(grad * xhat, axis=axes)
        self.grads["beta"] += np.sum(grad, axis=axes)
        dxhat = grad * self.params["gamma"]
        # standard batch-norm input gradient with batch statistics
        return (
            inv_std
            / n
            * (
                n * dxhat
                - np.sum(dxhat, axis=axes)
                - xhat * np.sum(dxhat * xhat, axis=axes)
            )
        )


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units and rescales survivors; inference is identity.

    Only a train-mode forward draws from ``rng``, so it may be None until then:
    a restored ``Model`` binds its generator at its first train-mode forward.
    """

    def __init__(self, rate: float, name: str, rng: np.random.Generator | None):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            # rate 0 draws nothing and keeps every unit: an identity backward
            self._saved = True if train else None
            return x
        # the boolean keep mask; forward and backward scale by the float mask it gives
        self._saved = self.rng.random(x.shape) >= self.rate
        return x * (self._saved / (1.0 - self.rate))

    def backward(self, grad):
        return grad * (self._take_saved() / (1.0 - self.rate))
