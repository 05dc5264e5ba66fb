"""Dense, activation, normalization, and dropout layers with exact backward passes.

Every layer exposes ``forward(x, train=False)`` and ``backward(grad)``;
parameters and their gradients live in the ``params`` / ``grads`` dicts under
matching keys. Layers that can sit first in a branch (``Dense`` and the
recurrent layers) also take ``backward(grad, need_dx=False)``, which
accumulates the same parameter gradients, skips the input-gradient product
and returns None. All math is float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .initializers import glorot_uniform

_PRELU_ALPHA_INIT = 0.25
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


class Layer:
    """Base class: named parameter tensors with same-shape gradient tensors."""

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        for key, param in self.params.items():
            self.grads[key] = np.zeros_like(param)

    def state(self) -> dict[str, np.ndarray]:
        """Persistent non-trainable tensors (running statistics and the like)."""
        return {}

    def sublayers(self) -> list["Layer"]:
        return []


class Dense(Layer):
    """Affine map y = xW + b over the last axis.

    Accepts [batch x in] or [batch x time x in]; on 3-D input the same kernel
    applies at every timestep (time-distributed behaviour).
    """

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator):
        super().__init__(name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params["W"] = glorot_uniform(rng, in_dim, out_dim)
        self.params["b"] = np.zeros(out_dim)
        self.zero_grads()

    def forward(self, x, train=False):
        if x.shape[-1] != self.in_dim:
            raise DomainError(
                f"{self.name}: input width {x.shape[-1]} does not match {self.in_dim}"
            )
        self._x_shape = x.shape
        self._x2d = x.reshape(-1, self.in_dim)
        out = self._x2d @ self.params["W"] + self.params["b"]
        return out.reshape(*x.shape[:-1], self.out_dim)

    def backward(self, grad, need_dx=True):
        g2d = grad.reshape(-1, self.out_dim)
        self.grads["W"] += self._x2d.T @ g2d
        self.grads["b"] += g2d.sum(axis=0)
        if not need_dx:
            return None
        return (g2d @ self.params["W"].T).reshape(self._x_shape)


class PReLU(Layer):
    """y = x for x > 0 else alpha * x, with one learnable alpha per feature."""

    def __init__(self, n_features: int, name: str):
        super().__init__(name)
        self.params["alpha"] = np.full(n_features, _PRELU_ALPHA_INIT)
        self.zero_grads()

    def forward(self, x, train=False):
        if x.shape[-1] != self.params["alpha"].shape[0]:
            raise DomainError(
                f"{self.name}: feature width {x.shape[-1]} does not match "
                f"{self.params['alpha'].shape[0]}"
            )
        self._x = x
        self._pos = x > 0
        return np.where(self._pos, x, self.params["alpha"] * x)

    def backward(self, grad):
        neg = ~self._pos
        axes = tuple(range(grad.ndim - 1))
        self.grads["alpha"] += np.sum(grad * self._x * neg, axis=axes)
        return np.where(self._pos, grad, self.params["alpha"] * grad)


class Tanh(Layer):
    """Saturating output activation; keeps predictions strictly inside (-1, 1)."""

    def __init__(self, name: str = "tanh"):
        super().__init__(name)

    def forward(self, x, train=False):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad):
        return grad * (1.0 - self._y**2)


class BatchNorm(Layer):
    """Per-feature normalization over all leading axes.

    Train mode uses batch statistics (biased variance, eps=1e-5) and updates
    running statistics with momentum 0.9; inference mode uses the running
    statistics. A 3-D [batch x time x features] input is treated as a
    (batch*time) x features batch.
    """

    def __init__(self, n_features: int, name: str):
        super().__init__(name)
        self.params["gamma"] = np.ones(n_features)
        self.params["beta"] = np.zeros(n_features)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.zero_grads()

    def state(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train=False):
        n_features = self.params["gamma"].shape[0]
        if x.shape[-1] != n_features:
            raise DomainError(
                f"{self.name}: feature width {x.shape[-1]} does not match {n_features}"
            )
        self._train = train
        axes = tuple(range(x.ndim - 1))
        if train:
            n = int(np.prod(x.shape[:-1]))
            if n < 2:
                raise DomainError(f"{self.name}: train-mode batch norm needs ≥ 2 rows, got {n}")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = _BN_MOMENTUM * self.running_mean + (1 - _BN_MOMENTUM) * mean
            self.running_var = _BN_MOMENTUM * self.running_var + (1 - _BN_MOMENTUM) * var
            self._n = n
        else:
            mean = self.running_mean
            var = self.running_var
        self._inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        self._xhat = (x - mean) * self._inv_std
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(self, grad):
        axes = tuple(range(grad.ndim - 1))
        self.grads["gamma"] += np.sum(grad * self._xhat, axis=axes)
        self.grads["beta"] += np.sum(grad, axis=axes)
        dxhat = grad * self.params["gamma"]
        if not self._train:
            return dxhat * self._inv_std
        n = self._n
        # standard batch-norm input gradient with batch statistics
        return (
            self._inv_std
            / n
            * (
                n * dxhat
                - np.sum(dxhat, axis=axes)
                - self._xhat * np.sum(dxhat * self._xhat, axis=axes)
            )
        )


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units and rescales survivors; inference is identity."""

    def __init__(self, rate: float, name: str, rng: np.random.Generator):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask
