"""RMSprop parameter updates and global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericFaultError
from .layers import arena_views

_RHO = 0.9
_EPS = 1e-7


class RMSprop:
    """cache <- rho*cache + (1-rho)*g^2;  w <- w - lr*g/(sqrt(cache) + eps), rho 0.9, eps 1e-7.

    Plain RMSprop. ``params`` holds a (name, dict, key) entry per tensor, updated
    in place, and ``grads`` the flat arena of their gradients in that order;
    the caches are a second ``np.zeros`` arena of the same layout. A step with a
    non-finite gradient raises before it writes anything.
    """

    def __init__(self, params: list[tuple[str, dict, str]], grads: np.ndarray, lr: float = 1e-4):
        self.lr = lr
        self.grads = grads
        self.cache = np.zeros(grads.size)
        shapes = [holder[key].shape for _, holder, key in params]
        self._slots = list(zip(params, arena_views(grads, shapes), arena_views(self.cache, shapes)))

    def step(self) -> None:
        if not np.all(np.isfinite(self.grads)):
            name = next(n for (n, _, _), g, _ in self._slots if not np.all(np.isfinite(g)))
            raise NumericFaultError(f"non-finite gradient for {name}")
        for (_, holder, key), grad, cache in self._slots:
            cache *= _RHO
            cache += (1.0 - _RHO) * grad**2
            holder[key] -= self.lr * grad / (np.sqrt(cache) + _EPS)


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place to a joint L2 norm of at most ``max_norm``; returns the norm before."""
    total = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
