"""RMSprop parameter updates and global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericFaultError

_RHO = 0.9
_EPS = 1e-7


class RMSprop:
    """cache <- rho*cache + (1-rho)*g^2;  w <- w - lr*g/(sqrt(cache) + eps), rho 0.9, eps 1e-7.

    Plain RMSprop: no momentum, no centering. Updates happen in place on the
    parameter arrays handed in, keyed by qualified name.
    """

    def __init__(self, lr: float = 1e-4):
        self.lr = lr
        self.cache: dict[str, np.ndarray] = {}

    def step(self, slots: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        """Apply one update per (name, param, grad) slot."""
        for name, param, grad in slots:
            if not np.all(np.isfinite(grad)):
                raise NumericFaultError(f"non-finite gradient for {name}")
            cache = self.cache.get(name)
            if cache is None:
                cache = np.zeros_like(param)
                self.cache[name] = cache
            cache *= _RHO
            cache += (1.0 - _RHO) * grad**2
            param -= self.lr * grad / (np.sqrt(cache) + _EPS)


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip global norm.
    """
    total = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
