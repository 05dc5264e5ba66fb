"""Weight initializers: Glorot-uniform input kernels, orthogonal recurrent kernels.

With ``rng=None`` each returns a ``placeholder``: a read-only array of the
right shape that holds no memory, for a model whose every tensor is about to
be replaced from a checkpoint. So building such a model allocates nothing of
the size its config declares, and a stored shape is checked before any
buffer of that size exists.
"""

from __future__ import annotations

import math

import numpy as np


def placeholder(*shape: int) -> np.ndarray:
    """A read-only NaN float64 array of ``shape`` that holds no memory (zero strides)."""
    return np.broadcast_to(np.float64(np.nan), shape)


def glorot_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> np.ndarray:
    if rng is None:
        return placeholder(fan_in, fan_out)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def orthogonal(rng: np.random.Generator | None, rows: int, cols: int) -> np.ndarray:
    if rng is None:
        return placeholder(rows, cols)
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # fix the sign ambiguity of the decomposition
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols])
