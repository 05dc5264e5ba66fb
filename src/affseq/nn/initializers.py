"""Weight initializers: Glorot-uniform input kernels, orthogonal recurrent kernels.

With ``rng=None`` each returns an uninitialized array of the right shape, for
a model whose every tensor is about to be overwritten from a checkpoint.
"""

from __future__ import annotations

import math

import numpy as np


def glorot_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> np.ndarray:
    if rng is None:
        return np.empty((fan_in, fan_out))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def orthogonal(rng: np.random.Generator | None, rows: int, cols: int) -> np.ndarray:
    if rng is None:
        return np.empty((rows, cols))
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # fix the sign ambiguity of the decomposition
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols])
