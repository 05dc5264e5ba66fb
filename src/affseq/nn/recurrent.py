"""GRU and LSTM layers with exact backpropagation through time.

Gate conventions:
  GRU   z = sig(xW_z + hU_z + b_z); r = sig(xW_r + hU_r + b_r)
        h~ = tanh(xW_h + (r*h)U_h + b_h); h' = z*h + (1-z)*h~
        (the update gate carries the previous state)
  LSTM  i,f,o = sig(...); g = tanh(...); c' = f*c + i*g; h' = o*tanh(c')
        with the forget bias initialized to 1.

Both cells share one scaffold, ``_Gated``: it owns the per-gate parameters
``W_g, U_g, b_g`` (drawn in gate order), the input shape check, the input
projections and, in backward, the ``W``/``b``/input gradients. A cell adds
only its timestep walk: ``_scan(pre, cache)`` maps the per-gate input
projections to the output sequence, appending each step's gate values to
``cache`` unless it is None, and ``_scan_back(d_out, out, cache)`` returns
the per-gate pre-activation gradients, accumulating the ``U`` gradients on
the way. Every layer returns the whole hidden-state sequence.

Only a train-mode forward keeps what backward reads, and it keeps each value
once: the input, the output sequence and the step cache. In a stack the
output is the array the next layer reads, so keeping it costs nothing (a
``Bidirectional`` concatenates its directions' outputs, so there it takes
the place of the hidden-state copies the cache no longer holds), and no
layer writes into its input in place. The step cache holds no state the
output already holds: the GRU caches (z, r, h~) per step and the LSTM (i, f,
o, g, c, tanh c') with c the cell state before the step; backward reads the
previous hidden state from ``out[:, t-1]`` (zeros at t = 0), and the GRU
rebuilds r*h from it with the forward's own multiply. Backward pops each
step's entry off the cache as it walks back, so the cache shrinks as the
gradients fill. It writes each ``W`` gradient product straight into its
buffer (``add_product``), which a train step has zeroed
(``Model.zero_grads``), and adds the ``U`` and ``b`` gradients into theirs.

Input kernels are Glorot-uniform, recurrent kernels orthogonal, biases zero.
Input projections for the whole sequence run as one 2-D matmul per gate on
[batch*T x in] (a 3-D ``@`` runs one small matmul per sequence), and so do
the input-gradient terms in backward; the recurrent part walks timesteps.
Per-gate products are summed one by one in gate order, never folded into one
wider matmul, whose different rounding would move low bits.

In inference a layer that sits first in a branch may take a frame block
instead: ``forward(frames, rows=r)`` projects each row of the [n x in] block
once per gate and gathers the pre-activations of window ``i``, step ``t``
from block row ``r[i, t]``. The input projection is per frame and the
recurrence restarts at every window, so this gives ``forward(frames[r])``
bit for bit while overlapping windows share their frames' projections (the
input-GEMM hoist of Appleyard et al., arXiv:1604.01946, carried across
windows). ``Bidirectional`` hands its reversed direction ``r[:, ::-1]``, so
no reversed copy of the input is made. The block path keeps no input for
backward and refuses ``train=True``.

The sigmoid takes exp(-|x|), which never overflows and needs no branch.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .initializers import glorot_uniform, orthogonal
from .layers import Layer, add_product, check_frame_block


def _sigmoid(x):
    # -|x| is -x for x >= 0 and x below: the same exp operand as a sign split
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class _Gated(Layer):
    """Shared scaffold of a gated recurrent layer over [batch x T x in] input."""

    _GATES: tuple[str, ...] = ()
    _BIAS_INIT: dict[str, float] = {}  # gate -> initial bias; zero if absent

    def __init__(self, in_dim: int, hidden_dim: int, name: str, rng: np.random.Generator):
        super().__init__(name)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        for gate in self._GATES:
            self.params[f"W_{gate}"] = glorot_uniform(rng, in_dim, hidden_dim)
            self.params[f"U_{gate}"] = orthogonal(rng, hidden_dim, hidden_dim)
            self.params[f"b_{gate}"] = np.full(hidden_dim, self._BIAS_INIT.get(gate, 0.0))

    def forward(self, x, train=False, rows=None):
        p = self.params
        if rows is not None:
            check_frame_block(self, x, self.in_dim, train)
            self._saved = None
            return self._scan(tuple((x @ p[f"W_{g}"] + p[f"b_{g}"])[rows] for g in self._GATES), None)
        if x.ndim != 3 or x.shape[-1] != self.in_dim:
            raise DomainError(f"{self.name}: expected [batch x T x {self.in_dim}], got {x.shape}")
        batch, steps, _ = x.shape
        x2d = x.reshape(-1, self.in_dim)
        pre = tuple(
            (x2d @ p[f"W_{g}"] + p[f"b_{g}"]).reshape(batch, steps, self.hidden_dim)
            for g in self._GATES
        )
        cache = [] if train else None
        out = self._scan(pre, cache)
        self._saved = (x, out, cache) if train else None
        return out

    def backward(self, grad, need_dx=True):
        x, out, cache = self._take_saved()
        dpre = self._scan_back(grad, out, cache)
        x2d = x.reshape(-1, self.in_dim)
        dx = np.zeros_like(x2d) if need_dx else None
        for gate, dgate in zip(self._GATES, dpre):
            g2d = dgate.reshape(-1, self.hidden_dim)
            add_product(x2d.T, g2d, self.grads[f"W_{gate}"])
            self.grads[f"b_{gate}"] += g2d.sum(axis=0)
            if need_dx:
                dx += g2d @ self.params[f"W_{gate}"].T
        return dx.reshape(x.shape) if need_dx else None


class GRULayer(_Gated):
    _GATES = ("z", "r", "h")

    def _scan(self, pre, cache):
        xz, xr, xh = pre
        batch, steps, _ = xz.shape
        p = self.params
        h = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, steps, self.hidden_dim))
        for t in range(steps):
            z = _sigmoid(xz[:, t] + h @ p["U_z"])
            r = _sigmoid(xr[:, t] + h @ p["U_r"])
            rh = r * h
            hh = np.tanh(xh[:, t] + rh @ p["U_h"])
            if cache is not None:
                cache.append((z, r, hh))
            h = z * h + (1.0 - z) * hh
            outputs[:, t] = h
        return outputs

    def _scan_back(self, d_out, out, cache):
        p = self.params
        batch, steps, _ = d_out.shape
        dxz, dxr, dxh = (np.empty(d_out.shape) for _ in self._GATES)
        dh_next = np.zeros((batch, self.hidden_dim))
        h_init = np.zeros((batch, self.hidden_dim))
        for t in reversed(range(steps)):
            z, r, hh = cache.pop()
            h_prev = out[:, t - 1] if t else h_init
            rh = r * h_prev  # the forward's product, rebuilt from the same operands
            dh = d_out[:, t] + dh_next
            dz = dh * (h_prev - hh)
            dhh = dh * (1.0 - z)
            dh_prev = dh * z

            da_hh = dhh * (1.0 - hh**2)
            dxh[:, t] = da_hh
            self.grads["U_h"] += rh.T @ da_hh
            drh = da_hh @ p["U_h"].T
            dr = drh * h_prev
            dh_prev += drh * r

            da_z = dz * z * (1.0 - z)
            da_r = dr * r * (1.0 - r)
            dxz[:, t] = da_z
            dxr[:, t] = da_r
            self.grads["U_z"] += h_prev.T @ da_z
            self.grads["U_r"] += h_prev.T @ da_r
            dh_prev += da_z @ p["U_z"].T + da_r @ p["U_r"].T
            dh_next = dh_prev
        return dxz, dxr, dxh


class LSTMLayer(_Gated):
    _GATES = ("i", "f", "o", "g")
    _BIAS_INIT = {"f": 1.0}  # forget bias

    def _scan(self, pre, cache):
        pre_i, pre_f, pre_o, pre_g = pre
        batch, steps, _ = pre_i.shape
        p = self.params
        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, steps, self.hidden_dim))
        for t in range(steps):
            i = _sigmoid(pre_i[:, t] + h @ p["U_i"])
            f = _sigmoid(pre_f[:, t] + h @ p["U_f"])
            o = _sigmoid(pre_o[:, t] + h @ p["U_o"])
            g = np.tanh(pre_g[:, t] + h @ p["U_g"])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            if cache is not None:
                cache.append((i, f, o, g, c, tanh_c))
            h = o * tanh_c
            c = c_new
            outputs[:, t] = h
        return outputs

    def _scan_back(self, d_out, out, cache):
        p = self.params
        batch, steps, _ = d_out.shape
        dpre = tuple(np.empty(d_out.shape) for _ in self._GATES)
        dh_next = np.zeros((batch, self.hidden_dim))
        dc_next = np.zeros((batch, self.hidden_dim))
        h_init = np.zeros((batch, self.hidden_dim))
        for t in reversed(range(steps)):
            i, f, o, g, c_prev, tanh_c = cache.pop()
            h_prev = out[:, t - 1] if t else h_init
            dh = d_out[:, t] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f

            da = (di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g**2))
            dh_prev = np.zeros_like(dh)
            for gate, dgate, da_gate in zip(self._GATES, dpre, da):
                dgate[:, t] = da_gate
                self.grads[f"U_{gate}"] += h_prev.T @ da_gate
                dh_prev += da_gate @ p[f"U_{gate}"].T
            dh_next = dh_prev
        return dpre


class Bidirectional(Layer):
    """Run a forward and a reversed-time copy of a layer; concatenate features.

    Output width is twice the wrapped layer's hidden width.
    """

    def __init__(self, make_layer, name: str):
        super().__init__(name)
        self.fwd = make_layer(f"{name}.fwd")
        self.bwd = make_layer(f"{name}.bwd")
        self.hidden_dim = self.fwd.hidden_dim + self.bwd.hidden_dim

    def sublayers(self):
        return [self.fwd, self.bwd]

    def forward(self, x, train=False, rows=None):
        if rows is None:
            out_f = self.fwd.forward(x, train)
            # one contiguous reversed copy, which the layer's forward and backward
            # reshape as views instead of copying the strided x[:, ::-1] each time
            out_b = self.bwd.forward(np.ascontiguousarray(x[:, ::-1]), train)[:, ::-1]
        else:
            # a frame block is read through its rows, so reversing the rows reverses time
            out_f = self.fwd.forward(x, train, rows=rows)
            out_b = self.bwd.forward(x, train, rows=rows[:, ::-1])[:, ::-1]
        self._split = out_f.shape[-1]
        return np.concatenate([out_f, out_b], axis=-1)

    def backward(self, grad, need_dx=True):
        dx_f = self.fwd.backward(grad[..., : self._split], need_dx)
        dx_b = self.bwd.backward(grad[..., self._split :][:, ::-1], need_dx)
        if not need_dx:
            return None
        return dx_f + dx_b[:, ::-1]
