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
only its timestep walk: ``_scan(pre)`` maps the per-gate input projections
to the output sequence, and ``_scan_back(d_out)`` returns the per-gate
pre-activation gradients, accumulating the ``U`` gradients on the way.
Every layer returns the whole hidden-state sequence.

Input kernels are Glorot-uniform, recurrent kernels orthogonal, biases zero.
Input projections for the whole sequence run as one 2-D matmul per gate on
[batch*T x in] (a 3-D ``@`` runs one small matmul per sequence), and so do
the input-gradient terms in backward; the recurrent part walks timesteps.
Per-gate products are summed one by one in gate order, never folded into one
wider matmul, whose different rounding would move low bits.
The sigmoid takes exp(-|x|), which never overflows and needs no branch.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .initializers import glorot_uniform, orthogonal
from .layers import Layer


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
        self.zero_grads()

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[-1] != self.in_dim:
            raise DomainError(f"{self.name}: expected [batch x T x {self.in_dim}], got {x.shape}")
        batch, steps, _ = x.shape
        p = self.params
        self._x = x
        x2d = x.reshape(-1, self.in_dim)
        pre = tuple(
            (x2d @ p[f"W_{g}"] + p[f"b_{g}"]).reshape(batch, steps, self.hidden_dim)
            for g in self._GATES
        )
        return self._scan(pre)

    def backward(self, grad, need_dx=True):
        dpre = self._scan_back(grad)
        x2d = self._x.reshape(-1, self.in_dim)
        dx = np.zeros_like(x2d) if need_dx else None
        for gate, dgate in zip(self._GATES, dpre):
            g2d = dgate.reshape(-1, self.hidden_dim)
            self.grads[f"W_{gate}"] += x2d.T @ g2d
            self.grads[f"b_{gate}"] += g2d.sum(axis=0)
            if need_dx:
                dx += g2d @ self.params[f"W_{gate}"].T
        return dx.reshape(self._x.shape) if need_dx else None


class GRULayer(_Gated):
    _GATES = ("z", "r", "h")

    def _scan(self, pre):
        xz, xr, xh = pre
        batch, steps, _ = xz.shape
        p = self.params
        h = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, steps, self.hidden_dim))
        self._cache = []
        for t in range(steps):
            z = _sigmoid(xz[:, t] + h @ p["U_z"])
            r = _sigmoid(xr[:, t] + h @ p["U_r"])
            rh = r * h
            hh = np.tanh(xh[:, t] + rh @ p["U_h"])
            self._cache.append((z, r, hh, h, rh))
            h = z * h + (1.0 - z) * hh
            outputs[:, t] = h
        return outputs

    def _scan_back(self, d_out):
        p = self.params
        batch, steps, _ = d_out.shape
        dxz, dxr, dxh = (np.empty(d_out.shape) for _ in self._GATES)
        dh_next = np.zeros((batch, self.hidden_dim))
        for t in reversed(range(steps)):
            z, r, hh, h_prev, rh = self._cache[t]
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

    def _scan(self, pre):
        pre_i, pre_f, pre_o, pre_g = pre
        batch, steps, _ = pre_i.shape
        p = self.params
        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        outputs = np.empty((batch, steps, self.hidden_dim))
        self._cache = []
        for t in range(steps):
            i = _sigmoid(pre_i[:, t] + h @ p["U_i"])
            f = _sigmoid(pre_f[:, t] + h @ p["U_f"])
            o = _sigmoid(pre_o[:, t] + h @ p["U_o"])
            g = np.tanh(pre_g[:, t] + h @ p["U_g"])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            self._cache.append((i, f, o, g, h, c, tanh_c))
            h = o * tanh_c
            c = c_new
            outputs[:, t] = h
        return outputs

    def _scan_back(self, d_out):
        p = self.params
        batch, steps, _ = d_out.shape
        dpre = tuple(np.empty(d_out.shape) for _ in self._GATES)
        dh_next = np.zeros((batch, self.hidden_dim))
        dc_next = np.zeros((batch, self.hidden_dim))
        for t in reversed(range(steps)):
            i, f, o, g, h_prev, c_prev, tanh_c = self._cache[t]
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

    def param_count(self):
        return self.fwd.param_count() + self.bwd.param_count()

    def zero_grads(self):
        self.fwd.zero_grads()
        self.bwd.zero_grads()

    def forward(self, x, train=False):
        out_f = self.fwd.forward(x, train)
        # one contiguous reversed copy, which the layer's forward and backward
        # reshape as views instead of copying the strided x[:, ::-1] each time
        out_b = self.bwd.forward(np.ascontiguousarray(x[:, ::-1]), train)[:, ::-1]
        self._split = out_f.shape[-1]
        return np.concatenate([out_f, out_b], axis=-1)

    def backward(self, grad, need_dx=True):
        dx_f = self.fwd.backward(grad[..., : self._split], need_dx)
        dx_b = self.bwd.backward(grad[..., self._split :][:, ::-1], need_dx)
        if not need_dx:
            return None
        return dx_f + dx_b[:, ::-1]
