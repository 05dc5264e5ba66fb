"""Multi-branch sequence regression models for valence/arousal prediction.

The fusion network processes three modalities separately and concatenates
their 64-dim sequence outputs before a shared time-distributed head:

  audio    [B x 15 x 168]  -> GRU(128)+PReLU+Drop -> GRU(64)+PReLU+Drop -> BN
  expnet   [B x 15 x 2048] -> GRU(256)+PReLU -> GRU(256)+PReLU -> GRU(64)+PReLU -> BN
  facepose [B x 15 x 714]  -> TD-Dense(128)+Drop -> TD-Dense(64)+Drop -> BN
  concat -> Dense(192->64)+PReLU -> Dense(64->2) -> tanh

The unimodal variants keep their branch stack (without batch norm) and attach
a Dense(64->64)+PReLU -> Dense(64->2) -> tanh head. ``cell="bilstm"`` swaps
every GRU slot for a bidirectional LSTM at half width per direction, so layer
output widths are unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError, FileFormatError, NumericFaultError
from .nn import (
    BatchNorm,
    Bidirectional,
    Dense,
    Dropout,
    GRULayer,
    LSTMLayer,
    PReLU,
    Tanh,
)

VARIANTS = ("fusion", "audio_only", "video_only")
CELLS = ("gru", "bilstm")
BRANCH_ORDER = ("audio", "expnet", "facepose")

_BRANCH_WIDTHS = {"audio": (128, 64), "expnet": (256, 256, 64), "facepose": (128, 64)}
_HEAD_HIDDEN = 64


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "fusion"
    cell: str = "gru"
    sequence_len: int = 15
    dropout: float = 0.25
    audio_dim: int = 168
    expnet_dim: int = 2048
    facepose_dim: int = 714
    width_scale: int = 1  # divides every hidden width; >1 only for small test builds

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r} (want one of {VARIANTS})")
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell type {self.cell!r} (want one of {CELLS})")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.sequence_len < 1:
            raise ConfigError(f"sequence_len must be ≥ 1, got {self.sequence_len}")
        if self.width_scale < 1:
            raise ConfigError(f"width_scale must be ≥ 1, got {self.width_scale}")
        for name in BRANCH_ORDER:
            for width in _BRANCH_WIDTHS[name]:
                scaled = width // self.width_scale
                if scaled < 1:
                    raise ConfigError(f"width_scale {self.width_scale} collapses a {width}-unit layer")
                if self.cell == "bilstm" and scaled % 2:
                    raise ConfigError(
                        f"bilstm needs even widths; {width}//{self.width_scale} = {scaled}"
                    )

    def modalities(self) -> tuple[str, ...]:
        if self.variant == "audio_only":
            return ("audio",)
        if self.variant == "video_only":
            return ("expnet",)
        return BRANCH_ORDER

    def input_dim(self, modality: str) -> int:
        return {
            "audio": self.audio_dim,
            "expnet": self.expnet_dim,
            "facepose": self.facepose_dim,
        }[modality]

    def branch_widths(self, modality: str) -> tuple[int, ...]:
        return tuple(w // self.width_scale for w in _BRANCH_WIDTHS[modality])

    def head_hidden(self) -> int:
        return _HEAD_HIDDEN // self.width_scale

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Rebuild a stored config; FileFormatError names a key or type that does not fit.

        Missing keys take their defaults; values of the right type but out of
        range still raise ConfigError.
        """
        if not isinstance(data, dict):
            raise FileFormatError(f"model config is a JSON {type(data).__name__}, not an object")
        types = {f.name: type(f.default) for f in fields(cls)}
        for key, value in data.items():
            want = types.get(key)
            if want is None:
                raise FileFormatError(f"unknown model config key {key!r}")
            # JSON has one number type: an integral float field may arrive as int
            if type(value) is not want and not (want is float and type(value) is int):
                raise FileFormatError(f"model config {key} must be {want.__name__}, got {value!r}")
        return cls(**data)


class Model:
    """A built network: per-modality branch stacks plus a shared head."""

    def __init__(self, config: ModelConfig, seed: int = 0, init: bool = True):
        self.config = config
        self.rng = np.random.default_rng(seed)
        # init=False leaves weight kernels uninitialized: only for a model whose
        # every tensor load_state overwrites next. Dropout keeps the seeded rng.
        self._init_rng = self.rng if init else None
        self.branches: dict[str, list] = {}
        for modality in config.modalities():
            self.branches[modality] = self._build_branch(modality)
        self.head = self._build_head()

    # -- construction -----------------------------------------------------

    def _make_rnn(self, in_dim: int, width: int, name: str):
        rng = self._init_rng
        if self.config.cell == "gru":
            return GRULayer(in_dim, width, name, rng)
        return Bidirectional(
            lambda n: LSTMLayer(in_dim, width // 2, n, rng), name
        )

    def _build_branch(self, modality: str) -> list:
        cfg = self.config
        widths = cfg.branch_widths(modality)
        in_dim = cfg.input_dim(modality)
        layers = []
        if modality == "facepose":
            for i, width in enumerate(widths, start=1):
                layers.append(Dense(in_dim, width, f"{modality}.td{i}", self._init_rng))
                layers.append(Dropout(cfg.dropout, f"{modality}.drop{i}", self.rng))
                in_dim = width
        else:
            with_dropout = modality == "audio"
            for i, width in enumerate(widths, start=1):
                rnn = self._make_rnn(in_dim, width, f"{modality}.rnn{i}")
                layers.append(rnn)
                layers.append(PReLU(rnn.hidden_dim, f"{modality}.act{i}"))
                if with_dropout:
                    layers.append(Dropout(cfg.dropout, f"{modality}.drop{i}", self.rng))
                in_dim = rnn.hidden_dim
        if cfg.variant == "fusion":
            layers.append(BatchNorm(in_dim, f"{modality}.norm"))
        return layers

    def _build_head(self) -> list:
        concat_dim = sum(self.config.branch_widths(m)[-1] for m in self.config.modalities())
        hidden = self.config.head_hidden()
        return [
            Dense(concat_dim, hidden, "head.dense1", self._init_rng),
            PReLU(hidden, "head.act"),
            Dense(hidden, 2, "head.dense2", self._init_rng),
            Tanh("head.out"),
        ]

    # -- execution --------------------------------------------------------

    def _run_stack(self, layers: list, x: np.ndarray, train: bool) -> np.ndarray:
        for layer in layers:
            x = layer.forward(x, train)
            if not np.all(np.isfinite(x)):
                raise NumericFaultError(f"non-finite output from layer {layer.name}")
        return x

    def forward(self, inputs: dict[str, np.ndarray], train: bool = False) -> np.ndarray:
        """Map per-modality [B x T x dim] inputs to [B x T x 2] predictions in (-1, 1)."""
        cfg = self.config
        needed = cfg.modalities()
        batch = None
        for modality in needed:
            if modality not in inputs:
                raise DomainError(f"variant {cfg.variant!r} requires modality {modality!r}")
            x = inputs[modality]
            want = (cfg.sequence_len, cfg.input_dim(modality))
            if x.ndim != 3 or x.shape[1:] != want:
                raise DomainError(
                    f"{modality} input must be [batch x {want[0]} x {want[1]}], got {x.shape}"
                )
            if batch is None:
                batch = x.shape[0]
            elif x.shape[0] != batch:
                raise DomainError("modality inputs disagree on batch size")

        branch_outs = [
            self._run_stack(self.branches[m], np.asarray(inputs[m], dtype=np.float64), train)
            for m in needed
        ]
        return self._run_stack(self.head, np.concatenate(branch_outs, axis=-1), train)

    def backward(self, d_pred: np.ndarray, input_grads: bool = True) -> dict[str, np.ndarray] | None:
        """Accumulate parameter gradients; returns gradients w.r.t. each input.

        With ``input_grads=False`` the first layer of each branch skips its
        input-gradient products and None is returned; parameter gradients
        are unchanged.
        """
        grad = d_pred
        for layer in reversed(self.head):
            grad = layer.backward(grad)
        modalities = self.config.modalities()
        widths = [self.config.branch_widths(m)[-1] for m in modalities]
        branch_grads = np.split(grad, np.cumsum(widths)[:-1], axis=-1)
        out = {}
        for modality, grad in zip(modalities, branch_grads):
            first, *rest = self.branches[modality]
            for layer in reversed(rest):
                grad = layer.backward(grad)
            out[modality] = first.backward(grad, need_dx=input_grads)
        return out if input_grads else None

    # -- parameter plumbing -----------------------------------------------

    def _leaf_layers(self) -> list:
        leaves = []
        for modality in self.config.modalities():
            for layer in self.branches[modality]:
                leaves.extend(layer.sublayers() or [layer])
        for layer in self.head:
            leaves.extend(layer.sublayers() or [layer])
        return leaves

    def parameter_slots(self) -> list[tuple[str, object, str]]:
        """Deterministically ordered (qualified_name, layer, key) triples."""
        slots = []
        for layer in self._leaf_layers():
            for key in layer.params:
                slots.append((f"{layer.name}.{key}", layer, key))
        return slots

    def state_slots(self) -> list[tuple[str, object, str]]:
        slots = []
        for layer in self._leaf_layers():
            for key in layer.state():
                slots.append((f"{layer.name}.{key}", layer, key))
        return slots

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {name: layer.params[key] for name, layer, key in self.parameter_slots()}

    def named_state(self) -> dict[str, np.ndarray]:
        return {name: getattr(layer, key) for name, layer, key in self.state_slots()}

    def zero_grads(self) -> None:
        for layer in self._leaf_layers():
            layer.zero_grads()

    def gradient_slots(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, param, grad) triples in the same order as parameter_slots."""
        return [
            (name, layer.params[key], layer.grads[key])
            for name, layer, key in self.parameter_slots()
        ]

    def parameter_count(self) -> int:
        return sum(layer.params[key].size for _, layer, key in self.parameter_slots())

    def parameter_table(self) -> list[tuple[str, int]]:
        """Per-layer parameter counts in network order."""
        table = []
        for layer in self._leaf_layers():
            if layer.params:
                table.append((layer.name, layer.param_count()))
        return table

    def load_state(self, params: dict[str, np.ndarray], state: dict[str, np.ndarray]) -> None:
        """Install named tensors from a checkpoint, validating names and shapes.

        A float64 tensor is installed as it is, not copied, so the model then
        shares it with the caller (``restore_model``: with the ``Checkpoint``);
        other dtypes are converted. Gradient buffers are left as they are:
        every layer allocates them at construction, and training zeroes them
        before each backward pass.
        """
        own = {name: (layer, key) for name, layer, key in self.parameter_slots()}
        if set(own) != set(params):
            missing = sorted(set(own) - set(params))
            extra = sorted(set(params) - set(own))
            raise FileFormatError(
                f"checkpoint parameters do not match model (missing {missing}, unexpected {extra})"
            )
        for name, (layer, key) in own.items():
            value = params[name]
            if value.shape != layer.params[key].shape:
                raise FileFormatError(
                    f"checkpoint tensor {name} has shape {value.shape}, "
                    f"model expects {layer.params[key].shape}"
                )
            layer.params[key] = value.astype(np.float64, copy=False)
        own_state = {name: (layer, key) for name, layer, key in self.state_slots()}
        if set(own_state) != set(state):
            raise FileFormatError("checkpoint state tensors do not match model")
        for name, (layer, key) in own_state.items():
            value = state[name]
            if value.shape != getattr(layer, key).shape:
                raise FileFormatError(f"checkpoint state tensor {name} has shape {value.shape}")
            setattr(layer, key, value.astype(np.float64, copy=False))


def build(config: ModelConfig, seed: int = 0) -> Model:
    """Construct a model with seeded initialization."""
    return Model(config, seed=seed)
