"""Multi-branch sequence regression models for valence/arousal prediction.

The fusion network processes three modalities separately and concatenates
their 64-dim sequence outputs before a shared time-distributed head (input
widths are the defaults; a trained model's are those of its train files):

  audio    [B x 15 x 168]  -> GRU(128)+PReLU+Drop -> GRU(64)+PReLU+Drop -> BN
  expnet   [B x 15 x 2048] -> GRU(256)+PReLU -> GRU(256)+PReLU -> GRU(64)+PReLU -> BN
  facepose [B x 15 x 714]  -> TD-Dense(128)+Drop -> TD-Dense(64)+Drop -> BN
  concat -> Dense(192->64)+PReLU -> Dense(64->2) -> tanh

The unimodal variants keep their branch stack (without batch norm) and attach
a Dense(64->64)+PReLU -> Dense(64->2) -> tanh head. ``cell="bilstm"`` swaps
every GRU slot for a bidirectional LSTM at half width per direction, so layer
output widths are unchanged.

In inference each branch may instead read a [frames x dim] block plus the
[B x 15] window rows into it; the first layer projects each block frame once
and gathers the window rows, and every later layer sees [B x 15 x width] as
above.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .dataset import MODALITY_DIMS, SEQUENCE_LEN
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
    arena_views,
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
    dropout: float = 0.25
    # input widths: a trained model takes them from its train files, so these defaults
    # (the paper's feature widths) matter only to a config built in code
    audio_dim: int = MODALITY_DIMS["audio"]
    expnet_dim: int = MODALITY_DIMS["expnet"]
    facepose_dim: int = MODALITY_DIMS["facepose"]
    width_scale: int = 1  # divides every hidden width; >1 only for small test builds

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r} (want one of {VARIANTS})")
        if self.cell not in CELLS:
            raise ConfigError(f"unknown cell type {self.cell!r} (want one of {CELLS})")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
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
        range still raise ConfigError. Older files carry ``sequence_len``, no
        longer a setting: it is accepted only as ``SEQUENCE_LEN``.
        """
        if not isinstance(data, dict):
            raise FileFormatError(f"model config is a JSON {type(data).__name__}, not an object")
        data = dict(data)
        stored_len = data.pop("sequence_len", SEQUENCE_LEN)
        if stored_len != SEQUENCE_LEN:
            raise FileFormatError(f"model config sequence_len must be {SEQUENCE_LEN}, got {stored_len!r}")
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
        self.seed = seed
        # init=False builds placeholder kernels that hold no memory (nn.placeholder): only
        # for a model whose every tensor restore_model installs next. Its dropout generator,
        # seeded alike, is then made at first use, so a model that only scores never
        # imports numpy.random.
        self._init_rng = self.rng if init else None
        self.branches: dict[str, list] = {}
        for modality in config.modalities():
            self.branches[modality] = self._build_branch(modality)
        self.head = self._build_head()
        # The registry, in network order with a Bidirectional as its two directions:
        # ``slots`` holds each leaf's param/ then state/ entries as (stored name, dict,
        # key), ``params`` the param/ entries under their bare names.
        self.slots: list[tuple[str, dict, str]] = []
        self.params: list[tuple[str, dict, str]] = []
        self._leaves = []
        self._grad_arena = None
        self._grads: list[np.ndarray] = []
        for layer in (*itertools.chain(*self.branches.values()), *self.head):
            for leaf in layer.sublayers() or [layer]:
                self._leaves.append(leaf)
                for key in leaf.params:
                    self.slots.append((f"param/{leaf.name}.{key}", leaf.params, key))
                    self.params.append((f"{leaf.name}.{key}", leaf.params, key))
                for key in leaf.state:
                    self.slots.append((f"state/{leaf.name}.{key}", leaf.state, key))

    @cached_property
    def rng(self) -> np.random.Generator:
        """The generator seeded with ``seed`` that the initializers and every Dropout draw from."""
        return np.random.default_rng(self.seed)

    def _bind_training_state(self) -> None:
        """Give the layers the dropout generator and views of one np.zeros gradient arena.

        Done once, at the first train-mode forward or read of ``grad_arena`` or
        ``grads``, so a restored model that only scores holds neither.
        """
        if self._grad_arena is not None:
            return
        self._grad_arena = np.zeros(self.parameter_count())
        views = iter(arena_views(self._grad_arena, [holder[key].shape for _, holder, key in self.params]))
        for leaf in self._leaves:
            if isinstance(leaf, Dropout):
                leaf.rng = self.rng
            leaf.grads = {key: next(views) for key in leaf.params}
            self._grads.extend(leaf.grads.values())

    @property
    def grad_arena(self) -> np.ndarray:
        """Every parameter gradient as one flat float64 array, in ``params`` order."""
        self._bind_training_state()
        return self._grad_arena

    @property
    def grads(self) -> list[np.ndarray]:
        """The views of ``grad_arena`` that the layers write, one per ``params`` entry."""
        self._bind_training_state()
        return self._grads

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
                layers.append(Dropout(cfg.dropout, f"{modality}.drop{i}", self._init_rng))
                in_dim = width
        else:
            with_dropout = modality == "audio"
            for i, width in enumerate(widths, start=1):
                rnn = self._make_rnn(in_dim, width, f"{modality}.rnn{i}")
                layers.append(rnn)
                layers.append(PReLU(rnn.hidden_dim, f"{modality}.act{i}"))
                if with_dropout:
                    layers.append(Dropout(cfg.dropout, f"{modality}.drop{i}", self._init_rng))
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

    def _run_stack(
        self, layers: list, x: np.ndarray, train: bool, rows: np.ndarray | None = None
    ) -> np.ndarray:
        for layer in layers:
            x = layer.forward(x, train) if rows is None else layer.forward(x, train, rows=rows)
            rows = None  # only the first layer reads the frame block
            if not np.all(np.isfinite(x)):
                raise NumericFaultError(f"non-finite output from layer {layer.name}")
        return x

    def forward(
        self, inputs: dict[str, np.ndarray], train: bool = False, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Map per-modality [B x T x dim] inputs to [B x T x 2] predictions in (-1, 1).

        With ``rows``, an integer [B x T] array, each input is instead a
        [frames x dim] block and window ``i`` reads block rows ``rows[i]``; the
        result equals ``forward({m: block[rows]})`` bit for bit, but each
        branch's first layer projects every block row once. The first layers
        refuse ``rows`` with ``train=True``: they keep no input for backward.
        """
        cfg = self.config
        needed = cfg.modalities()
        if train:
            self._bind_training_state()
        batch = None
        if rows is not None:
            rows = self._check_rows(rows)
            batch = rows.shape[0]
        for modality in needed:
            if modality not in inputs:
                raise DomainError(f"variant {cfg.variant!r} requires modality {modality!r}")
            x = inputs[modality]
            width = cfg.input_dim(modality)
            if rows is not None:
                if x.ndim != 2 or x.shape[1] != width:
                    raise DomainError(f"{modality} frame block must be [frames x {width}], got {x.shape}")
                if rows.size and rows.max() >= x.shape[0]:
                    raise DomainError(
                        f"window rows reach {rows.max()}, {modality} block has {x.shape[0]} frames"
                    )
                continue
            want = (SEQUENCE_LEN, width)
            if x.ndim != 3 or x.shape[1:] != want:
                raise DomainError(
                    f"{modality} input must be [batch x {want[0]} x {want[1]}], got {x.shape}"
                )
            if batch is None:
                batch = x.shape[0]
            elif x.shape[0] != batch:
                raise DomainError("modality inputs disagree on batch size")

        branch_outs = [
            self._run_stack(self.branches[m], np.asarray(inputs[m], dtype=np.float64), train, rows)
            for m in needed
        ]
        return self._run_stack(self.head, np.concatenate(branch_outs, axis=-1), train)

    @staticmethod
    def _check_rows(rows) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != SEQUENCE_LEN or not np.issubdtype(rows.dtype, np.integer):
            raise DomainError(
                f"window rows must be integer [batch x {SEQUENCE_LEN}], got {rows.dtype} {rows.shape}"
            )
        if rows.size and rows.min() < 0:
            raise DomainError(f"window rows must be ≥ 0, got {rows.min()}")
        return rows

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

    def zero_grads(self) -> None:
        self.grad_arena.fill(0.0)

    def parameter_count(self) -> int:
        return sum(holder[key].size for _, holder, key in self.params)


def build(config: ModelConfig, seed: int = 0) -> Model:
    """Construct a model with seeded initialization."""
    return Model(config, seed=seed)
