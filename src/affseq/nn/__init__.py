"""Minimal dense/recurrent network kernel with exact gradients (float64, numpy)."""

from .initializers import glorot_uniform, orthogonal
from .layers import BatchNorm, Dense, Dropout, Layer, PReLU, Tanh
from .losses import masked_mse
from .optim import RMSprop, clip_global_norm
from .recurrent import Bidirectional, GRULayer, LSTMLayer

__all__ = [
    "BatchNorm",
    "Bidirectional",
    "Dense",
    "Dropout",
    "GRULayer",
    "LSTMLayer",
    "Layer",
    "PReLU",
    "RMSprop",
    "Tanh",
    "clip_global_norm",
    "glorot_uniform",
    "masked_mse",
    "orthogonal",
]
