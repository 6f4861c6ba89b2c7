"""A from-scratch NumPy deep-learning substrate (autograd, layers, optim).

This package replaces PyTorch 1.1 used by the paper.  See DESIGN.md §2 for
the substitution rationale.
"""

from . import functional
from . import tape
from . import batched
from .attention import MultiHeadAttention, PositionalEncoding, TransformerEncoderLayer
from .init import seed
from .layers import (
    Conv1d,
    Conv2d,
    Dropout,
    Identity,
    LayerNorm,
    LeakyReLU,
    Linear,
    MaxPool1d,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Upsample1d,
    Upsample2d,
    parameter_generation,
    weights_token,
)
from .losses import (
    bce_with_logits,
    gaussian_nll,
    kl_diag_gaussian,
    l1_loss,
    mse_loss,
)
from .optim import SGD, Adam, clip_grad_norm
from .receptive import UNBOUNDED, ReceptiveField
from .recurrent import LSTM, LSTMCell
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "seed",
    "functional",
    "tape",
    "batched",
    "ReceptiveField",
    "UNBOUNDED",
    "Module",
    "Parameter",
    "parameter_generation",
    "weights_token",
    "Linear",
    "Conv1d",
    "Conv2d",
    "MaxPool1d",
    "MaxPool2d",
    "Upsample1d",
    "Upsample2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Identity",
    "Sequential",
    "Dropout",
    "LayerNorm",
    "LSTM",
    "LSTMCell",
    "MultiHeadAttention",
    "PositionalEncoding",
    "TransformerEncoderLayer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "mse_loss",
    "l1_loss",
    "bce_with_logits",
    "gaussian_nll",
    "kl_diag_gaussian",
]
