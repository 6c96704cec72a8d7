"""Runtime algebra of adapted linear layers."""

import numpy as np

from .errors import ValidationError
from .spectral import as_finite_array
from .stm import AdaptedLayer


def forward(layer: AdaptedLayer, x: np.ndarray) -> np.ndarray:
    """Apply the effective weight to activations ``x`` (n-vector or n x batch).

    Computed as ``W0 x + B (A x)``: two thin multiplies, never forming B A.
    """
    x = as_finite_array(x, "activations", np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != layer.w0.shape[1]:
        raise ValidationError(
            f"activations must have {layer.w0.shape[1]} rows, got shape {x.shape}"
        )
    return layer.w0 @ x + layer.b @ (layer.a @ x)


def merge(layer: AdaptedLayer) -> np.ndarray:
    """The effective weight ``W0 + B A`` as a dense matrix."""
    return layer.w0 + layer.b @ layer.a


def trainable_param_count(layers: list[AdaptedLayer]) -> int:
    """Total tunable entries, ``m*r + r*n`` per layer."""
    return sum(layer.b.size + layer.a.size for layer in layers)
