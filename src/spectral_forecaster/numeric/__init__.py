"""Numeric core: reverse-mode autodiff over float64 numpy arrays."""

from .tensor import (
    Parameter,
    TapeNode,
    Tensor,
    backward,
    no_grad,
)

__all__ = [
    "Tensor",
    "Parameter",
    "TapeNode",
    "backward",
    "no_grad",
]
