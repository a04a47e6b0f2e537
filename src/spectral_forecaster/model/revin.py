"""Reversible per-channel standardization around the forecaster.

Each row (one channel of one sample) is normalized to zero mean and unit
variance over its lookback window; the captured statistics are replayed onto
the forecast. Statistics are plain numpy, deliberately outside the gradient
tape. Population variance, floored at ``NORM_EPS`` as in every normalization
layer.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import NumericError
from ..numeric import tensor as T
from ..numeric.tensor import NORM_EPS, Parameter, Tensor
from ..nn import Module


class RevIN(Module):
    """Per-row standardization plus the optional learnable affine pair.

    The affine is a scalar scale/shift shared across channels (the model is
    channel-count agnostic, so per-channel affine weights have no stable
    shape to live in). Disabled by default.
    """

    def __init__(self, affine: bool = False):
        self.affine = affine
        if affine:
            self.gamma = Parameter((), 1.0)
            self.beta = Parameter((), 0.0)

    def normalize(self, x: np.ndarray) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
        """Standardize each row over its last axis; returns the rows and their (mean, std)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] < 2:
            raise ValueError(f"revin needs at least 2 samples per row, got shape {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, in one line
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)  # population variance
        if not np.isfinite(var).all():
            raise NumericError("rows too large for revin statistics in float64")
        if np.any(var == 0.0):
            warnings.warn("zero-variance channel normalized with eps-floored std", stacklevel=2)
        std = np.sqrt(var + NORM_EPS)
        out = Tensor((x - mean) / std)
        if self.affine:
            out = T.add(T.mul(out, self.gamma), self.beta)
        return out, (mean, std)

    def denormalize(self, y: Tensor, stats: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Replay the (mean, std) :meth:`normalize` captured onto a forecast of the same rows."""
        mean, std = stats
        if y.shape[:-1] != mean.shape[:-1]:
            raise ValueError(
                f"statistics cover rows {mean.shape[:-1]}, forecast has rows {y.shape[:-1]}"
            )
        if self.affine:
            y = T.div(T.sub(y, self.beta), self.gamma)
        return T.add(T.mul(y, std), mean)
