"""Learnable frequency filters and the spectral gating block.

A filter is a real parameter vector ``w`` whose transfer function is its own
transform. Applying it multiplies the signal's spectrum by the transfer,
bin by bin, which equals circular convolution of the two sequences in time.
Both ``w`` and the signal are real, so the product spectrum keeps conjugate
symmetry and its inverse transform is real.

The block wraps the filter in normalization: batch-normalize, filter along
the embedding axis of every patch row, instance-normalize, then optionally a
residual two-layer MLP. There is no skip connection around the filter; the
near-impulse initialization is what makes a fresh block close to identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import BatchNorm, FeedForward, InstanceNorm, Module
from .numeric import tensor as T
from .numeric.tensor import Parameter, Tensor

FILTER_INIT_STD = 0.02


@dataclass(frozen=True)
class SpectralBlockConfig:
    """Shape of a spectral block: its MLP switch and the MLP's width.

    ``mlp_hidden`` defaults to ``2 * d_model`` (:class:`FeedForward` owns that
    rule). A model that builds no spectral block refuses any other section
    than the default (:class:`~spectral_forecaster.model.ModelConfig`).
    """

    use_mlp: bool = True
    mlp_hidden: int | None = None

    def __post_init__(self):
        if self.use_mlp and self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")


def _near_impulse(rng: np.random.Generator, view: np.ndarray) -> None:
    """Draw a filter into ``view``: w ~ N(0, 0.02) with 1 added at the origin.

    Drawn in place, with the same bits as ``rng.normal(0.0, 0.02)``.
    """
    rng.standard_normal(out=view)
    view *= FILTER_INIT_STD
    view[0] += 1.0


class SpectralFilter(Module):
    """Trainable real filter of ``length`` taps, ``w``, applied by spectral gating."""

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"filter length must be >= 1, got {length}")
        self.w = Parameter(length, _near_impulse)

    def apply(self, y: Tensor) -> Tensor:
        """Filter ``y`` along its last axis; equals circular convolution with ``w``."""
        return T.spectral_gate(y, self.w)


def amplitude_spectrum(f: SpectralFilter) -> np.ndarray:
    """Per-bin transfer magnitudes |P_k|, length ``f.w.size // 2 + 1``."""
    re, im = T.rfft_kernel(f.w.data)
    return np.hypot(re, im)


class SpectralBlock(Module):
    """Batch norm, spectral gating, instance norm, optional residual MLP.

    Input and output are (rows, patches, d_model).
    """

    def __init__(self, d_model: int, cfg: SpectralBlockConfig, dropout: float = 0.0):
        self.norm_in = BatchNorm(d_model)
        self.filter = SpectralFilter(d_model)
        self.norm_mid = InstanceNorm(d_model)
        self.mlp = FeedForward(d_model, cfg.mlp_hidden, dropout) if cfg.use_mlp else None

    def forward(self, y: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        y = self.norm_mid(self.filter.apply(self.norm_in(y)))
        if self.mlp is not None:
            y = T.add(y, self.mlp(y, rng))
        return y
