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

_FILTER_AXES = ("embedding", "patch")


@dataclass(frozen=True)
class SpectralBlockConfig:
    """Shape of a spectral block: MLP switch, its width, and the filtered axis.

    ``filtered_axis_length`` may be left None and is then derived from the
    model (embedding width, or patch count for the per-patch-axis variant).
    ``mlp_hidden`` defaults to ``2 * d_model`` (:class:`FeedForward` owns that
    rule), whichever axis is filtered.
    """

    use_mlp: bool = True
    mlp_hidden: int | None = None
    filtered_axis_length: int | None = None
    filter_axis: str = "embedding"

    def __post_init__(self):
        if self.filter_axis not in _FILTER_AXES:
            raise ConfigError(
                f"filter_axis must be one of {_FILTER_AXES}, got {self.filter_axis!r}"
            )
        if self.use_mlp and self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")
        if self.filtered_axis_length is not None and self.filtered_axis_length < 1:
            raise ConfigError(
                f"filtered_axis_length must be >= 1, got {self.filtered_axis_length}"
            )


def _near_impulse(rng: np.random.Generator, view: np.ndarray) -> None:
    """Draw a filter into ``view``: w ~ N(0, 0.02) with 1 added at the origin.

    Drawn in place, with the same bits as ``rng.normal(0.0, 0.02)``.
    """
    rng.standard_normal(out=view)
    view *= FILTER_INIT_STD
    view[0] += 1.0


class SpectralFilter(Module):
    """Trainable length-``n_f`` real filter applied by spectral gating."""

    def __init__(self, n_f: int):
        if n_f < 1:
            raise ValueError(f"filter length must be >= 1, got {n_f}")
        self.n_f = n_f
        self.w = Parameter(n_f, _near_impulse)

    def apply(self, y: Tensor) -> Tensor:
        """Filter ``y`` along its last axis; equals circular convolution with ``w``."""
        return T.spectral_gate(y, self.w)


def amplitude_spectrum(f: SpectralFilter) -> np.ndarray:
    """Per-bin transfer magnitudes |P_k|, length ``n_f // 2 + 1``."""
    re, im = T.rfft_kernel(f.w.data)
    return np.hypot(re, im)


class SpectralBlock(Module):
    """Batch norm, spectral gating, instance norm, optional residual MLP.

    Input and output are (rows, patches, d_model).
    """

    def __init__(self, d_model: int, n_patches: int, cfg: SpectralBlockConfig,
                 activation: str = "gelu", dropout: float = 0.0):
        n_f = d_model if cfg.filter_axis == "embedding" else n_patches
        if cfg.filtered_axis_length is not None and cfg.filtered_axis_length != n_f:
            raise ValueError(
                f"config filters axis of length {cfg.filtered_axis_length}, "
                f"but the {cfg.filter_axis} axis here has length {n_f}"
            )
        self.cfg = cfg
        self.d_model = d_model
        self.norm_in = BatchNorm(d_model)
        self.filter = SpectralFilter(n_f)
        self.norm_mid = InstanceNorm(d_model)
        if cfg.use_mlp:
            self.mlp = FeedForward(d_model, cfg.mlp_hidden, activation, dropout)

    def filter_input(self, y: Tensor) -> Tensor:
        """Batch-normalized ``y`` with the filtered axis moved last."""
        if y.shape[-1] != self.d_model:
            raise ValueError(
                f"block built for embedding width {self.d_model}, got shape {y.shape}"
            )
        y = self.norm_in(y)
        return y if self.cfg.filter_axis == "embedding" else T.transpose(y, (0, 2, 1))

    def forward(self, y: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        y = self.filter.apply(self.filter_input(y))
        if self.cfg.filter_axis == "patch":
            y = T.transpose(y, (0, 2, 1))
        y = self.norm_mid(y)
        if self.cfg.use_mlp:
            y = T.add(y, self.mlp(y, rng))
        return y
