"""The forecaster: patching, embedding, block stack, head, RevIN shell.

Channels are processed independently with shared weights, so the model
consumes rows of shape (rows, lookback) where each row is one channel of one
sample. ``FilterFormer(cfg)`` is the model's layout alone: every parameter
declared by shape and init, nothing allocated. It is the one description of
the model, which ``count_parameters`` and the checkpoint loader read. Given a
generator, ``FilterFormer(cfg, rng)`` draws every random init from it in
layout order (embedding, then blocks front to back, then head); the alpha=0
model is therefore bit-identical to a hand-assembled attention backbone
initialised from the same generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..numeric import tensor as T
from ..numeric.tensor import Parameter, Tensor, no_grad
from ..spectral import SpectralBlock, SpectralBlockConfig, SpectralFilter
from ..nn import _ACTIVATIONS, BatchNorm, Dropout, FeedForward, Linear, Module, xavier_uniform
from .revin import RevIN

PLACEMENTS = ("post-embedding", "pre-embedding")
# most rows per forward pass in predict, about one paper-shape training
# batch; the rows are split into chunks of even size (T.even_chunks)
PREDICT_CHUNK = 128


@dataclass(frozen=True)
class ModelConfig:
    """Every shape hyperparameter of the forecaster.

    ``stride`` defaults to ``patch_len`` (non-overlapping patches), ``d_k``
    to ``d_model // n_heads``, and ``FeedForward`` widens a None
    ``ffn_hidden`` to ``2 * d_model``. ``alpha`` of the ``total_layers``
    blocks are spectral, the rest attention; spectral blocks always come
    first. With ``filter_placement="pre-embedding"`` the ``alpha`` filters
    act on the input instead, and they still count against
    ``total_layers``: the embedded stack holds ``total_layers - alpha``
    attention blocks.
    """

    lookback: int
    horizon: int
    patch_len: int
    stride: int | None = None
    d_model: int = 128
    n_heads: int = 8
    d_k: int | None = None
    total_layers: int = 4
    alpha: int = 1
    spectral: SpectralBlockConfig = field(default_factory=SpectralBlockConfig)
    filter_placement: str = "post-embedding"
    dropout: float = 0.1
    activation: str = "gelu"
    ffn_hidden: int | None = None
    revin_affine: bool = False

    def __post_init__(self):
        if self.stride is None:
            object.__setattr__(self, "stride", self.patch_len)
        if self.d_k is None:
            if self.d_model % self.n_heads != 0:
                raise ConfigError(
                    f"d_model={self.d_model} not divisible by n_heads={self.n_heads}; "
                    "set d_k explicitly"
                )
            object.__setattr__(self, "d_k", self.d_model // self.n_heads)
        for name in ("lookback", "horizon", "patch_len", "stride", "d_model",
                     "n_heads", "d_k", "total_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.alpha <= self.total_layers:
            raise ConfigError(
                f"alpha must lie in [0, total_layers={self.total_layers}], got {self.alpha}"
            )
        if self.patch_len > self.lookback:
            raise ConfigError(
                f"patch_len={self.patch_len} exceeds lookback={self.lookback}"
            )
        uncovered = (self.lookback - self.patch_len) % self.stride
        if uncovered:
            raise ConfigError(
                f"lookback={self.lookback}, patch_len={self.patch_len} and stride={self.stride} "
                f"leave the newest {uncovered} lookback steps outside every patch; "
                "lookback - patch_len must be a multiple of stride"
            )
        if self.filter_placement not in PLACEMENTS:
            raise ConfigError(
                f"filter_placement must be one of {PLACEMENTS}, got {self.filter_placement!r}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {sorted(_ACTIVATIONS)}, got {self.activation!r}"
            )
        if self.ffn_hidden is not None and self.ffn_hidden < 1:
            raise ConfigError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if not isinstance(self.spectral, SpectralBlockConfig):
            raise ConfigError("spectral must be a SpectralBlockConfig")

    @property
    def n_patches(self) -> int:
        return (self.lookback - self.patch_len) // self.stride + 1


def _position_init(rng: np.random.Generator, view: np.ndarray) -> None:
    """N(0, 0.02) drawn in place, with the same bits as ``rng.normal(0.0, 0.02)``."""
    rng.standard_normal(out=view)
    view *= 0.02


class PatchEmbedding(Module):
    """Y = patches @ E + Pos with learnable E (patch_len, d_model) and Pos (n, d_model)."""

    def __init__(self, cfg: ModelConfig):
        self.proj = Parameter((cfg.patch_len, cfg.d_model), xavier_uniform)
        self.pos = Parameter((cfg.n_patches, cfg.d_model), _position_init)

    def forward(self, patches: Tensor) -> Tensor:
        return T.add(T.matmul(patches, self.proj), self.pos)


class AttentionBlock(Module):
    """Post-norm multi-head self-attention over patches.

    Per head, queries and keys are d_k wide while values keep the full
    d_model width; the concatenated (n_heads * d_model) output is projected
    back to d_model. Q/K/V maps carry no bias; ``T.attention`` scales the
    scores by ``1 / sqrt(d_k)``. Dropout hits the attention weights and the
    MLP interior only.

    The scores, the softmax, the attention dropout and the value path are
    one ``T.attention`` node, whose mask ``attn_drop.mask`` draws. The value
    path runs reassociated:
    ``sum_h A_h (y Wv_h) Wo_h = [A_1 y | ... | A_H y] [Wv_h Wo_h]_h``. The
    same function with the same parameters (``wv``, ``out_proj``), at
    h * d^3 + R * n * h * d^2 multiply-adds instead of 2 * R * n * h * d^2
    for R rows of n patches (the attention products aside): fewer whenever
    R * n > d, which every training batch and predict chunk meets.
    """

    def __init__(self, d_model: int, n_heads: int, d_k: int, ffn_hidden: int | None,
                 activation: str = "gelu", dropout: float = 0.0):
        self.n_heads = n_heads
        self.wq = Parameter((d_model, n_heads * d_k), xavier_uniform)
        self.wk = Parameter((d_model, n_heads * d_k), xavier_uniform)
        self.wv = Parameter((d_model, n_heads * d_model), xavier_uniform)
        self.out_proj = Linear(n_heads * d_model, d_model)
        self.attn_drop = Dropout(dropout)
        self.norm1 = BatchNorm(d_model)
        self.mlp = FeedForward(d_model, ffn_hidden, activation, dropout)
        self.norm2 = BatchNorm(d_model)

    def _attend(self, y: Tensor, rng: np.random.Generator | None) -> Tensor:
        rows, n = y.shape[:2]
        keep = self.attn_drop.mask((rows, self.n_heads, n, n), rng)
        return T.attention(y, self.wq, self.wk, self.wv, self.out_proj.weight, self.out_proj.bias,
                           self.n_heads, keep, self.attn_drop.scale)

    def forward(self, y: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        # T.attention checks y's shape; its intermediates are _attend's
        # locals, so they are freed before the MLP runs
        y1 = self.norm1(T.add(y, self._attend(y, rng)))
        return self.norm2(T.add(y1, self.mlp(y1, rng)))


class ForecastHead(Module):
    """Flatten the patch axis and map (n_patches * d_model) to the horizon."""

    def __init__(self, n_patches: int, d_model: int, horizon: int):
        self.lin = Linear(n_patches * d_model, horizon)

    def forward(self, y: Tensor) -> Tensor:
        return self.lin(T.reshape(y, (y.shape[0], -1)))


class FilterFormer(Module):
    """RevIN, patch embedding, alpha spectral + (total - alpha) attention blocks, head.

    With ``filter_placement="pre-embedding"`` the alpha learnable filters act
    directly on the normalized lookback series (length-L gating, no block
    normalization or MLP) and the embedded stack is attention-only.

    Without ``rng`` the model is its layout only: parameters read their
    placeholders, NaN for every drawn one, until ``init_state`` or a
    checkpoint load fills them.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        self.config = cfg
        self.revin = RevIN(cfg.revin_affine)
        pre_embedding = cfg.filter_placement == "pre-embedding"
        # an empty list holds no state, so post-embedding state is unchanged
        self.input_filters = [SpectralFilter(cfg.lookback)
                              for _ in range(cfg.alpha if pre_embedding else 0)]
        self.embedding = PatchEmbedding(cfg)
        self.blocks = [SpectralBlock(cfg.d_model, cfg.n_patches, cfg.spectral, cfg.activation,
                                     cfg.dropout) for _ in range(0 if pre_embedding else cfg.alpha)]
        self.blocks += [AttentionBlock(cfg.d_model, cfg.n_heads, cfg.d_k, cfg.ffn_hidden,
                                       cfg.activation, cfg.dropout)
                        for _ in range(cfg.total_layers - cfg.alpha)]
        self.head = ForecastHead(cfg.n_patches, cfg.d_model, cfg.horizon)
        if rng is not None:
            self.init_state(rng)

    def spectral_filters(self) -> list[SpectralFilter]:
        """The learnable filters in stack order (empty for alpha=0)."""
        return self.input_filters + [
            b.filter for b in self.blocks if isinstance(b, SpectralBlock)
        ]

    def _normalize(self, x_rows: np.ndarray) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
        x_rows = np.asarray(x_rows, dtype=np.float64)
        if x_rows.ndim != 2 or x_rows.shape[-1] != self.config.lookback:
            raise ValueError(
                f"expected (rows, {self.config.lookback}) input, got shape {x_rows.shape}"
            )
        return self.revin.normalize(x_rows)

    def forward(self, x_rows: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        """Forecast (rows, horizon) from (rows, lookback); each row is one channel."""
        xn, stats = self._normalize(x_rows)
        for f in self.input_filters:
            xn = f.apply(xn)
        y = self.embedding(T.unfold(xn, self.config.patch_len, self.config.stride))
        for block in self.blocks:
            y = block(y, rng)
        return self.revin.denormalize(self.head(y), stats)

    def filter_probe(self, x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Input and output of the first spectral filter, filtered axis last.

        Runs in eval mode without recording gradients, and only as far as
        that filter. Raises ValueError when the model has no spectral filters.
        """
        filters = self.spectral_filters()
        if not filters:
            raise ValueError("model has no spectral filters")
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                fin, _ = self._normalize(x_rows)
                if not self.input_filters:
                    patches = T.unfold(fin, self.config.patch_len, self.config.stride)
                    fin = self.blocks[0].filter_input(self.embedding(patches))
                return fin.data, filters[0].apply(fin).data
        finally:
            self.train(was_training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference on (..., channels, lookback); returns (..., channels, horizon)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.config.lookback,):
            raise ValueError(f"expected (..., {self.config.lookback}) input, got shape {x.shape}")
        rows = x.reshape(-1, x.shape[-1])
        n = rows.shape[0]
        out = np.empty((n, self.config.horizon))
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for lo, hi in T.even_chunks(n, PREDICT_CHUNK):
                    out[lo:hi] = self.forward(rows[lo:hi]).data
        finally:
            self.train(was_training)
        return out.reshape(x.shape[:-1] + (self.config.horizon,))


def count_parameters(model_or_config) -> tuple[int, dict[str, int]]:
    """Total trainable scalars plus a per-component breakdown.

    A config is counted on its layout, ``FilterFormer(cfg)``, which
    allocates no parameter.
    """
    model = model_or_config
    if isinstance(model, ModelConfig):
        model = FilterFormer(model)
    breakdown: dict[str, int] = {}
    for name, p in model.named_parameters():
        component = name.split(".")[0]
        breakdown[component] = breakdown.get(component, 0) + p.size
    return sum(breakdown.values()), breakdown
