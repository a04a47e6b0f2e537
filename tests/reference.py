"""Reference routines that only the tests use.

The tape ops ``sum``, ``var`` and ``sqrt`` serve as loss reducers and as the
unfused mean/var/sub/div chain that ``tensor.normalize`` is checked against.
``idft``, ``apply_filter``, ``spectral_block_forward`` and ``embed_patches``
are array-in conveniences over the package's own entry points.
"""

from __future__ import annotations

import numpy as np

from spectral_forecaster.model.network import PatchEmbedding
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.numeric.fft import Spectrum, irfft_kernel
from spectral_forecaster.numeric.tensor import Tensor, _from_op, _wrap
from spectral_forecaster.spectral import SpectralBlock, SpectralFilter


def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _from_op(out, "sum", (a,), bwd)


def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divides by the count, not count - 1)."""
    a = _wrap(a)
    centered = T.sub(a, T.mean(a, axis=axis, keepdims=True))
    return T.mean(T.mul(centered, centered), axis=axis, keepdims=keepdims)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return _from_op(out, "sqrt", (a,), bwd)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform back to a real sequence of ``origin_length`` samples."""
    out, _residual = irfft_kernel(spectrum.re, spectrum.im, spectrum.origin_length)
    return out


def apply_filter(f: SpectralFilter, y):
    """Spectral gating of ``y`` by filter ``f`` (circular convolution in time)."""
    return f.apply(y)


def spectral_block_forward(block: SpectralBlock, y: Tensor,
                           rng: np.random.Generator | None = None) -> Tensor:
    """Run one spectral block; ``y`` is (patches, d_model) or batched (..., patches, d_model)."""
    if y.ndim == 2:
        return T.reshape(block(T.reshape(y, (1,) + y.shape), rng), y.shape)
    return block(y, rng)


def embed_patches(embedding: PatchEmbedding, patches) -> Tensor:
    """Embed (..., n_patches, patch_len) patches into (..., n_patches, d_model)."""
    if not isinstance(patches, Tensor):
        patches = Tensor(np.asarray(patches, dtype=np.float64))
    return embedding(patches)
