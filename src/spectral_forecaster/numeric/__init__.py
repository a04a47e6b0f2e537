"""Numeric core: half-complex Fourier transforms and reverse-mode autodiff."""

from .fft import Spectrum, dft, irfft_kernel, n_bins, rfft_kernel
from .tensor import (
    Parameter,
    TapeNode,
    Tensor,
    backward,
    no_grad,
)

__all__ = [
    "Spectrum",
    "dft",
    "rfft_kernel",
    "irfft_kernel",
    "n_bins",
    "Tensor",
    "Parameter",
    "TapeNode",
    "backward",
    "no_grad",
]
