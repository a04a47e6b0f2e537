"""Fourier transforms of real sequences in half-complex form.

The forward transform of a length-``n`` real sequence is stored as the first
``n // 2 + 1`` complex bins; the remaining bins are conjugate mirrors and are
never materialized. The kernels are numpy's pocketfft (``numpy.fft.rfft`` and
``numpy.fft.irfft``), vectorized over leading axes and O(n log n) at every
length. Everything is float64 in and float64 out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError

__all__ = ["Spectrum", "dft", "rfft_kernel", "irfft_kernel", "n_bins"]

# endpoint imaginary parts are analytically zero; anything above this is a
# corrupted spectrum rather than roundoff
_ENDPOINT_TOL = 1e-9


def n_bins(n: int) -> int:
    """Number of stored bins for a length-``n`` real sequence."""
    return n // 2 + 1


def rfft_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-complex transform along the last axis of a real array.

    Returns ``(re, im)`` arrays of ``n // 2 + 1`` bins. The imaginary parts
    of the first bin, and of the last bin for even lengths, are analytically
    zero and are stored as exact zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n == 0:
        raise ValueError("cannot transform an empty sequence")
    spec = np.fft.rfft(x, axis=-1)
    re = np.ascontiguousarray(spec.real)
    im = np.ascontiguousarray(spec.imag)
    im[..., 0] = 0.0
    if n % 2 == 0:
        im[..., -1] = 0.0
    return re, im


def irfft_kernel(re: np.ndarray, im: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Inverse of :func:`rfft_kernel` for origin length ``n``.

    Returns the real output together with the largest imaginary magnitude
    that inverting the full conjugate-symmetric spectrum would produce. The
    mirrored interior bins cancel exactly, so that imaginary part comes only
    from the endpoint bins: ``(|im[0]| + |im[-1]|) / n`` for even ``n``,
    ``|im[0]| / n`` for odd ``n``. The real output ignores those parts.
    """
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    k = n_bins(n)
    if re.shape != im.shape or re.shape[-1] != k:
        raise ValueError(
            f"expected {k} bins for origin length {n}, got re{re.shape} im{im.shape}"
        )
    out = np.fft.irfft(re + 1j * im, n=n, axis=-1)
    residual = 0.0
    if im.size:
        stray = np.abs(im[..., 0])
        if n % 2 == 0:
            stray = stray + np.abs(im[..., -1])
        residual = float(np.max(stray)) / n
    return out, residual


@dataclass(frozen=True)
class Spectrum:
    """Half-complex spectrum of a real sequence.

    ``re`` and ``im`` hold the first ``origin_length // 2 + 1`` bins; the
    mirrored bins are implied by conjugate symmetry. Endpoint imaginary
    parts must be zero, which is what makes the inverse real.
    """

    re: np.ndarray
    im: np.ndarray
    origin_length: int

    def __post_init__(self) -> None:
        re = np.asarray(self.re, dtype=np.float64)
        im = np.asarray(self.im, dtype=np.float64)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        if re.ndim != 1 or im.ndim != 1:
            raise ValueError("spectrum bins must be one-dimensional")
        if self.origin_length < 1:
            raise ValueError(f"origin_length must be positive, got {self.origin_length}")
        expected = n_bins(self.origin_length)
        if re.shape[0] != expected or im.shape[0] != expected:
            raise ValueError(
                f"origin length {self.origin_length} stores {expected} bins, "
                f"got re:{re.shape[0]} im:{im.shape[0]}"
            )
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise NumericError("spectrum contains non-finite bins")
        scale = max(1.0, float(np.max(np.abs(re))))
        if abs(im[0]) > _ENDPOINT_TOL * scale:
            raise ValueError(f"first bin must be real, imaginary part is {im[0]!r}")
        if self.origin_length % 2 == 0 and abs(im[-1]) > _ENDPOINT_TOL * scale:
            raise ValueError(f"last bin must be real for even lengths, imaginary part is {im[-1]!r}")

    def __len__(self) -> int:
        return self.re.shape[0]

    def amplitudes(self) -> np.ndarray:
        """Per-bin magnitudes ``|re + i*im|``."""
        return np.hypot(self.re, self.im)


def dft(x) -> Spectrum:
    """Forward transform of a one-dimensional real sequence."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"dft expects a one-dimensional sequence, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("dft of an empty sequence is undefined")
    if not np.isfinite(x).all():
        raise NumericError("dft input contains non-finite samples")
    re, im = rfft_kernel(x)
    return Spectrum(re=re, im=im, origin_length=x.shape[0])

