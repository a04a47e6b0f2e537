"""The gate's transform kernels against the naive-summation oracle and analytic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_dft, naive_idft
from spectral_forecaster.errors import NumericError
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.numeric.tensor import irfft_kernel, rfft_kernel


def n_bins(n: int) -> int:
    """Stored bins of a length-``n`` real sequence."""
    return n // 2 + 1


def half_to_full(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """Expand the stored bins to the full conjugate-symmetric spectrum."""
    half = re + 1j * im
    k = n_bins(n)
    return np.concatenate([half, np.conj(half[1 : n - k + 1][::-1])])


def stored_bins(x: np.ndarray) -> np.ndarray:
    """The kernel's stored bins of a real sequence as one complex array."""
    re, im = rfft_kernel(x)
    return re + 1j * im


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            x = rng.standard_normal(n)
            expected = naive_dft(x)[: n_bins(n)]
            err = np.abs(stored_bins(x) - expected).max()
            assert err < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 128])
    def test_power_of_two_path(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        expected = naive_dft(x)[: n_bins(n)]
        np.testing.assert_allclose(stored_bins(x), expected, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12, 17, 31, 45, 96, 100])
    def test_bluestein_path(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        expected = naive_dft(x)[: n_bins(n)]
        np.testing.assert_allclose(stored_bins(x), expected, atol=1e-9)

    def test_second_opinion_against_numpy(self):
        rng = np.random.default_rng(0)
        for n in range(1, 65):
            x = rng.standard_normal(n)
            re, im = rfft_kernel(x)
            np.testing.assert_allclose(re + 1j * im, np.fft.rfft(x), atol=1e-10)


class TestRoundTripAndIdentities:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        back = irfft_kernel(*rfft_kernel(x), n)
        assert np.abs(back - x).max() < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_linearity(self, n, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        lhs = rfft_kernel(a * x + b * y)
        rx, ry = rfft_kernel(x), rfft_kernel(y)
        np.testing.assert_allclose(lhs[0], a * rx[0] + b * ry[0], atol=1e-9)
        np.testing.assert_allclose(lhs[1], a * rx[1] + b * ry[1], atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_parseval(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        full = half_to_full(*rfft_kernel(x), n)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(full) ** 2)) / n
        assert abs(time_energy - freq_energy) <= 1e-8 * max(1.0, abs(time_energy))

    @pytest.mark.parametrize("n", range(1, 20))
    def test_endpoint_bins_exactly_real(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        _, im = rfft_kernel(x)
        assert im[0] == 0.0
        if n % 2 == 0:
            assert im[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32])
    def test_inverse_realness_residual(self, n):
        # the stored bins, mirrored, invert to a real sequence: the inverse drops nothing
        x = np.random.default_rng(n).standard_normal(n)
        re, im = rfft_kernel(x)
        out = irfft_kernel(re, im, n)
        assert out.dtype == np.float64
        assert np.abs(naive_idft(half_to_full(re, im, n)).imag).max() < 1e-9
        np.testing.assert_allclose(out, x, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 96, 336])
    def test_residual_with_nonzero_endpoint_imaginary_parts(self, n):
        rng = np.random.default_rng(300 + n)
        k = n_bins(n)
        re = rng.standard_normal((3, 2, k))
        im = rng.standard_normal((3, 2, k))  # endpoints included: not a real spectrum
        out = irfft_kernel(re, im, n)
        rows = zip(re.reshape(-1, k), im.reshape(-1, k))
        full = np.stack([half_to_full(r, i, n) for r, i in rows])
        z = np.fft.ifft(full, axis=-1)
        # the full inverse has an imaginary residual; the kernel returns its real part
        assert np.abs(z.imag).max() > 0.0
        np.testing.assert_allclose(out, z.real.reshape(out.shape), atol=1e-12)

    def test_batched_leading_axes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 16))
        re, im = rfft_kernel(x)
        for i in range(3):
            for j in range(4):
                r1, i1 = rfft_kernel(x[i, j])
                np.testing.assert_array_equal(re[i, j], r1)
                np.testing.assert_array_equal(im[i, j], i1)

    def test_pure_sinusoid_lands_in_single_bin(self):
        n = 32
        t = np.arange(n)
        x = np.sin(2 * np.pi * 5 * t / n)
        amps = np.hypot(*rfft_kernel(x))
        assert amps[5] == pytest.approx(n / 2, rel=1e-12)
        others = np.delete(amps, 5)
        assert others.max() < 1e-9


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rfft_kernel(np.array([]))

    def test_non_finite_input_rejected(self):
        # the gate wraps its operands as Tensors, which refuse non-finite samples
        with pytest.raises(NumericError):
            T.spectral_gate(np.array([1.0, np.nan, 2.0]), np.ones(3))
        with pytest.raises(NumericError):
            T.spectral_gate(np.array([1.0, np.inf]), np.ones(2))

    def test_bin_count_formula(self):
        for n in range(1, 12):
            re, im = rfft_kernel(np.ones(n))
            assert re.shape == im.shape == (n // 2 + 1,)
