"""Transform kernels against the naive-summation oracle and analytic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_dft
import reference as ref
from spectral_forecaster.errors import NumericError
from spectral_forecaster.numeric import (
    Spectrum,
    dft,
    irfft_kernel,
    n_bins,
    rfft_kernel,
)


def half_to_full(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """Expand half-complex storage to the full conjugate-symmetric spectrum."""
    half = re + 1j * im
    k = n_bins(n)
    return np.concatenate([half, np.conj(half[1 : n - k + 1][::-1])])


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            x = rng.standard_normal(n)
            s = dft(x)
            expected = naive_dft(x)[: n_bins(n)]
            err = np.abs((s.re + 1j * s.im) - expected).max()
            assert err < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 128])
    def test_power_of_two_path(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        s = dft(x)
        expected = naive_dft(x)[: n_bins(n)]
        np.testing.assert_allclose(s.re + 1j * s.im, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12, 17, 31, 45, 96, 100])
    def test_bluestein_path(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        s = dft(x)
        expected = naive_dft(x)[: n_bins(n)]
        np.testing.assert_allclose(s.re + 1j * s.im, expected, atol=1e-9)

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
        back = ref.idft(dft(x))
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
        lhs = dft(a * x + b * y)
        rx, ry = dft(x), dft(y)
        np.testing.assert_allclose(lhs.re, a * rx.re + b * ry.re, atol=1e-9)
        np.testing.assert_allclose(lhs.im, a * rx.im + b * ry.im, atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_parseval(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        s = dft(x)
        full = half_to_full(s.re, s.im, n)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(full) ** 2)) / n
        assert abs(time_energy - freq_energy) <= 1e-8 * max(1.0, abs(time_energy))

    @pytest.mark.parametrize("n", range(1, 20))
    def test_endpoint_bins_exactly_real(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        s = dft(x)
        assert s.im[0] == 0.0
        if n % 2 == 0:
            assert s.im[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32])
    def test_inverse_realness_residual(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        re, im = rfft_kernel(x)
        out, residual = irfft_kernel(re, im, n)
        assert residual < 1e-9
        np.testing.assert_allclose(out, x, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 96, 336])
    def test_residual_with_nonzero_endpoint_imaginary_parts(self, n):
        rng = np.random.default_rng(300 + n)
        k = n_bins(n)
        re = rng.standard_normal((3, 2, k))
        im = rng.standard_normal((3, 2, k))  # endpoints included: not a real spectrum
        out, residual = irfft_kernel(re, im, n)
        rows = zip(re.reshape(-1, k), im.reshape(-1, k))
        full = np.stack([half_to_full(r, i, n) for r, i in rows])
        z = np.fft.ifft(full, axis=-1)
        assert residual > 0.0
        assert abs(residual - np.max(np.abs(z.imag))) < 1e-12
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
        amps = dft(x).amplitudes()
        assert amps[5] == pytest.approx(n / 2, rel=1e-12)
        others = np.delete(amps, 5)
        assert others.max() < 1e-9


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([]))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            dft(np.zeros((3, 3)))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            dft(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(NumericError):
            dft(np.array([1.0, np.inf]))

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(re=np.zeros(4), im=np.zeros(4), origin_length=4)

    def test_corrupted_endpoint_rejected(self):
        s = dft(np.random.default_rng(1).standard_normal(8))
        with pytest.raises(ValueError):
            Spectrum(re=s.re, im=s.im + np.eye(1, len(s), 0)[0], origin_length=8)

    def test_even_length_nyquist_endpoint_rejected(self):
        s = dft(np.random.default_rng(2).standard_normal(8))
        bad_im = s.im.copy()
        bad_im[-1] = 0.5
        with pytest.raises(ValueError):
            Spectrum(re=s.re, im=bad_im, origin_length=8)

    def test_non_finite_bins_rejected(self):
        with pytest.raises(NumericError):
            Spectrum(re=np.array([np.nan, 0.0]), im=np.zeros(2), origin_length=2)

    def test_bin_count_formula(self):
        for n in range(1, 12):
            assert len(dft(np.ones(n))) == n // 2 + 1
