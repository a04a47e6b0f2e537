"""Filter semantics against the circular-convolution oracle, block behavior, gradients."""

import numpy as np
import pytest

from conftest import gradcheck, naive_circular_convolution
import reference as ref
from spectral_forecaster.errors import ConfigError
from spectral_forecaster.experiments import export_spectra
from spectral_forecaster.model import FilterFormer, ModelConfig
from spectral_forecaster.numeric.tensor import Tensor, backward, rfft_kernel
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.spectral import (
    SpectralBlock,
    SpectralBlockConfig,
    SpectralFilter,
    amplitude_spectrum,
)


def make_filter(w: np.ndarray) -> SpectralFilter:
    f = SpectralFilter(len(w)).init_state(np.random.default_rng(0))
    f.w.data[...] = w
    return f


class TestApplyFilter:
    @pytest.mark.parametrize("n", range(2, 33))
    def test_equals_circular_convolution(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            w = rng.standard_normal(n)
            y = rng.standard_normal(n)
            out = ref.apply_filter(make_filter(w), y)
            expected = naive_circular_convolution(w, y)
            assert np.abs(out - expected).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 336])
    def test_gate_op_equals_circular_convolution_per_row(self, n):
        rng = np.random.default_rng(250 + n)
        w = rng.standard_normal(n)
        y = rng.standard_normal((3, n))
        out = T.spectral_gate(Tensor(y), Tensor(w)).data
        for row, expected_in in zip(out, y):
            expected = naive_circular_convolution(w, expected_in)
            assert np.abs(row - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())

    def test_impulse_is_identity(self):
        y = np.random.default_rng(1).standard_normal(8)
        w = np.zeros(8)
        w[0] = 1.0
        np.testing.assert_allclose(ref.apply_filter(make_filter(w), y), y, atol=1e-12)

    def test_zero_filter_annihilates(self):
        y = np.random.default_rng(2).standard_normal(8)
        out = ref.apply_filter(make_filter(np.zeros(8)), y)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 7, 12, 16])
    def test_shift_equivariance(self, n):
        rng = np.random.default_rng(300 + n)
        w = rng.standard_normal(n)
        y = rng.standard_normal(n)
        f = make_filter(w)
        for s in range(n):
            lhs = ref.apply_filter(f, np.roll(y, s))
            rhs = np.roll(ref.apply_filter(f, y), s)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_realness_residual_below_tolerance(self):
        # the full inverse of the gate's product spectrum is imaginary only
        # through the endpoint bins: (|im[0]| + |im[n/2]|) / n at even n
        rng = np.random.default_rng(3)
        for n in range(2, 33):
            w = rng.standard_normal(n)
            y = rng.standard_normal(n)
            wr, wi = rfft_kernel(w)
            yr, yi = rfft_kernel(y)
            im = yr * wi + yi * wr
            residual = (abs(im[0]) + (abs(im[-1]) if n % 2 == 0 else 0.0)) / n
            assert residual < 1e-9

    def test_length_mismatch_rejected(self):
        f = SpectralFilter(8).init_state(np.random.default_rng(0))
        with pytest.raises(ValueError):
            ref.apply_filter(f, np.zeros(9))

    def test_batched_rows_filter_last_axis(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(6)
        y = rng.standard_normal((3, 5, 6))
        f = make_filter(w)
        out = ref.apply_filter(f, y)
        assert out.shape == y.shape
        for i in range(3):
            for j in range(5):
                np.testing.assert_allclose(
                    out[i, j], naive_circular_convolution(w, y[i, j]), atol=1e-9
                )

    def test_single_bin_scaling(self):
        # a sinusoid at an exact bin is scaled by |P_k| there, other bins stay empty
        n = 16
        k = 3
        t = np.arange(n)
        y = np.sin(2 * np.pi * k * t / n)
        f = SpectralFilter(n).init_state(np.random.default_rng(5))
        out = ref.apply_filter(f, y)
        yr, yi = rfft_kernel(y)
        outr, outi = rfft_kernel(out)
        in_amp = np.hypot(yr, yi)
        out_amp = np.hypot(outr, outi)
        transfer = amplitude_spectrum(f)
        assert out_amp[k] == pytest.approx(transfer[k] * in_amp[k], rel=1e-9)
        mask = np.ones(len(out_amp), dtype=bool)
        mask[k] = False
        assert out_amp[mask].max() < 1e-9

    def test_gradients_flow_into_filter_and_signal(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((2, 10))
        w = rng.standard_normal(10) * 0.3

        def fn(yt, wt):
            f = SpectralFilter(10).init_state(np.random.default_rng(0))
            f.w = wt
            out = f.apply(yt)
            return T.mean(T.mul(out, out))

        gradcheck(fn, y, w)


class TestTransferAndAmplitudes:
    def test_impulse_has_flat_unit_spectrum(self):
        w = np.zeros(8)
        w[0] = 1.0
        np.testing.assert_allclose(amplitude_spectrum(make_filter(w)), np.ones(5), atol=1e-12)

    def test_zero_filter_has_zero_spectrum(self):
        np.testing.assert_allclose(amplitude_spectrum(make_filter(np.zeros(8))), np.zeros(5))

    def test_hand_computed_example(self):
        amps = amplitude_spectrum(make_filter(np.array([1.0, 1.0, 0.0, 0.0])))
        np.testing.assert_allclose(amps, [2.0, np.sqrt(2.0), 0.0], atol=1e-12)

    def test_transfer_recomputed_never_stale(self):
        f = make_filter(np.array([1.0, 0.0, 0.0, 0.0]))
        before = amplitude_spectrum(f)
        f.w.data[0] = 2.0
        after = amplitude_spectrum(f)
        np.testing.assert_allclose(before, np.ones(3))
        np.testing.assert_allclose(after, 2.0 * np.ones(3))

    def test_near_impulse_init_spectrum_near_one(self):
        f = SpectralFilter(64).init_state(np.random.default_rng(7))
        amps = amplitude_spectrum(f)
        assert np.all(np.abs(amps - 1.0) < 0.5)


class TestSpectralBlock:
    def make_block(self, d=6, n_patches=4, use_mlp=True, axis="embedding", seed=0):
        cfg = SpectralBlockConfig(use_mlp=use_mlp, filter_axis=axis)
        return SpectralBlock(d, n_patches, cfg, dropout=0.0).init_state(np.random.default_rng(seed))

    @pytest.mark.parametrize("use_mlp", [False, True])
    @pytest.mark.parametrize("axis", ["embedding", "patch"])
    def test_shape_preserved(self, use_mlp, axis):
        block = self.make_block(use_mlp=use_mlp, axis=axis)
        y = Tensor(np.random.default_rng(1).standard_normal((3, 4, 6)))
        assert block(y).shape == (3, 4, 6)

    def test_two_dimensional_input_supported(self):
        block = self.make_block()
        y = Tensor(np.random.default_rng(2).standard_normal((4, 6)))
        out = ref.spectral_block_forward(block, y)
        assert out.shape == (4, 6)

    def test_exact_impulse_filter_reduces_to_normalization(self):
        block = self.make_block(use_mlp=False)
        w = np.zeros(6)
        w[0] = 1.0
        block.filter.w.data[...] = w
        y = np.random.default_rng(3).standard_normal((5, 4, 6))
        out = block(Tensor(y)).data

        flat = y.reshape(-1, 6)
        bn = (y - flat.mean(axis=0)) / np.sqrt(flat.var(axis=0) + 1e-5)
        inorm = (bn - bn.mean(-1, keepdims=True)) / np.sqrt(bn.var(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out, inorm, atol=1e-9)

    def test_fresh_block_is_near_identity_on_normalized_input(self):
        block = self.make_block(use_mlp=False, seed=11)
        y = np.random.default_rng(4).standard_normal((8, 4, 6))
        out = block(Tensor(y)).data
        flat = y.reshape(-1, 6)
        bn = (y - flat.mean(axis=0)) / np.sqrt(flat.var(axis=0) + 1e-5)
        inorm = (bn - bn.mean(-1, keepdims=True)) / np.sqrt(bn.var(-1, keepdims=True) + 1e-5)
        assert np.abs(out - inorm).max() < 0.5

    def test_parameter_count_is_linear_in_width_without_mlp(self):
        for d in (4, 8, 16):
            block = self.make_block(d=d, use_mlp=False)
            total = sum(p.size for p in block.parameters())
            assert total == 5 * d  # filter d + two affine pairs of 2d each

    def test_embedding_width_mismatch_rejected(self):
        block = self.make_block(d=6)
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((2, 4, 7))))

    def test_explicit_axis_length_mismatch_rejected(self):
        cfg = SpectralBlockConfig(filtered_axis_length=5)
        with pytest.raises(ValueError):
            SpectralBlock(6, 4, cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SpectralBlockConfig(filter_axis="time")
        with pytest.raises(ConfigError):
            SpectralBlockConfig(use_mlp=True, mlp_hidden=0)

    @pytest.mark.parametrize("use_mlp", [False, True])
    def test_block_gradients_match_finite_differences(self, use_mlp):
        block = self.make_block(d=6, n_patches=3, use_mlp=use_mlp, seed=5)
        x = np.random.default_rng(6).standard_normal((2, 3, 6))
        proj = np.random.default_rng(7).standard_normal((2, 3, 6))

        def loss_value():
            out = block(Tensor(x))
            return ref.sum(T.mul(out, proj))

        loss = loss_value()
        backward(loss)
        analytic = {name: p.grad.copy() for name, p in block.named_parameters()}

        eps = 1e-6
        for name, p in block.named_parameters():
            flat = p.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                with T.no_grad():
                    fp = loss_value().item()
                flat[i] = orig - eps
                with T.no_grad():
                    fm = loss_value().item()
                flat[i] = orig
                num[i] = (fp - fm) / (2 * eps)
            np.testing.assert_allclose(
                analytic[name].reshape(-1), num, rtol=1e-4, atol=1e-6,
                err_msg=f"gradient mismatch for {name}",
            )


class TestCsvExport:
    def test_schema_and_values(self, tmp_path):
        cfg = ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=4, n_heads=2,
                          total_layers=2, alpha=1, dropout=0.0)
        model = FilterFormer(cfg, np.random.default_rng(0))
        f = model.spectral_filters()[0]
        f.w.data[...] = [1.0, 1.0, 0.0, 0.0]
        probe = np.random.default_rng(1).standard_normal((3, 16))
        path = export_spectra(model, probe, tmp_path, "t")[0]
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "bin_index,amplitude"
        assert len(lines) == 1 + 3
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == amplitude_spectrum(f).tolist()
        np.testing.assert_allclose(values, [2.0, np.sqrt(2.0), 0.0], atol=1e-15)
