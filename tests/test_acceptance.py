"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single [PASS]/[FAIL] line
with the measured numbers (visible with ``pytest -s``; the same numbers ride
along in the assertion message on failure). The synthetic-experiment fixture
trains the pinned configuration through the public run machinery exactly as
the CLI would, so these checks cover the package end to end: transform
precision, gradient correctness, architectural identities, bookkeeping, and
the packaged experiments.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from conftest import naive_circular_convolution, naive_dft, naive_idft
import reference as ref
from spectral_forecaster.data import SplitSpec, SyntheticSpec, make_windows, stack_windows
from spectral_forecaster.experiments import (
    ExperimentConfig,
    load_series,
    run,
    tiny_experiment_config,
)
from spectral_forecaster.model import (
    AttentionBlock,
    FilterFormer,
    ForecastHead,
    ModelConfig,
    PatchEmbedding,
    RevIN,
    count_parameters,
    load_checkpoint,
)
from spectral_forecaster.nn import BatchNorm, FeedForward, InstanceNorm, Linear
from spectral_forecaster.numeric import Tensor, backward, no_grad
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.numeric.tensor import rfft_kernel
from spectral_forecaster.spectral import (
    SpectralBlock,
    SpectralBlockConfig,
    SpectralFilter,
)
from spectral_forecaster.training import TrainConfig


def report(ok: bool, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# transform precision


def test_transform_matches_direct_summation_oracle():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(2026)
    for n in range(1, 33):
        x = rng.standard_normal((100, n))
        re, im = rfft_kernel(x)
        k = np.arange(n)
        basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
        expected = (x.astype(np.complex128) @ basis.T)[:, : n // 2 + 1]
        worst = max(worst, np.abs((re + 1j * im) - expected).max())
        # a single unbatched row goes through the same kernel; spot it once per
        # length against the shared oracle
        re, im = rfft_kernel(x[0])
        worst = max(worst, np.abs((re + 1j * im) - naive_dft(x[0])[: n // 2 + 1]).max())
    elapsed = time.time() - start
    report(
        worst < 1e-9 and elapsed < 10.0,
        "transform vs direct summation",
        f"lengths 1..32 x 100 vectors, max |error| = {worst:.3e} "
        f"(tol 1e-9), {elapsed:.1f}s (budget 10s)",
    )


def test_filter_equals_circular_convolution_oracle():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(2027)
    for n in range(2, 33):
        f = SpectralFilter(n).init_state(rng)
        for _ in range(100):
            w = rng.standard_normal(n)
            y = rng.standard_normal(n)
            f.w.data[...] = w
            with no_grad():
                out = ref.apply_filter(f, Tensor(y))
            worst = max(worst, np.abs(out.data - naive_circular_convolution(w, y)).max())
    elapsed = time.time() - start
    report(
        worst < 1e-9 and elapsed < 10.0,
        "filter vs circular convolution",
        f"lengths 2..32 x 100 pairs, max |error| = {worst:.3e} "
        f"(tol 1e-9), {elapsed:.1f}s (budget 10s)",
    )


def test_filtered_real_input_stays_real():
    worst_gate = 0.0
    worst_oracle = 0.0
    rng = np.random.default_rng(2028)
    for n in range(2, 33):
        for _ in range(100):
            w = rng.standard_normal(n)
            y = rng.standard_normal(n)
            out = T.spectral_gate(y, w).data
            z = naive_idft(naive_dft(w) * naive_dft(y))
            worst_gate = max(worst_gate, np.abs(out - z.real).max())
            worst_oracle = max(worst_oracle, np.abs(z.imag).max())
    report(
        worst_gate < 1e-9 and worst_oracle < 1e-9,
        "realness of filtered output",
        f"gate vs real part of the full-spectrum oracle, max |error| = {worst_gate:.3e}; "
        f"oracle's max imaginary part {worst_oracle:.3e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# gradients


def _fd_check_params(named_params, loss_fn, label: str, eps: float = 1e-5) -> int:
    """Central finite differences against tape gradients for every parameter."""
    backward(loss_fn())
    checked = 0
    for name, p in named_params:
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                fp = loss_fn().item()
            flat[i] = orig - eps
            with no_grad():
                fm = loss_fn().item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2 * eps)
        assert p.grad is not None, f"{label}: no gradient for {name}"
        np.testing.assert_allclose(
            p.grad.reshape(-1), numeric, rtol=1e-3, atol=1e-6,
            err_msg=f"{label}: gradient mismatch for {name}",
        )
        checked += flat.size
    return checked


def _projection_loss(module, x: np.ndarray, seed: int):
    """Scalar loss sum(out * C) with a fixed random C, generic in every output."""
    probe = Tensor(x)

    def loss():
        out = module.forward(probe)
        c = np.random.default_rng(seed).standard_normal(out.shape)
        return ref.sum(T.mul(out, Tensor(c)))

    return loss


def test_every_trainable_component_passes_gradient_check():
    start = time.time()
    rng = np.random.default_rng(5)
    data = np.random.default_rng(6)
    total = 0

    lin = Linear(5, 3).init_state(rng)
    total += _fd_check_params(lin.named_parameters(), _projection_loss(lin, data.standard_normal((4, 5)), 1), "Linear")

    ffn = FeedForward(6, 9, dropout=0.0).init_state(rng)
    total += _fd_check_params(ffn.named_parameters(), _projection_loss(ffn, data.standard_normal((3, 6)), 2), "FeedForward")

    bn = BatchNorm(7).init_state(rng)
    total += _fd_check_params(bn.named_parameters(), _projection_loss(bn, data.standard_normal((4, 7)), 3), "BatchNorm")

    inorm = InstanceNorm(7).init_state(rng)
    total += _fd_check_params(inorm.named_parameters(), _projection_loss(inorm, data.standard_normal((4, 3, 7)), 4), "InstanceNorm")

    filt = SpectralFilter(9).init_state(rng)
    total += _fd_check_params(
        [("w", filt.w)],
        _projection_loss(type("A", (), {"forward": staticmethod(lambda y: ref.apply_filter(filt, y))}), data.standard_normal(9), 5),
        "SpectralFilter",
    )

    cfg = tiny_experiment_config().model
    emb = PatchEmbedding(cfg).init_state(rng)
    patches = ref.patchify(data.standard_normal((2, cfg.lookback)), cfg.patch_len, cfg.stride)
    total += _fd_check_params(emb.named_parameters(), _projection_loss(emb, patches, 6), "PatchEmbedding")

    head = ForecastHead(cfg.n_patches, cfg.d_model, cfg.horizon).init_state(rng)
    total += _fd_check_params(head.named_parameters(), _projection_loss(head, data.standard_normal((2, cfg.n_patches, cfg.d_model)), 7), "ForecastHead")

    att = AttentionBlock(cfg.d_model, cfg.n_heads, cfg.d_k, cfg.ffn_hidden, dropout=0.0).init_state(rng)
    total += _fd_check_params(
        att.named_parameters(),
        _projection_loss(
            type("A", (), {"forward": staticmethod(lambda y: ref.attention_block_forward(att, y))}),
            data.standard_normal((2, cfg.n_patches, cfg.d_model)), 8,
        ),
        "AttentionBlock",
    )

    for axis in ("embedding", "patch"):
        blk = SpectralBlock(cfg.d_model, cfg.n_patches, SpectralBlockConfig(filter_axis=axis), dropout=0.0).init_state(rng)
        total += _fd_check_params(
            blk.named_parameters(),
            _projection_loss(blk, data.standard_normal((2, cfg.n_patches, cfg.d_model)), 9),
            f"SpectralBlock[{axis}]",
        )

    elapsed = time.time() - start
    report(
        elapsed < 120.0,
        "component gradients",
        f"{total} parameters across 10 components match finite differences "
        f"(rtol 1e-3, atol 1e-6), {elapsed:.1f}s (budget 120s)",
    )


@pytest.mark.parametrize(
    "variant,overrides",
    [
        ("standard", {}),
        ("revin-affine", {"revin_affine": True}),
        ("pre-embedding", {"filter_placement": "pre-embedding"}),
    ],
)
def test_full_model_passes_gradient_check(variant, overrides):
    start = time.time()
    cfg = dataclasses.replace(tiny_experiment_config().model, **overrides)
    model = FilterFormer(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((3, cfg.lookback))
    target = np.random.default_rng(2).standard_normal((3, cfg.horizon))

    def loss():
        diff = T.sub(model(x), target)
        return T.mean(T.mul(diff, diff))

    total = _fd_check_params(model.named_parameters(), loss, f"FilterFormer[{variant}]")
    elapsed = time.time() - start
    report(
        elapsed < 120.0,
        f"full-model gradients [{variant}]",
        f"{total} parameters match finite differences (rtol 1e-3, atol 1e-6), "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# architectural identities


def test_instance_normalization_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        length = int(rng.integers(2, 200))
        x = rng.standard_normal((d, length)) * rng.uniform(0.1, 50) + rng.uniform(-20, 20)
        xn, stats = RevIN().normalize(x)
        worst = max(worst, np.abs(ref.revin_denormalize(xn.data, stats) - x).max())
    report(
        worst < 1e-10,
        "normalization round trip",
        f"20 random panels, max |restore - original| = {worst:.3e} (tol 1e-10)",
    )


def test_filterless_model_is_bit_identical_to_backbone():
    cfg = ModelConfig(lookback=16, horizon=8, patch_len=4, d_model=8, n_heads=2,
                      total_layers=2, alpha=0, dropout=0.0)
    seed = 42
    model = FilterFormer(cfg, np.random.default_rng(seed)).eval()

    rng = np.random.default_rng(seed)
    embedding = PatchEmbedding(cfg).init_state(rng)
    blocks = [
        AttentionBlock(cfg.d_model, cfg.n_heads, cfg.d_k, cfg.ffn_hidden,
                       cfg.activation, cfg.dropout).init_state(rng)
        for _ in range(cfg.total_layers)
    ]
    head = ForecastHead(cfg.n_patches, cfg.d_model, cfg.horizon).init_state(rng)
    for b in blocks:
        b.eval()

    x = np.random.default_rng(7).standard_normal((3, 16))
    with no_grad():
        out = model(x).data
        xn, stats = RevIN().normalize(x)
        y = embedding(Tensor(ref.patchify(xn.data, cfg.patch_len, cfg.stride)))
        for b in blocks:
            y = ref.attention_block_forward(b, y)
        manual = ref.revin_denormalize(head(y).data, stats)
    identical = np.array_equal(out, manual)
    report(
        identical,
        "filterless model vs hand-built backbone",
        "outputs bit-identical" if identical
        else f"max difference {np.abs(out - manual).max():.3e}",
    )


def test_patch_count_formula_on_random_shapes():
    rng = np.random.default_rng(12)
    for _ in range(50):
        lookback = int(rng.integers(1, 257))
        patch_len = int(rng.integers(1, lookback + 1))
        stride = int(rng.integers(1, lookback + 1))
        x = rng.standard_normal((3, lookback))
        patches = ref.patchify(x, patch_len, stride)
        expected_n = (lookback - patch_len) // stride + 1
        assert patches.shape == (3, expected_n, patch_len), (lookback, patch_len, stride)
        for i in range(expected_n):
            np.testing.assert_array_equal(patches[:, i], x[:, i * stride: i * stride + patch_len])
    report(True, "patch count formula", "50 random (lookback, patch, stride) shapes, "
                                        "count and contents both exact")


def _random_config(rng) -> ModelConfig:
    d_model = int(rng.integers(2, 6)) * 4
    patch_len = int(rng.integers(2, 9))
    stride = int(rng.integers(1, patch_len + 1))
    total = int(rng.integers(1, 5))
    return ModelConfig(
        lookback=patch_len + stride * int(rng.integers(0, 40 // stride)),  # every step patched
        horizon=int(rng.integers(1, 30)),
        patch_len=patch_len,
        stride=stride,
        d_model=d_model,
        n_heads=int(rng.choice([1, 2, 4])),
        total_layers=total,
        alpha=int(rng.integers(0, total + 1)),
        spectral=SpectralBlockConfig(
            use_mlp=bool(rng.integers(0, 2)),
            mlp_hidden=int(rng.integers(1, 3 * d_model)),
            filter_axis=str(rng.choice(["embedding", "patch"])),
        ),
        filter_placement=str(rng.choice(["post-embedding", "pre-embedding"])),
        dropout=float(rng.uniform(0, 0.5)),
        revin_affine=bool(rng.integers(0, 2)),
    )


def test_parameter_count_analytic_vs_enumerated():
    rng = np.random.default_rng(321)
    for i in range(10):
        cfg = _random_config(rng)
        analytic, _ = count_parameters(cfg)
        model = FilterFormer(cfg, np.random.default_rng(i))
        enumerated = sum(p.data.size for _, p in model.named_parameters())
        assert analytic == enumerated, f"config {i}: {analytic} != {enumerated}\n{cfg}"

    cfg = ModelConfig(lookback=32, horizon=8, patch_len=8, d_model=24, n_heads=4,
                      total_layers=3, alpha=2, dropout=0.0)
    model = FilterFormer(cfg, np.random.default_rng(0))
    sizes = [f.w.data.size for f in model.spectral_filters()]
    assert sizes == [cfg.d_model] * cfg.alpha, sizes
    report(True, "parameter accounting",
           f"analytic == enumerated on 10 random configs; each filter "
           f"contributes exactly d_model={cfg.d_model} parameters")


# ---------------------------------------------------------------------------
# packaged synthetic experiment (pinned configuration; see README for knobs)
#
# Claim under test: a filter at the beginning of the transformer lets it use
# the upper spectrum. The task carries noise because the noiseless mix is
# 48-periodic: a 96-step horizon then copies the 96-step window, which the
# linear embedding-to-head path solves whatever the blocks are. The filtered
# model is the backbone plus one length-L filter on the normalized input.

PINNED_BACKBONE = ModelConfig(lookback=96, horizon=96, patch_len=8, d_model=16,
                              n_heads=4, total_layers=3, alpha=0, dropout=0.0)
PINNED_FILTERED = dataclasses.replace(PINNED_BACKBONE, filter_placement="pre-embedding",
                                      alpha=1, total_layers=4)
PINNED_TRAIN = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=50,
                           patience=15, seed=0)
PINNED_TASK = SyntheticSpec(noise=0.3)


def noise_floor(spec: SyntheticSpec) -> float:
    """Test MSE of a perfect forecaster on the z-scale: noise over total variance."""
    signal = sum(amp * amp / 2.0 for amp, _, _ in spec.components)
    return spec.noise ** 2 / (signal + spec.noise ** 2)


def residual_power(model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean |DFT|^2 of the forecast residual over the horizon, per bin."""
    resid = (model.predict(x) - y).reshape(-1, y.shape[-1])
    return (np.abs(np.fft.rfft(resid, axis=-1)) ** 2).mean(axis=0)


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    """Train the pinned pair through the public run machinery, twice for the
    filtered model (determinism) and once for the filterless backbone."""
    base = tmp_path_factory.mktemp("accept")
    cfg = ExperimentConfig(
        model=PINNED_FILTERED,
        train=PINNED_TRAIN,
        split=SplitSpec(),
        synthetic=PINNED_TASK,
        out_dir=str(base / "a"),
        tag="accept",
    )
    start = time.time()
    first = run(cfg)
    second = run(dataclasses.replace(cfg, out_dir=str(base / "b")))
    backbone = run(dataclasses.replace(cfg, model=PINNED_BACKBONE, out_dir=str(base / "c")))
    elapsed = time.time() - start
    return {
        "config": cfg,
        "dir_a": str(base / "a"),
        "dir_b": str(base / "b"),
        "dir_c": str(base / "c"),
        "filtered": first.metrics[0][1],
        "rerun": second.metrics[0][1],
        "backbone": backbone.metrics[0][1],
        "artifacts": first.artifacts,
        "elapsed": elapsed,
    }


def test_synthetic_filtered_model_beats_filterless_backbone(synthetic_runs):
    filtered = synthetic_runs["filtered"].mse
    backbone = synthetic_runs["backbone"].mse
    floor = noise_floor(PINNED_TASK)
    elapsed = synthetic_runs["elapsed"]
    report(
        filtered < backbone and filtered < 2.0 * floor and elapsed < 600.0,
        "synthetic separation",
        f"filtered MSE {filtered:.5f}, filterless MSE {backbone:.5f} (filtered must be lower), "
        f"noise floor {floor:.4f} (filtered must be < {2.0 * floor:.4f}), "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_trained_filter_amplifies_upper_spectrum(synthetic_runs):
    cfg = synthetic_runs["config"]
    horizon = PINNED_FILTERED.horizon
    windows = make_windows(load_series(cfg), cfg.split, PINNED_FILTERED.lookback, horizon)
    x, y = stack_windows(windows.test)
    filtered, backbone = (
        residual_power(load_checkpoint(os.path.join(synthetic_runs[d], f"accept_h{horizon}.ckpt")), x, y)
        for d in ("dir_a", "dir_c")
    )
    top = round(PINNED_TASK.components[-1][1] * horizon)
    report(
        filtered[top] < backbone[top],
        "upper-spectrum use",
        f"residual power at horizon bin {top} (top component): filtered {filtered[top]:.2f}, "
        f"filterless {backbone[top]:.2f} (filtered must be lower); "
        f"filterless median over bins {np.median(backbone):.2f}",
    )


def test_rerun_writes_byte_identical_artifacts(synthetic_runs):
    names = sorted(os.path.basename(p) for p in synthetic_runs["artifacts"])
    assert names, "run produced no artifacts"
    diffs = []
    for name in names:
        with open(os.path.join(synthetic_runs["dir_a"], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(synthetic_runs["dir_b"], name), "rb") as fh:
            b = fh.read()
        if a != b:
            diffs.append(name)
    report(
        not diffs,
        "rerun determinism",
        f"{len(names)} artifacts byte-identical across reruns"
        if not diffs else f"artifacts differ: {diffs}",
    )


# ---------------------------------------------------------------------------
# benchmark forecast quality (informational; needs the hourly transformer
# temperature benchmark CSV, which is not bundled)

ETT_ENV = "SPECTRAL_FORECASTER_ETTH1_CSV"


@pytest.mark.slow
@pytest.mark.skipif(ETT_ENV not in os.environ, reason=f"set {ETT_ENV} to a local ETTh1.csv to enable")
def test_benchmark_forecast_quality_informational(tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=128,
                          n_heads=8, total_layers=4, alpha=1, dropout=0.1),
        train=TrainConfig(),
        split=SplitSpec.ett(),
        dataset=os.environ[ETT_ENV],
        out_dir=str(tmp_path),
        tag="etth1",
    )
    start = time.time()
    rep = run(cfg)
    mse = rep.metrics[0][1].mse
    detail = f"test MSE {mse:.4f} (target <= 0.42), {time.time() - start:.0f}s"
    print(f"[{'PASS' if mse <= 0.42 else 'FAIL'}] benchmark forecast quality: {detail}")
    if mse > 0.42:
        pytest.xfail(f"informational target missed: {detail}")
