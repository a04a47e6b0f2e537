"""Config validation, patching, RevIN, block behavior, full-model invariants."""

import dataclasses
import hashlib
import json
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forecaster.data import SplitSpec, SyntheticSpec
from spectral_forecaster.errors import ConfigError, config_section
from spectral_forecaster.experiments import ExperimentConfig
from spectral_forecaster.model import checkpoint
from spectral_forecaster.model import (
    AttentionBlock,
    FilterFormer,
    ForecastHead,
    ModelConfig,
    PatchEmbedding,
    RevIN,
    count_parameters,
)
from spectral_forecaster.numeric import Tensor, backward, no_grad
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.spectral import SpectralBlockConfig
from spectral_forecaster.training import TrainConfig

from conftest import naive_circular_convolution
import reference as ref


FIXTURES = Path(__file__).parent / "fixtures"

# the paper benchmark's shape: a 9.8 MB state
PAPER_CONFIG = ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=128, n_heads=8,
                           total_layers=4, alpha=1, dropout=0.1)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=16, horizon=8, patch_len=4, d_model=8, n_heads=2,
        total_layers=2, alpha=1, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_defaults_derived(self):
        cfg = tiny_config()
        assert cfg.stride == cfg.patch_len
        assert cfg.d_k == cfg.d_model // cfg.n_heads
        assert cfg.n_patches == 4

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(alpha=3)  # alpha > total_layers
        with pytest.raises(ConfigError):
            tiny_config(patch_len=17)  # patch longer than lookback
        with pytest.raises(ConfigError):
            tiny_config(filter_placement="middle")
        with pytest.raises(ConfigError):
            tiny_config(dropout=1.0)
        with pytest.raises(ConfigError):
            tiny_config(d_model=9, n_heads=2)  # indivisible without explicit d_k
        with pytest.raises(ConfigError):
            tiny_config(total_layers=0)

    @pytest.mark.parametrize("lookback, patch_len, stride, uncovered",
                             [(96, 16, 12, 8), (100, 16, None, 4), (17, 4, 2, 1)])
    def test_lookback_steps_outside_every_patch_rejected(self, lookback, patch_len, stride,
                                                         uncovered):
        # such a patching used to train on the leading steps alone, without a word
        with pytest.raises(ConfigError) as info:
            tiny_config(lookback=lookback, patch_len=patch_len, stride=stride)
        message = str(info.value)
        for part in (f"lookback={lookback}", f"patch_len={patch_len}",
                     f"stride={stride or patch_len}", f"newest {uncovered} lookback steps"):
            assert part in message
        assert tiny_config(lookback=96, patch_len=16, stride=8).n_patches == 11

    def test_explicit_d_k_allows_any_width(self):
        cfg = tiny_config(d_model=9, n_heads=2, d_k=5)
        assert cfg.d_k == 5

    def test_dict_round_trip(self):
        """Every config dataclass reads its own ``asdict`` back: each field is keyed by its name."""
        cfg = tiny_config(spectral=SpectralBlockConfig(use_mlp=False), stride=2)
        again = config_section(ModelConfig, dataclasses.asdict(cfg), "model")
        assert again == cfg
        # every field off its default, so a field read under another key shows
        configs = [
            SpectralBlockConfig(use_mlp=False, mlp_hidden=5),
            TrainConfig(learning_rate=0.5, batch_size=3, max_epochs=4, patience=2, seed=9),
            SplitSpec(train_frac=0.5, val_frac=0.25, test_frac=0.25, boundaries=(10, 20)),
            SyntheticSpec(components=((1.0, 0.1, 0.0), (0.5, 0.2, 1.0), (0.25, 0.3, 2.0)),
                          length=300, noise=0.5),
            ExperimentConfig(model=cfg, train=TrainConfig(seed=3), split=SplitSpec(boundaries=(5, 9)),
                             synthetic=SyntheticSpec(length=500), exclude_channels=(1, "a"),
                             horizons=(4, 8), out_dir="out", tag="t"),
            ExperimentConfig(model=cfg, dataset="series.csv"),
        ]
        for x in configs:
            assert config_section(type(x), dataclasses.asdict(x), "") == x

    def test_unknown_keys_rejected(self):
        d = dataclasses.asdict(tiny_config())
        with pytest.raises(ConfigError, match=r"\['model.window'\]"):
            config_section(ModelConfig, {**d, "window": 3}, "model")
        d["spectral"]["width"] = 3
        with pytest.raises(ConfigError, match=r"\['model.spectral.width'\]"):
            config_section(ModelConfig, d, "model")

    # every user-settable value, spectral fields dotted, moved off its value in
    # FIELD_BASE, where the field should act: one spectral block with an MLP,
    # two attention blocks and dropout
    FIELD_BASE = dict(total_layers=3, alpha=1, dropout=0.1)
    FIELD_MOVES = {
        "lookback": 20, "horizon": 4, "patch_len": 8, "stride": 2, "d_model": 12,
        "n_heads": 4, "d_k": 3, "total_layers": 4, "alpha": 2,
        "filter_placement": "pre-embedding", "dropout": 0.3, "ffn_hidden": 5,
        "revin_affine": True, "spectral.use_mlp": False, "spectral.mlp_hidden": 5,
    }

    def test_every_field_acts(self):
        """Each field, moved, changes the checkpoint manifest or a seeded training forward.

        A field that changes neither is read and ignored; a new field needs
        an entry in ``FIELD_MOVES``, so such a field cannot land unseen.
        """
        fields = [f.name for f in dataclasses.fields(ModelConfig) if f.name != "spectral"]
        fields += ["spectral." + f.name for f in dataclasses.fields(SpectralBlockConfig)]
        assert sorted(self.FIELD_MOVES) == sorted(fields)

        def manifest_and_forward(**overrides):
            cfg = tiny_config(**{**self.FIELD_BASE, **overrides})
            model = FilterFormer(cfg, np.random.default_rng(0)).train()
            x = np.random.default_rng(1).standard_normal((4, cfg.lookback))
            return checkpoint._manifest(model), model(x, rng=np.random.default_rng(2)).data

        base_manifest, base_out = manifest_and_forward()
        dead = []
        for name, value in self.FIELD_MOVES.items():
            section, _, key = name.rpartition(".")
            moved = {"spectral": SpectralBlockConfig(**{key: value})} if section else {key: value}
            manifest, out = manifest_and_forward(**moved)
            if manifest == base_manifest and np.array_equal(out, base_out):
                dead.append(name)
        assert not dead, f"fields that change nothing: {dead}"


class TestPatchify:
    def test_cited_counts(self):
        assert ref.patchify(np.zeros(96), 16, 16).shape == (6, 16)
        assert ref.patchify(np.zeros(96), 16, 8).shape == (11, 16)

    def test_degenerate_single_patch(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(ref.patchify(x, 5, 5), x[None, :])

    def test_patch_contents(self):
        x = np.arange(10.0)
        patches = ref.patchify(x, 4, 3)
        np.testing.assert_array_equal(patches[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(patches[1], [3, 4, 5, 6])
        np.testing.assert_array_equal(patches[2], [6, 7, 8, 9])

    def test_too_long_patch_rejected(self):
        with pytest.raises(ValueError):
            ref.patchify(np.zeros(4), 5, 1)
        with pytest.raises(ValueError):
            ref.patchify(np.zeros(4), 2, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 50))
    def test_count_formula(self, lookback, patch_len, stride):
        if patch_len > lookback:
            return
        patches = ref.patchify(np.zeros(lookback), patch_len, stride)
        assert patches.shape == ((lookback - patch_len) // stride + 1, patch_len)


class TestRevin:
    def test_hand_checked_statistics(self):
        xn, (mean, std) = RevIN().normalize(np.array([[1.0, 2.0, 3.0]]))
        assert mean[0, 0] == pytest.approx(2.0)
        assert std[0, 0] == pytest.approx(np.sqrt(2.0 / 3.0 + 1e-5))
        assert xn.data.mean() == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        x = np.random.default_rng(0).standard_normal((5, 40)) * 3.0 + 1.0
        revin = RevIN()
        xn, stats = revin.normalize(x)
        assert np.abs(ref.revin_denormalize(xn.data, stats) - x).max() < 1e-10
        assert np.abs(revin.denormalize(xn, stats).data - x).max() < 1e-10

    def test_constant_channel_warns_and_stays_finite(self):
        with pytest.warns(UserWarning):
            xn, _ = RevIN().normalize(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(xn.data, np.zeros((1, 3)))

    def test_too_short_window_rejected(self):
        with pytest.raises(ValueError):
            RevIN().normalize(np.array([[1.0]]))

    def test_denormalize_row_mismatch_rejected(self):
        revin = RevIN()
        _, stats = revin.normalize(np.ones((3, 8)) + np.arange(8.0))
        with pytest.raises(ValueError):
            revin.denormalize(Tensor(np.zeros((4, 8))), stats)


class TestEmbeddingAndHead:
    def test_zero_patches_zero_pos_embed_to_zero(self):
        cfg = tiny_config()
        emb = PatchEmbedding(cfg).init_state(np.random.default_rng(0))
        emb.pos.data[...] = 0.0
        out = ref.embed_patches(emb, np.zeros((2, cfg.n_patches, cfg.patch_len)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4, 8)))

    def test_cited_embedding_shape(self):
        cfg = ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=128, n_heads=8)
        emb = PatchEmbedding(cfg).init_state(np.random.default_rng(0))
        out = ref.embed_patches(emb, np.zeros((1, 6, 16)))
        assert out.shape == (1, 6, 128)

    def test_embedding_gradient(self):
        cfg = tiny_config()
        emb = PatchEmbedding(cfg).init_state(np.random.default_rng(1))
        patches = np.random.default_rng(2).standard_normal((2, 4, 4))
        proj = np.random.default_rng(3).standard_normal((2, 4, 8))
        loss = ref.sum(T.mul(emb(Tensor(patches)), proj))
        backward(loss)
        eps = 1e-6
        flat = emb.proj.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                fp = ref.sum(T.mul(emb(Tensor(patches)), proj)).item()
            flat[i] = orig - eps
            with no_grad():
                fm = ref.sum(T.mul(emb(Tensor(patches)), proj)).item()
            flat[i] = orig
            num[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(emb.proj.grad.reshape(-1), num, rtol=1e-4, atol=1e-6)

    def test_head_zero_input_zero_bias(self):
        head = ForecastHead(4, 8, 720).init_state(np.random.default_rng(0))
        out = head(Tensor(np.zeros((3, 4, 8))))
        assert out.shape == (3, 720)
        np.testing.assert_array_equal(out.data, np.zeros((3, 720)))


class TestAttentionBlock:
    def make_block(self, d=8, heads=2, seed=0):
        return AttentionBlock(d, heads, d // heads, 2 * d,
                              dropout=0.0).init_state(np.random.default_rng(seed))

    def test_single_patch_degenerate(self):
        block = self.make_block()
        out = ref.attention_block_forward(block, Tensor(np.random.default_rng(1).standard_normal((1, 8))))
        assert out.shape == (1, 8)
        assert np.isfinite(out.data).all()

    def test_patch_permutation_equivariance(self):
        block = self.make_block(seed=2)
        y = np.random.default_rng(3).standard_normal((5, 8))
        perm = np.random.default_rng(4).permutation(5)
        out = ref.attention_block_forward(block, Tensor(y)).data
        out_perm = ref.attention_block_forward(block, Tensor(y[perm])).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_bad_width_rejected(self):
        block = self.make_block()
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((2, 3, 9))))

    # d_model, heads, d_k, input shape: one head, two d_k that are not d/h
    # (the node reads d_k, and so its scale, off wq), the single-patch path of
    # attention_block_forward, and a single row
    @pytest.mark.parametrize("d,heads,d_k,shape", [
        (6, 1, 6, (3, 4, 6)),
        (6, 2, 5, (3, 4, 6)),
        (8, 2, 4, (1, 8)),
        (8, 4, 2, (1, 5, 8)),
        (8, 2, 3, (3, 4, 8)),
    ])
    def test_value_path_matches_unfused_chain(self, monkeypatch, d, heads, d_k, shape):
        # training mode with dropout on the attention weights: the block over the
        # attention node, over the four-node split chain and over the 18-node
        # unfused chain, both scaled by 1 / sqrt(d_k), must draw the same masks
        # and give the split chain's bits and the unfused chain's to rounding
        rng = np.random.default_rng(d + heads + d_k)
        y = rng.standard_normal(shape)
        proj = rng.standard_normal(shape)
        results = []
        for attention in (T.attention, ref.scaled(ref.split_attention, d_k),
                          ref.scaled(ref.unfused_attention, d_k)):
            monkeypatch.setattr(T, "attention", attention)
            block = AttentionBlock(d, heads, d_k, 2 * d, dropout=0.3).init_state(np.random.default_rng(0))
            x = Tensor(y.copy(), requires_grad=True)
            out = ref.attention_block_forward(block, x, np.random.default_rng(1))
            backward(ref.sum(T.mul(out, proj)))
            grads = [p.grad for _, p in block.named_parameters()]
            results.append([out.data, x.grad] + grads)
        assert [len(r) for r in results] == [15, 15, 15]  # output, input and 13 parameters
        # atol covers out_proj.bias, whose gradient vanishes under norm1 but for rounding
        for new, split, old in zip(*results):
            assert new.tobytes() == split.tobytes()
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12)


class TestFilterFormer:
    def test_output_shape(self):
        cfg = ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=16, n_heads=2,
                          total_layers=2, alpha=1, dropout=0.0)
        model = FilterFormer(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((7, 96))
        out = model(x)
        assert out.shape == (7, 96)

    def test_channel_permutation_equivariance(self):
        cfg = tiny_config()
        model = FilterFormer(cfg, np.random.default_rng(0)).eval()
        x = np.random.default_rng(1).standard_normal((6, 16))
        perm = np.random.default_rng(2).permutation(6)
        with no_grad():
            out = model(x).data
            out_perm = model(x[perm]).data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_per_channel_affine_scaling_equivariance(self):
        cfg = tiny_config()
        model = FilterFormer(cfg, np.random.default_rng(0)).eval()
        x = np.random.default_rng(3).standard_normal((4, 16))
        a = np.array([[0.5], [3.0], [1.7], [0.2]])
        b = np.array([[1.0], [-2.0], [0.3], [5.0]])
        with no_grad():
            base = model(x).data
            scaled = model(a * x + b).data
        np.testing.assert_allclose(scaled, a * base + b, rtol=1e-4, atol=1e-6)

    def test_alpha_zero_bit_identical_to_backbone(self):
        cfg = tiny_config(alpha=0)
        seed = 42
        model = FilterFormer(cfg, np.random.default_rng(seed)).eval()

        rng = np.random.default_rng(seed)
        embedding = PatchEmbedding(cfg).init_state(rng)
        blocks = [
            AttentionBlock(cfg.d_model, cfg.n_heads, cfg.d_k, cfg.ffn_hidden,
                           cfg.dropout).init_state(rng)
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
        assert np.array_equal(out, manual)

    def test_pure_spectral_stack_reachable(self):
        cfg = tiny_config(alpha=2, total_layers=2)
        model = FilterFormer(cfg, np.random.default_rng(0))
        out = model(np.random.default_rng(1).standard_normal((2, 16)))
        assert out.shape == (2, 8)
        assert len(model.spectral_filters()) == 2

    def test_pre_embedding_placement_filters_input(self):
        cfg = tiny_config(filter_placement="pre-embedding")
        model = FilterFormer(cfg, np.random.default_rng(0))
        filters = model.spectral_filters()
        assert len(filters) == 1
        assert filters[0].w.size == cfg.lookback
        # embedded stack is attention-only in this placement
        assert all(isinstance(b, AttentionBlock) for b in model.blocks)
        out = model(np.random.default_rng(1).standard_normal((2, 16)))
        assert out.shape == (2, 8)

    def test_predict_handles_batch_axes(self):
        cfg = tiny_config()
        model = FilterFormer(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3, 16))
        out = model.predict(x)
        assert out.shape == (5, 3, 8)
        np.testing.assert_array_equal(out[2], model.predict(x[2]))

    def test_wrong_lookback_rejected(self):
        model = FilterFormer(tiny_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            model(np.zeros((2, 17)))

    def test_full_model_gradients_match_finite_differences(self):
        cfg = tiny_config()
        model = FilterFormer(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 16))
        target = np.random.default_rng(2).standard_normal((3, 8))

        def loss_tensor():
            diff = T.sub(model(x), target)
            return T.mean(T.mul(diff, diff))

        backward(loss_tensor())
        eps = 1e-5
        for name, p in model.named_parameters():
            flat = p.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                with no_grad():
                    fp = loss_tensor().item()
                flat[i] = orig - eps
                with no_grad():
                    fm = loss_tensor().item()
                flat[i] = orig
                num[i] = (fp - fm) / (2 * eps)
            np.testing.assert_allclose(
                p.grad.reshape(-1), num, rtol=1e-3, atol=1e-6,
                err_msg=f"gradient mismatch for {name}",
            )


class TestPredict:
    """``predict`` forecasts in even chunks of at most PREDICT_CHUNK rows, into one array."""

    @pytest.mark.parametrize("shape", [(0, 16), (3, 0, 16)])
    def test_zero_rows_give_an_empty_forecast(self, shape):
        model = FilterFormer(tiny_config(), np.random.default_rng(0))
        out = model.predict(np.empty(shape))
        assert out.shape == shape[:-1] + (8,)

    @pytest.mark.parametrize("shape", [(0, 17), (2, 17), (3, 0, 15)])
    def test_wrong_lookback_rejected(self, shape):
        model = FilterFormer(tiny_config(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="16"):
            model.predict(np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 128, 129, 305, 513])
    def test_chunks_are_even_and_bounded(self, n, monkeypatch):
        from spectral_forecaster.model import network

        model = FilterFormer(tiny_config(), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((n, 16))
        with no_grad():
            whole = model.eval().forward(x).data
        sizes = []
        forward = FilterFormer.forward

        def recording(self, rows, rng=None):
            sizes.append(rows.shape[0])
            return forward(self, rows, rng)

        monkeypatch.setattr(FilterFormer, "forward", recording)
        out = model.predict(x)
        assert sum(sizes) == n
        assert max(sizes) <= network.PREDICT_CHUNK == 128
        assert max(sizes) - min(sizes) <= 1
        np.testing.assert_allclose(out, whole, rtol=1e-12, atol=1e-12)

    def test_working_set_does_not_grow_with_rows(self):
        # at the paper's longest horizon, 2,048 rows of forecast (11.8 MB)
        # outgrow one chunk's working set, so a second copy of them would show
        cfg = dataclasses.replace(PAPER_CONFIG, horizon=720)
        model = FilterFormer(cfg, np.random.default_rng(0))
        data = np.random.default_rng(1)

        def peak_above_output(n):
            x = data.standard_normal((n, cfg.lookback))
            tracemalloc.start()
            try:
                out = model.predict(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        peak_above_output(8)  # caches the first forward fills stay out of the comparison
        small, large = peak_above_output(256), peak_above_output(2048)
        # a chunk list and its concatenation, or wider chunks, grow with the rows
        assert large <= 1.02 * small, (small, large)


class TestFilterProbe:
    """``filter_probe`` against a hand-built filter input and the convolution oracle."""

    CASES = {
        "embedding-axis": dict(),
        "pre-embedding": dict(alpha=2, total_layers=3, filter_placement="pre-embedding"),
    }

    def model_and_input(self, case):
        model = FilterFormer(tiny_config(**self.CASES[case]), np.random.default_rng(0))
        if case != "pre-embedding":
            # non-trivial running statistics and affine, so norm_in is not near identity
            rng = np.random.default_rng(4)
            norm = model.blocks[0].norm_in
            norm.running_mean[:] = rng.standard_normal(8)
            norm.running_var[:] = rng.uniform(0.5, 3.0, 8)
            norm.gamma.data[:] = rng.uniform(0.5, 2.0, 8)
            norm.beta.data[:] = rng.standard_normal(8)
        return model, np.random.default_rng(5).standard_normal((3, model.config.lookback))

    def expected_input(self, model, case, x):
        xn = RevIN().normalize(x)[0].data
        if case == "pre-embedding":
            return xn
        cfg = model.config
        patches = ref.patchify(xn, cfg.patch_len, cfg.stride)
        y = patches @ model.embedding.proj.data + model.embedding.pos.data
        norm = model.blocks[0].norm_in
        y = (y - norm.running_mean) / np.sqrt(norm.running_var + T.NORM_EPS)
        return y * norm.gamma.data + norm.beta.data

    @pytest.mark.parametrize("case", list(CASES))
    def test_probe_matches_oracles(self, case):
        model, x = self.model_and_input(case)
        first = model.spectral_filters()[0]
        fin, fout = model.filter_probe(x)
        expected_last = {"embedding-axis": 8, "pre-embedding": 16}[case]
        assert fin.shape[-1] == fout.shape[-1] == first.w.size == expected_last
        assert fin.shape == fout.shape
        np.testing.assert_allclose(fin, self.expected_input(model, case, x), rtol=0, atol=1e-12)
        if case == "pre-embedding":
            assert np.array_equal(fin, RevIN().normalize(x)[0].data)
        rows_in = fin.reshape(-1, first.w.size)
        rows_out = fout.reshape(-1, first.w.size)
        for row_in, row_out in zip(rows_in, rows_out):
            np.testing.assert_allclose(
                row_out, naive_circular_convolution(first.w.data, row_in), rtol=0, atol=1e-12,
            )

    @pytest.mark.parametrize("case", list(CASES))
    def test_probe_is_what_the_forward_filters(self, case, monkeypatch):
        from spectral_forecaster.spectral import SpectralFilter

        model, x = self.model_and_input(case)
        first = model.spectral_filters()[0]
        seen = []
        apply = SpectralFilter.apply

        def recording_apply(f, y):
            out = apply(f, y)
            if f is first:
                seen.append((np.array(y.data), np.array(out.data)))
            return out

        monkeypatch.setattr(SpectralFilter, "apply", recording_apply)
        model.eval()
        with no_grad():
            model(x)
        fin, fout = model.filter_probe(x)
        assert len(seen) == 2
        for got, want in zip((fin, fout), seen[0]):
            assert np.array_equal(got, want)
        assert np.array_equal(seen[1][0], fin)

    @pytest.mark.parametrize("case", list(CASES))
    def test_probe_restores_mode_and_records_no_tape(self, case, monkeypatch):
        recorded = []

        class CountingNode(T.TapeNode):
            __slots__ = ()

            def __init__(self, op, parents, backward_fn):
                super().__init__(op, parents, backward_fn)
                recorded.append(op)

        monkeypatch.setattr(T, "TapeNode", CountingNode)
        model, x = self.model_and_input(case)
        for mode in (True, False):
            model.train(mode)
            fin, fout = model.filter_probe(x)
            assert model.training is mode
            assert all(m.training is mode for m in model.blocks)
            assert type(fin) is np.ndarray and type(fout) is np.ndarray
        assert recorded == []
        model(x)  # while an ordinary forward does record
        assert recorded

    def test_filterless_and_wrong_width_rejected(self):
        model = FilterFormer(tiny_config(alpha=0), np.random.default_rng(0))
        with pytest.raises(ValueError, match="no spectral filters"):
            model.filter_probe(np.zeros((2, 16)))
        for case in self.CASES:
            model, _ = self.model_and_input(case)
            with pytest.raises(ValueError):
                model.filter_probe(np.zeros((2, model.config.lookback + 1)))
            assert model.training


class TestFusedLayers:
    def test_batchnorm_running_statistics_match_old_formula(self):
        from spectral_forecaster.nn import BatchNorm

        rng = np.random.default_rng(31)
        norm = BatchNorm(4).init_state(rng)
        rm, rv = np.zeros(4), np.ones(4)
        for _ in range(3):
            x = rng.standard_normal((3, 5, 4)) * 2.0 + 1.0
            # the statistics the unfused node chain computed: mean and
            # population variance of the rows flattened to (-1, features)
            flat = x.reshape(-1, 4)
            centered = flat - flat.mean(axis=0, keepdims=True)
            rm = 0.9 * rm + 0.1 * flat.mean(axis=0)
            rv = 0.9 * rv + 0.1 * (centered * centered).mean(axis=0)
            norm(ref.swapaxes(Tensor(np.swapaxes(x, 0, 1)), 0, 1))  # x, not contiguous
            np.testing.assert_allclose(norm.running_mean, rm, rtol=0, atol=1e-12)
            np.testing.assert_allclose(norm.running_var, rv, rtol=0, atol=1e-12)

    @staticmethod
    def training_step_census(overrides):
        """Op kinds on one acceptance-shape training step's tape, walked from the loss."""
        from spectral_forecaster.training import mse_loss

        cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "patch_len": 8, "d_model": 16,
                             "n_heads": 4, "dropout": 0.0, **overrides})
        model = FilterFormer(cfg, np.random.default_rng(0)).train()
        rng = np.random.default_rng(1)
        loss = mse_loss(model(rng.standard_normal((16, 96)), rng=rng),
                        rng.standard_normal((16, 96)))
        return ref.tape_census(loss)

    # the acceptance shape: post-embedding (as the pinned benchmark runs it,
    # 148 nodes unfused) and pre-embedding with three attention blocks (168)
    @pytest.mark.parametrize("overrides,limit", [
        (dict(total_layers=3, alpha=1), 80),
        (dict(total_layers=4, alpha=1, filter_placement="pre-embedding"), 95),
    ])
    def test_training_step_tape_size(self, overrides, limit):
        assert sum(self.training_step_census(overrides).values()) <= limit

    # the same shapes with each attention block's scores as one
    # attention_scores node: 36 and 41 nodes (32 and 36 with attention as one node)
    @pytest.mark.parametrize("overrides,limit", [
        (dict(total_layers=3, alpha=1), 36),
        (dict(total_layers=4, alpha=1, filter_placement="pre-embedding"), 41),
    ], ids=["post-embedding", "pre-embedding"])
    def test_training_step_tape_size_with_fused_scores(self, overrides, limit):
        assert sum(self.training_step_census(overrides).values()) <= limit

    def test_pinned_step_tape_guard(self):
        # the pinned benchmark's step: 74 nodes with gating as an 11-node
        # rfft/mul/irfft chain, 64 with it as one spectral_gate node, 52 with
        # each attention block's value path as one head_mix node instead of 7,
        # 36 with its scores as one attention_scores node instead of 9, 32
        # with scores, softmax and value path as one attention node
        census = self.training_step_census(dict(total_layers=3, alpha=1))
        assert sum(census.values()) <= 32
        assert census["spectral_gate"] == 1
        assert census["attention"] == 2
        assert census["matmul"] == 8
        assert not census.keys() & {"rfft_re", "rfft_im", "irfft", "softmax"}

    def test_paper_step_tape_census(self):
        # the paper benchmark's step (d_model 128, 8 heads, dropout 0.1): 53
        # nodes with attention as scores, softmax, dropout and value-path
        # nodes, 44 with it as one node per block
        census = self.training_step_census(dict(patch_len=16, d_model=128, n_heads=8,
                                                total_layers=4, alpha=1, dropout=0.1))
        assert sum(census.values()) == 44
        assert census["attention"] == 3
        assert census["dropout"] == 4  # the MLPs' and the spectral block's, none on the maps


class TestCheckpoint:
    def trained_looking_model(self) -> FilterFormer:
        cfg = tiny_config(alpha=1, revin_affine=True)
        model = FilterFormer(cfg, np.random.default_rng(9))
        # run a training-mode pass so batch-norm running stats move off their init
        model.train()
        model(np.random.default_rng(10).standard_normal((4, 16)),
              rng=np.random.default_rng(11))
        return model.eval()

    def test_round_trip_is_bit_exact(self, tmp_path):
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        model = self.trained_looking_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path).eval()

        assert again.config == model.config
        saved = dict(model.named_state())
        for name, value in again.named_state():
            a = value.data if isinstance(value, Tensor) else value
            b = saved[name].data if isinstance(saved[name], Tensor) else saved[name]
            assert np.array_equal(a, b), name

        x = np.random.default_rng(12).standard_normal((3, 16))
        np.testing.assert_array_equal(model.predict(x), again.predict(x))

    @pytest.mark.parametrize("placement", ["post-embedding", "pre-embedding"])
    def test_arena_writer_matches_per_entry_writer_byte_for_byte(self, tmp_path, placement):
        from spectral_forecaster.model import save_checkpoint

        model = FilterFormer(tiny_config(alpha=1, revin_affine=True, filter_placement=placement),
                             np.random.default_rng(9))
        model.train()(np.random.default_rng(10).standard_normal((4, 16)),
                      rng=np.random.default_rng(11))
        assert any(b.size for _, b in model.named_buffers())
        save_checkpoint(model, tmp_path / "arena.ckpt")
        ref.save_checkpoint_per_entry(model, tmp_path / "entries.ckpt")
        assert (tmp_path / "arena.ckpt").read_bytes() == (tmp_path / "entries.ckpt").read_bytes()

    def test_load_restores_into_parameter_arena(self, tmp_path, monkeypatch):
        from spectral_forecaster.model import load_checkpoint, save_checkpoint
        from spectral_forecaster.nn import Module

        model = self.trained_looking_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        packed = []
        pack = Module.state_arena
        monkeypatch.setattr(Module, "state_arena",
                            lambda self: packed.append(pack(self)) or packed[-1])
        again = load_checkpoint(path)
        # packed once, by the loader, and loaded into those views
        arena = packed[0]
        assert all(a is arena for a in packed)
        assert all(p.data.base is arena for p in again.parameters())
        # the payload is the state arena, so the parameter arena is its head
        payload = path.read_bytes()[-arena.nbytes:]
        assert payload == arena.astype("<f8").tobytes()
        assert again.parameter_arena().tobytes() == model.parameter_arena().tobytes()

    def test_nan_in_a_buffer_names_that_buffer(self, tmp_path):
        from spectral_forecaster.errors import DataError
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        model = self.trained_looking_model()
        # buffers trail the state arena, and the last one is a running_var
        last = list(model.named_state())[-1][0]
        assert last.endswith("running_var")
        model.state_arena()[-1] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: entry {last!r} holds non-finite values"

    @pytest.mark.parametrize("placement", ["post-embedding", "pre-embedding"])
    def test_per_entry_file_loads_bit_for_bit(self, tmp_path, placement):
        from spectral_forecaster.model import load_checkpoint

        model = FilterFormer(tiny_config(alpha=1, revin_affine=True, filter_placement=placement),
                             np.random.default_rng(9))
        model.train()(np.random.default_rng(10).standard_normal((4, 16)),
                      rng=np.random.default_rng(11))
        path = tmp_path / "entries.ckpt"
        ref.save_checkpoint_per_entry(model, path)
        again = load_checkpoint(path)
        assert again.state_arena().tobytes() == path.read_bytes()[-again.state_arena().nbytes:]
        assert again.state_arena().tobytes() == model.state_arena().tobytes()

    def test_load_peaks_at_the_state_arena(self, tmp_path):
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        path = tmp_path / "paper.ckpt"
        save_checkpoint(FilterFormer(PAPER_CONFIG, np.random.default_rng(0)), path)
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = model.state_arena().nbytes
        assert state > 9_000_000
        # the payload is read straight into the arena: no copy of the file, no drawn model
        assert peak <= 1.2 * state, peak / state

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        model = self.trained_looking_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def refuse(*args):
            raise AssertionError("load_checkpoint made a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert load_checkpoint(path).state_arena().tobytes() == model.state_arena().tobytes()

    def test_file_of_an_earlier_version_loads_bit_for_bit(self, tmp_path):
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        # written by `run --tiny` before parameters were declared by shape
        fixture = FIXTURES / "tiny_h8.ckpt"
        blob = fixture.read_bytes()
        assert hashlib.sha256(blob).hexdigest().startswith("59a55ff9aaacfe56")
        model = load_checkpoint(fixture)
        arena = model.state_arena()
        assert arena.astype("<f8").tobytes() == blob[-arena.nbytes:]
        # the rewrite leaves out the retired options the fixture's header names
        start = len(checkpoint.MAGIC) + 4
        end = start + struct.unpack(">I", blob[len(checkpoint.MAGIC):start])[0]
        header = json.loads(blob[start:end])
        assert json.dumps(header, sort_keys=True).encode() == blob[start:end]
        assert header["config"].pop("activation") == "gelu"
        assert header["config"]["spectral"].pop("filter_axis") == "embedding"
        assert header["config"]["spectral"].pop("filtered_axis_length") is None
        new_header = json.dumps(header, sort_keys=True).encode()
        save_checkpoint(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (
            checkpoint.MAGIC + struct.pack(">I", len(new_header)) + new_header + blob[end:])

    def test_bad_magic_rejected(self, tmp_path):
        from spectral_forecaster.errors import DataError
        from spectral_forecaster.model import load_checkpoint

        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        from spectral_forecaster.errors import DataError
        from spectral_forecaster.model import load_checkpoint, save_checkpoint

        model = self.trained_looking_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:20])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def saved_with_header(self, path, edit):
        """Save the trained-looking model at ``path``, then rewrite its header through ``edit``."""
        import json
        import struct

        from spectral_forecaster.model import save_checkpoint
        from spectral_forecaster.model.checkpoint import MAGIC

        save_checkpoint(self.trained_looking_model(), path)
        blob = path.read_bytes()
        hlen = struct.unpack(">I", blob[len(MAGIC):len(MAGIC) + 4])[0]
        start = len(MAGIC) + 4
        header = json.loads(blob[start:start + hlen])
        edit(header)
        new_header = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack(">I", len(new_header)) + new_header
                         + blob[start + hlen:])
        return path

    def test_missing_entry_rejected(self, tmp_path):
        from spectral_forecaster.errors import DataError
        from spectral_forecaster.model import load_checkpoint

        def drop_last_entry(header):
            header["entries"] = header["entries"][:-1]

        with pytest.raises(DataError):
            load_checkpoint(self.saved_with_header(tmp_path / "model.ckpt", drop_last_entry))

    def test_header_config_with_unpatched_lookback_steps_rejected(self, tmp_path):
        from spectral_forecaster.errors import DataError
        from spectral_forecaster.model import load_checkpoint

        def lengthen_lookback(header):
            # lookback 16 -> 18 keeps 4 patches of 4, so every entry still matches
            header["config"]["lookback"] = 18

        path = self.saved_with_header(tmp_path / "model.ckpt", lengthen_lookback)
        with pytest.raises(DataError, match="newest 2 lookback steps outside every patch"):
            load_checkpoint(path)


class TestLayout:
    # sha256 prefixes of FilterFormer(cfg, default_rng(0)).state_arena(), as
    # the constructors drew it before parameters were declared by shape
    # (strided-affine: as drawn before filter_axis was removed)
    PINNED = {
        "tiny": "087efe6e0b9954a1",
        "paper": "1db372f2995766b7",
        "prefilter336": "299e7583dd3148a6",
        "strided-affine": "db9d932f88abc1db",
    }
    # sha256 prefixes of the sorted-key JSON of each layout's checkpoint
    # manifest (entry names, shapes, offsets), and its entry count
    MANIFEST = {
        "paper": ("5b1fcbf2b4f4849a", 66),
        "strided-affine": ("267a37b0e68fe439", 45),
        "prefilter336": ("23a5f1ec16f03478", 23),
        "tiny": ("d9de92039934d76e", 32),
    }

    @staticmethod
    def config(name) -> ModelConfig:
        from spectral_forecaster.experiments import tiny_experiment_config

        return {
            "tiny": lambda: tiny_experiment_config().model,
            "paper": lambda: PAPER_CONFIG,
            # the prefilter336 benchmark's shape
            "prefilter336": lambda: ModelConfig(
                lookback=336, horizon=96, patch_len=16, d_model=64, n_heads=4, total_layers=3,
                alpha=2, filter_placement="pre-embedding", dropout=0.0),
            # overlapping patches, a set MLP width and RevIN's affine
            "strided-affine": lambda: ModelConfig(
                lookback=48, horizon=24, patch_len=8, stride=4, d_model=24, n_heads=3,
                total_layers=3, alpha=2, spectral=SpectralBlockConfig(mlp_hidden=10),
                revin_affine=True),
        }[name]()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_initial_state_is_pinned(self, name):
        cfg = self.config(name)
        arena = FilterFormer(cfg, np.random.default_rng(0)).state_arena()
        assert hashlib.sha256(arena.tobytes()).hexdigest()[:16] == self.PINNED[name]
        again = FilterFormer(cfg).init_state(np.random.default_rng(0)).state_arena()
        assert again.tobytes() == arena.tobytes()

    @pytest.mark.parametrize("name", sorted(MANIFEST))
    def test_manifest_is_pinned(self, name):
        manifest = checkpoint._manifest(FilterFormer(self.config(name)))
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        assert (digest[:16], len(manifest)) == self.MANIFEST[name]

    def test_layout_alone_holds_no_memory(self):
        model = FilterFormer(tiny_config(alpha=1, revin_affine=True))
        assert "_state_arena" not in model.__dict__
        for name, a in model.named_state():
            assert not a.flags.writeable and not any(a.strides), name
        # drawn parameters read NaN, declared constants read their value
        assert np.isnan(model.embedding.pos.data).all()
        assert np.isnan(model.blocks[0].filter.w.data).all()
        assert (model.blocks[1].norm1.gamma.data == 1.0).all()
        assert (model.blocks[1].norm1.running_var == 1.0).all()
        assert np.isnan(model.predict(np.random.default_rng(0).standard_normal((2, 16)))).all()

    def test_counting_a_huge_config_allocates_nothing(self):
        cfg = ModelConfig(lookback=16, horizon=8, patch_len=4, d_model=10**6, n_heads=2)
        tracemalloc.start()
        try:
            total, _ = count_parameters(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total > 10**12
        assert peak < 2**20, peak

    def test_fresh_build_peaks_at_the_state_arena(self):
        # a first build pays one-time imports and caches, which are not the draws
        FilterFormer(tiny_config(alpha=1), np.random.default_rng(0))
        tracemalloc.start()
        try:
            model = FilterFormer(PAPER_CONFIG, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = model.state_arena().nbytes
        assert state > 9_000_000
        # every draw lands in its view of the arena: no parameter-sized temporary
        assert peak <= 1.05 * state, peak / state


class TestStateArena:
    def test_every_parameter_and_buffer_is_a_view_of_the_state_arena(self):
        model = FilterFormer(tiny_config(alpha=1, revin_affine=True), np.random.default_rng(0))
        arena = model.state_arena()
        state = list(model.named_state())
        assert any("running_var" in name for name, _ in state)
        assert all(a.base is arena for _, a in state), [n for n, a in state if a.base is not arena]
        assert arena.tobytes() == np.concatenate([a.reshape(-1) for _, a in state]).tobytes()
        # BatchNorm's in-place running-stat updates land in the arena
        before = arena.copy()
        model.train()(np.random.default_rng(1).standard_normal((4, 16)),
                      rng=np.random.default_rng(2))
        assert model.state_arena() is arena
        n_params = model.parameter_arena().size
        moved = np.flatnonzero(arena != before)
        assert moved.size and moved.min() >= n_params
        running = [a for name, a in model.named_state() if "running" in name]
        assert np.concatenate([a.reshape(-1) for a in running]).tobytes() == \
            arena[n_params:].tobytes()

    def test_buffer_added_late_repacks_the_arena(self):
        from spectral_forecaster.nn import BatchNorm, Module

        model = Module()
        model.norm = BatchNorm(3)
        arena = model.state_arena()
        model.norm.count = np.array([5.0, 6.0])
        repacked = model.state_arena()
        assert repacked is not arena and repacked.size == arena.size + 2
        assert all(a.base is repacked for _, a in model.named_state())
        assert [n for n, _ in model.named_state()][-1] == "norm.count"
        np.testing.assert_array_equal(repacked[-2:], [5.0, 6.0])
        np.testing.assert_array_equal(repacked[:arena.size], arena)

    def test_private_array_attribute_is_not_state(self):
        from spectral_forecaster.nn import BatchNorm, Module

        model = Module()
        model.norm = BatchNorm(3)
        arena = model.state_arena()
        names = [n for n, _ in model.named_state()]
        model.norm._cache = np.array([5.0, 6.0])
        assert [n for n, _ in model.named_state()] == names
        assert model.state_arena() is arena
        assert model.init_state().state_arena().size == arena.size
        np.testing.assert_array_equal(model.norm._cache, [5.0, 6.0])


class TestParameterCounting:
    def random_config(self, rng) -> ModelConfig:
        d_model = int(rng.integers(2, 6)) * 4
        n_heads = int(rng.choice([1, 2, 4]))
        patch_len = int(rng.integers(2, 9))
        stride = int(rng.integers(1, patch_len + 1))
        lookback = patch_len + stride * int(rng.integers(0, 40 // stride))  # every step patched
        total = int(rng.integers(1, 5))
        horizon = int(rng.integers(1, 30))
        alpha = int(rng.integers(0, total + 1))
        spectral = SpectralBlockConfig(use_mlp=bool(rng.integers(0, 2)),
                                       mlp_hidden=int(rng.integers(1, 3 * d_model)))
        placement = str(rng.choice(["post-embedding", "pre-embedding"]))
        return ModelConfig(
            lookback=lookback,
            horizon=horizon,
            patch_len=patch_len,
            stride=stride,
            d_model=d_model,
            n_heads=n_heads,
            total_layers=total,
            alpha=alpha,
            # a model without spectral blocks refuses a spectral section
            spectral=spectral if alpha and placement == "post-embedding"
            else SpectralBlockConfig(),
            filter_placement=placement,
            dropout=float(rng.uniform(0, 0.5)),
            revin_affine=bool(rng.integers(0, 2)),
        )

    def test_analytic_equals_enumerated_on_random_configs(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            cfg = self.random_config(rng)
            analytic_total, analytic_parts = count_parameters(cfg)
            model = FilterFormer(cfg, np.random.default_rng(0))
            enumerated_total, enumerated_parts = count_parameters(model)
            assert analytic_total == enumerated_total, cfg
            assert analytic_parts == enumerated_parts, cfg

    def test_filter_contributes_exactly_d_model(self):
        cfg = tiny_config(alpha=1)
        model = FilterFormer(cfg, np.random.default_rng(0))
        sizes = [f.w.size for f in model.spectral_filters()]
        assert sizes == [cfg.d_model]

    def test_reference_setting_lands_in_stated_band(self):
        cfg = ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=128, n_heads=8,
                          total_layers=4, alpha=1)
        total, _ = count_parameters(cfg)
        assert 500_000 <= total <= 3_000_000


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory (views keep their owner alive, not each other)."""
    return arr if arr.base is None else arr.base


class TestRetainedMemory:
    """What one recorded forward keeps alive for backward, and when backward lets go."""

    # the pinned benchmark's shape, a small paper-like one with dropout, and
    # a prefilter336-like one: two input filters, 21 patches, and 32 rows, so
    # the attention node forms its mixed values in three row blocks
    SHAPES = {
        "pinned": (dict(patch_len=8, d_model=16, n_heads=4, total_layers=3, dropout=0.0), 16),
        "paper-like": (dict(patch_len=16, d_model=32, n_heads=4, total_layers=4,
                            dropout=0.1), 16),
        "prefilter336-like": (dict(lookback=336, patch_len=16, d_model=64, n_heads=4,
                                   total_layers=3, alpha=2, filter_placement="pre-embedding",
                                   dropout=0.0), 32),
    }
    # bytes traced after the forward, per float64 cell of a (rows, patches,
    # d_model) activation: about 28.4 (pinned), 32.3 (paper-like) and 9.5
    # (prefilter336-like) when consumers also rebuild the dropped attention
    # and the head's flattened input; 29.4, 35.6 and 10.5 when they kept
    # those; 34.0, 45.6 and 11.8 when they kept each normalize output and
    # head_mix its weight product too; 92 and 123 for the first two when
    # every node kept its operands alive
    BUDGET_CELLS = {"pinned": 28.9, "paper-like": 34.0, "prefilter336-like": 9.95}
    # the peak traced during backward above the forward's end, less the
    # gradient bytes backward leaves behind, in the same unit: about 4.1,
    # -9.2 and 1.1 (4.0, -9.4 and 0.7 when the forward kept the dropped
    # attention and the head's input, which backward now rebuilds; 7.5, 7.6
    # and 4.0 when gradients landed in an arena allocated before the forward)
    BACKWARD_PEAK_CELLS = {"pinned": 9.0, "paper-like": 9.0, "prefilter336-like": 4.5}
    # the step's peak above its start, what the forward keeps plus the
    # backward peak above it, with the gradients counted wherever their
    # memory came from: about 39.2, 44.9 and 15.0; 41.4, 45.1 and 15.0 when
    # attention was four nodes, whose backward rebuilt y twice and held the
    # map gradients in a layout other than the maps'; 42.3, 48.1 and 15.6 when
    # the dropped attention and the head's input were kept, head_mix formed
    # its weight gradient from all heads' mixed values at once and its
    # attention gradient in an array of its own, and normalize's backward
    # held a second full-size array; 44.9, 56.1 and 17.0 when consumers kept
    # each normalize output and head_mix its weight product
    GRADIENT_PEAK_CELLS = {"pinned": 39.7, "paper-like": 46.6, "prefilter336-like": 15.3}

    @classmethod
    def model_and_batch(cls, name):
        overrides, rows = cls.SHAPES[name]
        cfg = ModelConfig(**{"lookback": 96, "horizon": 96, "alpha": 1, **overrides})
        model = FilterFormer(cfg, np.random.default_rng(0)).train()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((rows, cfg.lookback))
        return model, x, rng.standard_normal((rows, cfg.horizon)), rng

    @staticmethod
    def cells(model, x):
        return x.shape[0] * model.config.n_patches * model.config.d_model

    @pytest.mark.parametrize("name", SHAPES)
    def test_forward_retains_within_budget(self, name):
        from spectral_forecaster.training import mse_loss

        model, x, y, rng = self.model_and_batch(name)
        mse_loss(model(x, rng=rng), y)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = mse_loss(model(x, rng=rng), y)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        cells = self.cells(model, x)
        assert kept <= self.BUDGET_CELLS[name] * 8 * cells, f"{kept / (8 * cells):.1f} per cell"
        assert loss.node is not None

    @classmethod
    def backward_peak(cls, name):
        """A training step's forward retention, its backward peak above the forward's end, its gradients, and the bytes of a cell.

        Each gradient's memory is listed once, as (bytes, allocated before
        tracing began). The model steps once through Adam first, as in
        ``fit``, so first-call allocations stay out of the count.
        """
        from spectral_forecaster.training import AdamState, adam_step, mse_loss

        model, x, y, rng = cls.model_and_batch(name)
        backward(mse_loss(model(x, rng=rng), y))
        adam_step(AdamState.for_model(model), model.named_parameters(), 1e-3)
        for p in model.parameters():
            p.grad = None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = mse_loss(model(x, rng=rng), y)
            end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - end
            owners = {id(_owner(p.grad)): _owner(p.grad) for p in model.parameters()}
            held = [(g.nbytes, tracemalloc.get_object_traceback(g) is None)
                    for g in owners.values()]
        finally:
            tracemalloc.stop()
        return end - base, peak, held, 8 * cls.cells(model, x)

    @pytest.mark.parametrize("name", SHAPES)
    def test_backward_peak_within_budget(self, name):
        """Backward's own working set: its peak less the gradients it leaves behind."""
        _, peak, held, cell = self.backward_peak(name)
        peak -= sum(nbytes for nbytes, _ in held)
        assert peak <= self.BACKWARD_PEAK_CELLS[name] * cell, f"{peak / cell:.1f}"

    @pytest.mark.parametrize("name", SHAPES)
    def test_gradient_holding_peak_within_budget(self, name):
        """The step's peak above its start, with every gradient counted, also one held in memory from before the step."""
        kept, peak, held, cell = self.backward_peak(name)
        peak += kept + sum(nbytes for nbytes, before in held if before)
        assert peak <= self.GRADIENT_PEAK_CELLS[name] * cell, f"{peak / cell:.1f}"

    def test_dead_intermediates_freed_when_forward_returns(self, monkeypatch):
        from spectral_forecaster.training import mse_loss

        model, x, y, rng = self.model_and_batch("paper-like")
        block = model.blocks[1]
        refs = {}

        def spy(module, key, arg):
            forward = module.forward

            def wrapped(t, *rest):
                out = forward(t, *rest)
                refs[key] = weakref.ref(_owner((t if arg else out).data))
                return out
            monkeypatch.setattr(module, "forward", wrapped)

        spy(block.mlp.lin1, "lin1 output", arg=False)
        spy(block.norm1, "residual sum", arg=True)
        spy(block.mlp.lin1, "lin1 input", arg=True)
        loss = mse_loss(model(x, rng=rng), y)
        # lin1's weight gradient reads its input, norm1's output, which the
        # rule rebuilds from what norm1's node keeps instead of keeping it
        assert refs["lin1 input"]() is None
        assert refs["lin1 output"]() is None
        assert refs["residual sum"]() is None
        assert loss.node is not None  # the tape that would hold them is alive

    def test_head_activations_freed_before_embedding_backward(self, monkeypatch):
        from spectral_forecaster.training import mse_loss

        model, x, y, rng = self.model_and_batch("paper-like")
        head_input, seen = [], []
        head_forward, embed_forward = model.head.forward, model.embedding.forward

        def head_spy(t):
            head_input.append(weakref.ref(_owner(t.data)))
            return head_forward(t)

        def embed_spy(patches):
            out = embed_forward(patches)
            rule = out.node.backward_fn

            def timed(g):
                seen.append(head_input[0]())
                return rule(g)
            out.node.backward_fn = timed
            return out

        monkeypatch.setattr(model.head, "forward", head_spy)
        monkeypatch.setattr(model.embedding, "forward", embed_spy)
        loss = mse_loss(model(x, rng=rng), y)
        # the head's weight gradient reads it, rebuilt from the last norm's recipe
        assert head_input[0]() is None
        backward(loss)
        assert seen == [None]

    def test_dropped_attention_and_head_input_freed_when_forward_returns(self, monkeypatch):
        """The attention node keeps no dropped maps, and the head rebuilds its flattened input with the kept array's bits.

        Each attention node keeps its softmax maps and mask and rebuilds the
        dropped maps in backward. The control swaps in the reshape without
        a recipe: then the head's matmul keeps its input, and every gradient
        is the same.
        """
        from spectral_forecaster.training import mse_loss

        def step():
            model, x, y, rng = self.model_and_batch("paper-like")
            refs, nodes = [], []
            attention = T.attention

            def attention_spy(*args):
                out = attention(*args)
                nodes.append(out.node)
                return out
            monkeypatch.setattr(T, "attention", attention_spy)

            def head_spy(t):  # ForecastHead.forward, with a handle on the flattened input
                flat = T.reshape(t, (t.shape[0], -1))
                refs.append(weakref.ref(_owner(flat.data)))
                return model.head.lin(flat)
            monkeypatch.setattr(model.head, "forward", head_spy)
            loss = mse_loss(model(x, rng=rng), y)
            rows, n, heads = x.shape[0], model.config.n_patches, model.config.n_heads
            for node in nodes:
                maps = {id(a): a for cell in node.backward_fn.__closure__
                        for a in [cell.cell_contents] if isinstance(a, np.ndarray)
                        and a.size == rows * heads * n * n}
                assert sorted(a.dtype.name for a in maps.values()) == ["bool", "float64"]
            alive = [r() is not None for r in refs]
            backward(loss)
            return len(nodes), alive, [p.grad for p in model.parameters()]

        lean = step()
        monkeypatch.setattr(T, "reshape", ref.recipe_free_reshape)
        kept = step()
        assert lean[0] == kept[0] == 3
        assert lean[1] == [False] and kept[1] == [True]
        for a, b in zip(lean[2], kept[2]):
            assert a.tobytes() == b.tobytes()


class TestLeanNodesTrainAlike:
    def test_three_steps_match_the_earlier_nodes_bit_for_bit(self, monkeypatch):
        """Three dropout-0.1 Adam steps give the same parameter bits with the earlier nodes.

        In those, consumers keep each normalize and reshape output,
        attention runs as the split chain (a scores node, a softmax, a
        float-mask dropout and a value-path node that keeps its weight
        product and mixed values and forms its weight gradient from all
        heads at once), and GELU and dropout keep their earlier arrays.
        """
        from spectral_forecaster import nn
        from spectral_forecaster.training import AdamState, adam_step, mse_loss

        cfg = ModelConfig(lookback=32, horizon=8, patch_len=8, d_model=16, n_heads=4,
                          total_layers=3, alpha=1, dropout=0.1)
        data = np.random.default_rng(2)
        batches = [(data.standard_normal((6, 32)), data.standard_normal((6, 8)))
                   for _ in range(3)]

        def train():
            model = FilterFormer(cfg, np.random.default_rng(0)).train()
            state, rng, losses = AdamState.for_model(model), np.random.default_rng(1), []
            for x, y in batches:
                loss = mse_loss(model(x, rng=rng), y)
                losses.append(loss.item())
                backward(loss)
                adam_step(state, model.named_parameters(), 1e-2)
            return model.parameter_arena().copy(), losses

        lean = train()
        monkeypatch.setattr(T, "gelu", ref.two_array_gelu)
        monkeypatch.setattr(nn.Dropout, "forward", ref.float_mask_dropout)
        monkeypatch.setattr(AttentionBlock, "_attend", ref.split_attend)
        monkeypatch.setattr(T, "normalize", ref.recipe_free_normalize)
        monkeypatch.setattr(T, "reshape", ref.recipe_free_reshape)
        earlier = train()
        assert lean[1] == earlier[1]
        assert lean[0].tobytes() == earlier[0].tobytes()
