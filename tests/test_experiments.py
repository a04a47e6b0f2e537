"""Experiment config parsing, run artifacts, reproducibility, ablations, spectra."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from spectral_forecaster.data import SplitSpec, SyntheticSpec
from spectral_forecaster.errors import ConfigError
from spectral_forecaster.experiments import (
    ExperimentConfig,
    RunReport,
    ablate_alpha,
    ablate_filter_placement,
    ablate_layers,
    export_spectra,
    load_experiment_config,
    load_series,
    run,
    tiny_experiment_config,
)
from spectral_forecaster.model import FilterFormer, ModelConfig
from spectral_forecaster.training import TrainConfig


def micro_config(out_dir, **overrides) -> ExperimentConfig:
    """Smallest config that still trains: sub-second per fit."""
    base = dict(
        model=ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                          n_heads=2, total_layers=2, alpha=1, dropout=0.0),
        train=TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=2,
                          patience=2, seed=0),
        synthetic=SyntheticSpec(length=300),
        out_dir=str(out_dir),
        tag="micro",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_requires_exactly_one_source(self):
        model = ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, n_heads=2)
        with pytest.raises(ConfigError):
            ExperimentConfig(model=model)
        with pytest.raises(ConfigError):
            ExperimentConfig(model=model, dataset="x.csv", synthetic=SyntheticSpec())

    def test_horizons_default_to_model(self):
        cfg = micro_config("/tmp/unused")
        assert cfg.horizons == (4,)

    def test_model_horizon_is_the_first_listed(self):
        model = ModelConfig(lookback=16, horizon=96, patch_len=4, d_model=8, n_heads=2)
        cfg = ExperimentConfig(model=model, synthetic=SyntheticSpec(), horizons=(192, 336))
        assert cfg.model.horizon == 192
        assert cfg.model == dataclasses.replace(model, horizon=192)
        assert dataclasses.replace(cfg, horizons=(12, 8)).model.horizon == 12

    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_integer_horizon_rejected(self, value):
        # int() used to truncate both to horizon 1
        with pytest.raises(ConfigError, match=r"horizons\.0 must be an integer"):
            dataclasses.replace(tiny_experiment_config(), horizons=(value,))

    def test_tag_must_be_path_free(self):
        with pytest.raises(ConfigError):
            micro_config("/tmp/unused", tag="a/b")


class TestLoadExperimentConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "exp.yaml"
        p.write_text(text)
        return p

    def test_full_config(self, tmp_path):
        p = self.write(tmp_path, """
tag: demo
synthetic: {length: 300}
horizons: [4, 8]
model:
  lookback: 16
  patch_len: 4
  d_model: 8
  n_heads: 2
  total_layers: 2
  alpha: 1
train:
  learning_rate: 1e-3
  max_epochs: 2
  patience: 2
out_dir: runs/demo
""")
        cfg = load_experiment_config(p)
        assert cfg.tag == "demo"
        assert cfg.horizons == (4, 8)
        assert cfg.model.horizon == 4  # injected from horizons
        assert cfg.train.learning_rate == 1e-3  # scientific-notation string coerced
        assert cfg.train.max_epochs == 2
        assert cfg.synthetic.length == 300

    def test_split_protocol_follows_dataset_name(self, tmp_path):
        csv = tmp_path / "ETTh1.csv"
        csv.write_text("date,a\n")
        p = self.write(tmp_path, f"""
dataset: {csv}
model: {{lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}}
""")
        assert load_experiment_config(p).split == SplitSpec.ett()

    def test_explicit_split_wins(self, tmp_path):
        p = self.write(tmp_path, """
synthetic: {length: 300}
split: {train_frac: 0.5, val_frac: 0.25, test_frac: 0.25}
model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}
""")
        assert load_experiment_config(p).split.train_frac == 0.5

    def test_unknown_keys_rejected(self, tmp_path):
        p = self.write(tmp_path, """
synthetic: {length: 300}
model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}
optimizer: adam
""")
        with pytest.raises(ConfigError, match="optimizer"):
            load_experiment_config(p)

    def test_missing_model_rejected(self, tmp_path):
        p = self.write(tmp_path, "synthetic: {length: 300}\n")
        with pytest.raises(ConfigError, match="model"):
            load_experiment_config(p)

    def test_invalid_yaml_rejected(self, tmp_path):
        p = self.write(tmp_path, "model: [unclosed\n")
        with pytest.raises(ConfigError):
            load_experiment_config(p)

    @pytest.mark.parametrize("bad", [
        {"length": None}, {"noise": [1]}, {"noise": float("nan")}, {"components": 5},
        {"length": 1}, {"wavelength": 3},
    ])
    def test_bad_synthetic_field_rejected_in_yaml_and_json(self, tmp_path, bad):
        from spectral_forecaster.data import load_synthetic_spec

        p = self.write(tmp_path, f"""
synthetic: {json.dumps(bad)}
model: {{lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}}
""")
        with pytest.raises(ConfigError, match=next(iter(bad))):
            load_experiment_config(p)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=next(iter(bad))):
            load_synthetic_spec(spec)

    def test_horizon_required_somewhere(self, tmp_path):
        p = self.write(tmp_path, """
synthetic: {length: 300}
model: {lookback: 16, patch_len: 4, d_model: 8, n_heads: 2}
""")
        with pytest.raises(ConfigError, match="horizon"):
            load_experiment_config(p)

    def test_number_keeps_its_text_in_string_fields(self, tmp_path):
        p = self.write(tmp_path, """
dataset: 12
model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}
tag: 12
out_dir: 3.5
exclude_channels: [0, temp]
""")
        cfg = load_experiment_config(p)
        assert (cfg.dataset, cfg.tag, cfg.out_dir) == ("12", "12", "3.5")
        assert cfg.exclude == (0, "temp")  # an integer stays a channel index


class TestRun:
    def test_artifacts_exist_and_report_is_consistent(self, tmp_path):
        report = run(micro_config(tmp_path / "a"))
        assert isinstance(report, RunReport)
        for path in report.artifacts:
            assert os.path.exists(path), path
        assert [h for h, _ in report.metrics] == [4]
        assert report.epochs_run[4] == 2
        with open(os.path.join(tmp_path / "a", "micro_report.json")) as fh:
            blob = json.load(fh)
        assert blob["tag"] == "micro"
        assert set(blob["metrics"]) == {"4"}

    def test_rerun_is_byte_identical(self, tmp_path):
        report_a = run(micro_config(tmp_path / "a"))
        report_b = run(micro_config(tmp_path / "b"))
        assert len(report_a.artifacts) == len(report_b.artifacts)
        for pa, pb in zip(report_a.artifacts, report_b.artifacts):
            assert os.path.basename(pa) == os.path.basename(pb)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), pa

    def test_seed_changes_results(self, tmp_path):
        report_a = run(micro_config(tmp_path / "a"))
        cfg_b = micro_config(tmp_path / "b")
        import dataclasses

        cfg_b = dataclasses.replace(cfg_b, train=dataclasses.replace(cfg_b.train, seed=7))
        report_b = run(cfg_b)
        assert report_a.metrics[0][1] != report_b.metrics[0][1]

    def test_multiple_horizons(self, tmp_path):
        report = run(micro_config(tmp_path / "m", horizons=(4, 8)))
        assert [h for h, _ in report.metrics] == [4, 8]
        # head grows with horizon
        assert report.param_counts[8] > report.param_counts[4]

    def test_missing_dataset_raises_os_error(self, tmp_path):
        cfg = micro_config(tmp_path, synthetic=None, dataset=str(tmp_path / "nope.csv"))
        with pytest.raises(OSError):
            run(cfg)

    def test_tiny_preset_runs(self, tmp_path):
        report = run(tiny_experiment_config(out_dir=str(tmp_path / "t")))
        assert report.metrics[0][1].mse > 0
        assert any(p.endswith("_embedding_spectrum.csv") for p in report.artifacts)


class TestAblations:
    def test_alpha_sweep_rows_and_csv(self, tmp_path):
        cfg = micro_config(tmp_path / "al")
        rows, path = ablate_alpha(cfg, [0, 1, 2])
        assert [r[0] for r in rows] == [0, 1, 2]
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "alpha,mse,mae"
        assert len(lines) == 4

    def test_singleton_list_single_row(self, tmp_path):
        rows, _ = ablate_alpha(micro_config(tmp_path / "s"), [1])
        assert len(rows) == 1

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ablate_alpha(micro_config(tmp_path / "e"), [])

    def test_fractional_alpha_rejected(self, tmp_path):
        # int() used to train alpha 0 and write 0 in the table
        with pytest.raises(ConfigError, match=r"alphas\.0 must be an integer"):
            ablate_alpha(micro_config(tmp_path / "fa"), [0.7])
        assert not (tmp_path / "fa").exists()

    def test_boolean_attention_count_rejected(self, tmp_path):
        # int() used to train True as 1 attention block
        with pytest.raises(ConfigError, match=r"attention_counts\.0 must be an integer"):
            ablate_layers(micro_config(tmp_path / "ba"), [True])
        assert not (tmp_path / "ba").exists()

    def test_layer_sweep_counts_attention_blocks(self, tmp_path):
        cfg = micro_config(tmp_path / "ly")
        rows, path = ablate_layers(cfg, [0, 1])
        assert [r[0] for r in rows] == [0, 1]
        assert Path(path).read_text().splitlines()[0] == "attention_blocks,mse,mae"

    def test_placement_covers_both_and_baseline(self, tmp_path):
        rows, path = ablate_filter_placement(micro_config(tmp_path / "pl"))
        assert [r[0] for r in rows] == ["post-embedding", "pre-embedding", "none"]
        assert all(m.mse > 0 for _, m in rows)

    def test_placement_needs_filters(self, tmp_path):
        cfg = micro_config(
            tmp_path / "pf",
            model=ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                              n_heads=2, total_layers=2, alpha=0),
        )
        with pytest.raises(ConfigError):
            ablate_filter_placement(cfg)

    def test_placement_rows_share_one_attention_stack(self, tmp_path, monkeypatch):
        import spectral_forecaster.experiments as experiments
        from spectral_forecaster.model import AttentionBlock

        counts = []
        train_once = experiments._train_once

        def counting(config, model_cfg, series):
            trained = train_once(config, model_cfg, series)
            counts.append(sum(isinstance(b, AttentionBlock) for b in trained[0].blocks))
            return trained

        monkeypatch.setattr(experiments, "_train_once", counting)
        cfg = micro_config(
            tmp_path / "st",
            model=ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                              n_heads=2, total_layers=3, alpha=2, dropout=0.0),
        )
        ablate_filter_placement(cfg)
        assert counts == [1, 1, 1]

    def test_placement_needs_an_attention_block(self, tmp_path):
        cfg = micro_config(
            tmp_path / "pa",
            model=ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                              n_heads=2, total_layers=1, alpha=1),
        )
        with pytest.raises(ConfigError, match="at least one attention block"):
            ablate_filter_placement(cfg)

    def test_sweeps_share_data_and_seed(self, tmp_path):
        # alpha=0 rows of two different sweeps must agree exactly: the
        # placement sweep's "none" row keeps total_layers - alpha = 1 block
        cfg_a = micro_config(
            tmp_path / "x",
            model=ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                              n_heads=2, total_layers=1, alpha=1, dropout=0.0),
        )
        cfg_b = micro_config(tmp_path / "y")
        rows_alpha, _ = ablate_alpha(cfg_a, [0])
        rows_place, _ = ablate_filter_placement(cfg_b)
        none_row = dict((k, v) for k, v in rows_place)["none"]
        assert rows_alpha[0][1] == none_row


class TestExportSpectra:
    def build_model(self, alpha=1, d_model=8):
        cfg = ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=d_model,
                          n_heads=2, total_layers=2, alpha=alpha, dropout=0.0)
        return FilterFormer(cfg, np.random.default_rng(0))

    def probe(self):
        return np.random.default_rng(1).standard_normal((12, 16))

    def test_filterless_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no spectral filters"):
            export_spectra(self.build_model(alpha=0), self.probe(), tmp_path, "x")

    def test_files_and_row_counts(self, tmp_path):
        model = self.build_model(d_model=8)
        paths = export_spectra(model, self.probe(), tmp_path, "x")
        assert [os.path.basename(p) for p in paths] == [
            "x_filter0.csv", "x_embedding_spectrum.csv"
        ]
        filter_lines = Path(paths[0]).read_text().splitlines()
        assert filter_lines[0] == "bin_index,amplitude"
        assert len(filter_lines) == 1 + 8 // 2 + 1
        spec_lines = Path(paths[1]).read_text().splitlines()
        assert spec_lines[0] == "bin_index,pre_amplitude,post_amplitude"
        assert len(spec_lines) == 1 + 8 // 2 + 1

    def test_untrained_filter_is_nearly_flat(self, tmp_path):
        model = self.build_model()
        paths = export_spectra(model, self.probe(), tmp_path, "flat")
        rows = Path(paths[0]).read_text().splitlines()[1:]
        amps = np.array([float(r.split(",")[1]) for r in rows])
        # near-impulse init: transfer magnitude hovers around 1
        assert np.all(np.abs(amps - 1.0) < 0.5)
        assert amps.std() < 0.2

    def test_pre_embedding_probe_uses_input_length(self, tmp_path):
        cfg = ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, n_heads=2,
                          total_layers=2, alpha=1, dropout=0.0,
                          filter_placement="pre-embedding")
        model = FilterFormer(cfg, np.random.default_rng(0))
        paths = export_spectra(model, self.probe(), tmp_path, "pre")
        spec_lines = Path(paths[-1]).read_text().splitlines()
        assert len(spec_lines) == 1 + 16 // 2 + 1

    def test_probe_spectra_are_positive(self, tmp_path):
        paths = export_spectra(self.build_model(), self.probe(), tmp_path, "pos")
        rows = Path(paths[-1]).read_text().splitlines()[1:]
        for row in rows:
            _, pre, post = row.split(",")
            assert float(pre) >= 0 and float(post) >= 0


class TestLoadSeries:
    def test_exclusion_applied(self, tmp_path):
        csv = tmp_path / "two.csv"
        csv.write_text("date,a,b\n" + "\n".join(f"{i},{i}.0,{i * 2}.5" for i in range(30)))
        cfg = micro_config(tmp_path, synthetic=None, dataset=str(csv), exclude=("a",))
        series = load_series(cfg)
        assert series.channel_names == ("b",)

    def test_synthetic_noise_seeded_from_train_seed(self, tmp_path):
        cfg = micro_config(tmp_path, synthetic=SyntheticSpec(length=300, noise=0.5))
        a = load_series(cfg)
        b = load_series(cfg)
        np.testing.assert_array_equal(a.values, b.values)
