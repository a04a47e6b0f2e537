"""Exit codes, flag handling, and file outputs of the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectral_forecaster import cli
from spectral_forecaster.data import load_csv
from spectral_forecaster.errors import NumericError


MICRO_YAML = """
tag: microcli
synthetic: {{length: 300}}
horizons: [4]
model: {{lookback: 16, patch_len: 4, d_model: 8, n_heads: 2, total_layers: 2, alpha: 1, dropout: 0.0}}
train: {{learning_rate: 1e-3, batch_size: 64, max_epochs: 2, patience: 2}}
out_dir: {out}
"""


def write_micro_config(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(MICRO_YAML.format(out=tmp_path / "out"))
    return p


class TestRunCommand:
    def test_tiny_preset(self, tmp_path, capsys):
        code = cli.main(["run", "--tiny", "--out", str(tmp_path / "t")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mse=" in out
        assert os.path.exists(tmp_path / "t" / "tiny_metrics.csv")

    def test_config_file(self, tmp_path):
        code = cli.main(["run", "--config", str(write_micro_config(tmp_path))])
        assert code == 0
        assert os.path.exists(tmp_path / "out" / "microcli_metrics.csv")

    def test_horizon_override(self, tmp_path):
        code = cli.main([
            "run", "--config", str(write_micro_config(tmp_path)), "--horizon", "8",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "microcli_metrics.csv").read_text().splitlines()
        assert lines[1].startswith("8,")

    def test_no_config_and_no_tiny_is_config_error(self, capsys):
        assert cli.main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_tiny_plus_config_rejected(self, tmp_path, capsys):
        code = cli.main(["run", "--tiny", "--config", str(write_micro_config(tmp_path))])
        assert code == 2

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text(
            "dataset: /no/such/file.csv\n"
            "model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}\n"
        )
        assert cli.main(["run", "--config", str(p)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_series_too_short_for_its_split_exits_3(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("date,a\n" + "".join(f"{t},{np.sin(t):.6f}\n" for t in range(20)))
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace(
            "synthetic: {length: 300}", f"dataset: {data}"))
        assert cli.main(["run", "--config", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "too short" in err and err.count("\n") == 1

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\nmodel: {lookback: 16}\n")
        assert cli.main(["run", "--config", str(p)]) == 2

    def test_unallocatable_size_exits_2_with_one_line(self, tmp_path, capsys):
        # 8 PB: beyond the address space, so numpy refuses at once, allocating nothing
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace(
            "length: 300", "length: 1000000000000000"))
        assert cli.main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1

    def test_numeric_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise NumericError("validation loss diverged at epoch 3")

        monkeypatch.setattr(cli, "run", explode)
        code = cli.main(["run", "--tiny", "--out", str(tmp_path)])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    def test_diverging_run_exits_4_with_one_line(self, tmp_path, capsys):
        # the steps overflow before a gradient turns non-finite; numpy says
        # nothing of it, so the error is the one line on stderr
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace(
            "learning_rate: 1e-3", "learning_rate: 1e300"))
        assert cli.main(["run", "--config", str(p)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: non-finite gradient") and err.count("\n") == 1

    def test_overflowing_synthetic_series_exits_3_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace(
            "length: 300", "length: 300, noise: 1e308"))
        assert cli.main(["run", "--config", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: series contains") and err.count("\n") == 1

    def test_excluding_only_channel_exits_2(self, tmp_path, capsys):
        code = cli.main([
            "run", "--tiny", "--out", str(tmp_path),
            "--exclude-channels", "synthetic",
        ])
        assert code == 2
        assert "invalid value" in capsys.readouterr().err

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.main([]) == 2
        assert "run" in capsys.readouterr().out


class TestConfigErrors:
    """Malformed config fields exit 2 with a one-line message, never a traceback."""

    @staticmethod
    def exits_2(capsys, argv):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def param_count(self, tmp_path, capsys, extra: str):
        p = tmp_path / "exp.yaml"
        p.write_text(
            "synthetic: {length: 300}\n"
            "model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}\n"
            + extra
        )
        return self.exits_2(capsys, ["param-count", "--config", str(p)])

    @pytest.mark.parametrize("argv", [
        ["run", "--horizon", ","],
        ["run", "--horizon", ""],
        ["ablate-alpha", "--alphas", " , "],
        ["ablate-alpha", "--alphas", ""],
    ])
    def test_empty_integer_list_exits_2(self, tmp_path, capsys, argv):
        # an empty --horizon used to train the model's own horizon, and an
        # empty --alphas the whole default sweep
        err = self.exits_2(capsys, argv + ["--tiny", "--out", str(tmp_path / "out")])
        assert argv[1] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [",", "", " , "])
    def test_empty_channel_list_exits_2(self, tmp_path, capsys, monkeypatch, text):
        # used to exclude nothing and run
        monkeypatch.chdir(tmp_path)
        err = self.exits_2(capsys, ["run", "--tiny", "--exclude-channels", text,
                                    "--out", str(tmp_path / "out")])
        assert "--exclude-channels" in err
        assert not (tmp_path / "out").exists()

    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # used to write into the preset's own runs/tiny
        monkeypatch.chdir(tmp_path)
        assert "--out" in self.exits_2(capsys, ["run", "--tiny", "--out", ""])
        assert list(tmp_path.iterdir()) == []

    def test_repeated_horizon_exits_2(self, tmp_path, capsys):
        # used to train horizon 8 twice, write two metrics rows and list its files twice
        err = self.exits_2(capsys, ["run", "--tiny", "--horizon", "8,8",
                                    "--out", str(tmp_path / "out")])
        assert "horizons must be distinct, got (8, 8)" in err
        assert not (tmp_path / "out").exists()
        err = self.param_count(tmp_path, capsys, "horizons: [4, 6, 4]\n")
        assert "exp.yaml: horizons must be distinct, got (4, 6, 4)" in err

    def test_scalar_horizons_exits_2(self, tmp_path, capsys):
        assert "horizons" in self.param_count(tmp_path, capsys, "horizons: 5\n")

    def test_string_horizons_exits_2(self, tmp_path, capsys):
        # used to be read character by character as horizons (9, 6)
        assert "horizons" in self.param_count(tmp_path, capsys, 'horizons: "96"\n')

    def test_scalar_split_boundaries_exits_2(self, tmp_path, capsys):
        err = self.param_count(tmp_path, capsys, "split: {boundaries: 5}\n")
        assert "boundaries" in err

    def test_fractional_lookback_exits_2(self, tmp_path, capsys):
        # param-count used to print a float total and run ended in a TypeError
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\n"
                     "model: {lookback: 96.7, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}\n")
        for command in ("param-count", "run"):
            assert "lookback" in self.exits_2(capsys, [command, "--config", str(p)])

    def test_string_alpha_exits_2(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\n"
                     "model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2,"
                     " alpha: x}\n")
        err = self.exits_2(capsys, ["param-count", "--config", str(p)])
        assert "alpha must be an integer" in err

    @pytest.mark.parametrize("command", ["param-count", "run"])
    @pytest.mark.parametrize("field, value", [
        ("revin_affine", '"yes"'), ("revin_affine", "1"), ("revin_affine", "null"),
        ("spectral", '{use_mlp: "no thanks"}'), ("spectral", "{use_mlp: 0}"),
        ("spectral", "{use_mlp: null}"),
    ])
    def test_non_boolean_flag_exits_2(self, tmp_path, capsys, command, field, value):
        # a non-empty string used to be read as true and build the MLP
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\n"
                     "model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2,"
                     f" {field}: {value}}}\n")
        err = self.exits_2(capsys, [command, "--config", str(p)])
        assert "must be true or false" in err
        assert ("use_mlp" if field == "spectral" else field) in err

    def test_fractional_batch_size_exits_2(self, tmp_path, capsys):
        err = self.param_count(tmp_path, capsys, "train: {batch_size: 32.5}\n")
        assert "batch_size" in err

    def test_fractional_synth_length_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"length": 300.9}))
        err = self.exits_2(capsys, ["synth", "--spec", str(spec_path),
                                    "--out", str(tmp_path / "s.csv")])
        assert "length must be an integer" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("spec", [{"length": None}, {"noise": [1]}])
    def test_synth_spec_bad_field_exits_2(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        err = self.exits_2(capsys, ["synth", "--spec", str(spec_path),
                                    "--out", str(tmp_path / "s.csv")])
        assert str(spec_path) in err and next(iter(spec)) in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_synth_negative_seed_exits_2(self, tmp_path, capsys, noise):
        # without noise the seed drew nothing, so -1 used to pass unnoticed
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"noise": noise}))
        err = self.exits_2(capsys, ["synth", "--spec", str(spec_path), "--seed", "-1",
                                    "--out", str(tmp_path / "s.csv")])
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "s.csv").exists()

    def test_bool_lookback_exits_2(self, tmp_path, capsys):
        # true used to pass as the integer 1, failing later as "patch_len=4 exceeds lookback=1"
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\n"
                     "model: {lookback: true, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}\n")
        err = self.exits_2(capsys, ["param-count", "--config", str(p)])
        assert "model.lookback must be an integer, got True" in err

    def test_bool_horizon_exits_2(self, tmp_path, capsys):
        # used to be accepted as horizon 1
        err = self.param_count(tmp_path, capsys, "horizons: [true]\n")
        assert "horizons.0 must be an integer, got True" in err

    @pytest.mark.parametrize("section, field", [
        # exited 4 after eleven lines of numpy warnings
        ("train: {learning_rate: .inf}", "train.learning_rate"),
        # exited 4 as a non-finite gradient
        ("train: {learning_rate: .nan}", "train.learning_rate"),
        # exited 2 with "cannot convert float NaN to integer"
        ("split: {train_frac: .nan}", "split.train_frac"),
        # exited 3 as a data error
        ("synthetic: {length: 300, noise: .inf}", "synthetic.noise"),
        ("synthetic: {components: [[1, .nan, 0], [1, 0.1, 0], [1, 0.2, 0]]}",
         "synthetic.components.0.1"),
        ("model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2, dropout: -.inf}",
         "model.dropout"),
    ], ids=["lr-inf", "lr-nan", "train_frac-nan", "noise-inf", "component-nan", "dropout-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, field):
        sections = {"synthetic": "{length: 300}",
                    "model": "{lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}",
                    "train": "{max_epochs: 1, patience: 1}"}
        key, _, value = section.partition(": ")
        sections[key] = value
        p = tmp_path / "exp.yaml"
        p.write_text("".join(f"{k}: {v}\n" for k, v in sections.items()))
        err = self.exits_2(capsys, ["run", "--config", str(p), "--out", str(tmp_path / "out")])
        assert f"{field} must be a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        # wrote the run into a directory named None
        ("out_dir: null", "out_dir must be a string, got None"),
        # was read one character at a time: "unknown channel 's'"
        ("exclude_channels: synthetic", "exclude_channels must be a list, got 'synthetic'"),
        ("exclude_channels: [true]", "exclude_channels.0 must be a string, got True"),
        # said only "boundaries must be increasing positive ints"
        ("split: {boundaries: [100, 150, 170]}", "split.boundaries must be a list of 2 items"),
        ("tag: [a]", "tag must be a string, got ['a']"),
    ], ids=["out_dir-null", "exclude-text", "exclude-bool", "boundaries-3", "tag-list"])
    def test_bad_string_or_list_field_exits_2(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "exp.yaml"
        p.write_text("synthetic: {length: 300}\n"
                     "model: {lookback: 16, horizon: 4, patch_len: 4, d_model: 8, n_heads: 2}\n"
                     "train: {max_epochs: 1, patience: 1}\n" + extra + "\n")
        assert message in self.exits_2(capsys, ["run", "--config", str(p)])
        assert os.listdir(tmp_path) == ["exp.yaml"]


class TestAblationCommands:
    def test_ablate_alpha_default_range(self, tmp_path, capsys):
        code = cli.main([
            "ablate-alpha", "--config", str(write_micro_config(tmp_path)),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "microcli_ablate_alpha.csv").read_text().splitlines()
        assert lines[0] == "alpha,mse,mae"
        assert len(lines) == 4  # 0, 1, 2 of 2 total layers

    def test_ablate_layers_explicit_list(self, tmp_path):
        code = cli.main([
            "ablate-layers", "--config", str(write_micro_config(tmp_path)),
            "--attention-blocks", "0,1",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "microcli_ablate_attention_blocks.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_ablate_placement(self, tmp_path, capsys):
        code = cli.main([
            "ablate-placement", "--config", str(write_micro_config(tmp_path)),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("post-embedding", "pre-embedding", "none"):
            assert name in out

    def test_ablate_placement_without_attention_exits_2(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace("total_layers: 2",
                                                                       "total_layers: 1"))
        assert cli.main(["ablate-placement", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least one attention block" in err

    def test_repeated_alpha_exits_2(self, tmp_path, capsys):
        # used to train alpha 1 twice and write two identical rows
        code = cli.main(["ablate-alpha", "--tiny", "--alphas", "1,1",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "alpha values must be distinct, got (1, 1)" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_attention_count_exits_2(self, tmp_path, capsys):
        code = cli.main(["ablate-layers", "--config", str(write_micro_config(tmp_path)),
                         "--attention-blocks", "1,0,1"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "attention_blocks values must be distinct, got (1, 0, 1)" in err
        assert not (tmp_path / "out").exists()

    def test_bad_list_flag_exits_2(self, tmp_path, capsys):
        code = cli.main([
            "ablate-layers", "--config", str(write_micro_config(tmp_path)),
            "--attention-blocks", "one,two",
        ])
        assert code == 2


class TestExportSpectraCommand:
    def test_untrained_tiny(self, tmp_path):
        code = cli.main(["export-spectra", "--tiny", "--out", str(tmp_path / "s")])
        assert code == 0
        spec = tmp_path / "s" / "tiny_embedding_spectrum.csv"
        lines = spec.read_text().splitlines()
        assert lines[0] == "bin_index,pre_amplitude,post_amplitude"
        assert len(lines) == 1 + 8 // 2 + 1

    def test_from_checkpoint(self, tmp_path):
        assert cli.main(["run", "--tiny", "--out", str(tmp_path / "r")]) == 0
        code = cli.main([
            "export-spectra", "--tiny", "--out", str(tmp_path / "s"),
            "--checkpoint", str(tmp_path / "r" / "tiny_h8.ckpt"),
        ])
        assert code == 0
        assert os.path.exists(tmp_path / "s" / "tiny_filter0.csv")

    def test_filterless_model_exits_2(self, tmp_path, capsys):
        p = tmp_path / "exp.yaml"
        p.write_text(MICRO_YAML.format(out=tmp_path / "out").replace("alpha: 1", "alpha: 0"))
        code = cli.main(["export-spectra", "--config", str(p)])
        assert code == 2
        assert "no spectral filters" in capsys.readouterr().err

    def test_checkpoint_without_header_length_exits_3(self, tmp_path, capsys):
        from spectral_forecaster.model.checkpoint import MAGIC

        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(MAGIC + b"\x00\x01")
        assert len(ckpt.read_bytes()) == 10
        code = cli.main([
            "export-spectra", "--tiny", "--out", str(tmp_path / "s"), "--checkpoint", str(ckpt),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "truncated" in err

    def test_checkpoint_missing_payload_tail_exits_3(self, tmp_path, capsys):
        from spectral_forecaster.experiments import tiny_experiment_config
        from spectral_forecaster.model import FilterFormer, save_checkpoint

        ckpt = tmp_path / "cut.ckpt"
        save_checkpoint(FilterFormer(tiny_experiment_config().model, np.random.default_rng(0)),
                        ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:-40])
        code = cli.main([
            "export-spectra", "--tiny", "--out", str(tmp_path / "s"), "--checkpoint", str(ckpt),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "payload" in err

    @staticmethod
    def run_on_header(tmp_path, capsys, header: bytes, payload: bytes = b""):
        import struct

        from spectral_forecaster.model.checkpoint import MAGIC

        ckpt = tmp_path / "odd.ckpt"
        ckpt.write_bytes(MAGIC + struct.pack(">I", len(header)) + header + payload)
        code = cli.main([
            "export-spectra", "--tiny", "--out", str(tmp_path / "s"), "--checkpoint", str(ckpt),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_checkpoint_with_empty_config_exits_3(self, tmp_path, capsys):
        err = self.run_on_header(tmp_path, capsys, b'{"config": {}, "entries": []}')
        assert "model config" in err

    def test_checkpoint_with_oversized_config_exits_3(self, tmp_path, capsys):
        # a model of 10^6 features would need terabytes: rejected before allocation
        header = json.dumps({"config": {"lookback": 16, "horizon": 8, "patch_len": 4,
                                        "d_model": 10**6, "n_heads": 2}, "entries": []})
        err = self.run_on_header(tmp_path, capsys, header.encode())
        assert "parameters" in err

    def test_checkpoint_with_list_header_exits_3(self, tmp_path, capsys):
        err = self.run_on_header(tmp_path, capsys, b"[1, 2, 3]")
        assert "not a JSON object" in err

    def test_checkpoint_with_nan_value_exits_3(self, tmp_path, capsys):
        from spectral_forecaster.experiments import tiny_experiment_config
        from spectral_forecaster.model import FilterFormer, save_checkpoint
        from spectral_forecaster.model.checkpoint import MAGIC

        model = FilterFormer(tiny_experiment_config().model, np.random.default_rng(0))
        ckpt = tmp_path / "good.ckpt"
        save_checkpoint(model, ckpt)
        blob = ckpt.read_bytes()
        start = len(MAGIC) + 4
        hlen = int.from_bytes(blob[len(MAGIC):start], "big")
        payload = bytearray(blob[start + hlen:])
        payload[8:16] = np.array([np.nan], dtype="<f8").tobytes()
        err = self.run_on_header(tmp_path, capsys, blob[start:start + hlen], bytes(payload))
        assert "non-finite" in err


    @pytest.mark.parametrize("edit, message", [
        ("reorder", "checkpoint entry 0 is {\"name\": \"embedding.pos\""),
        ("true_in_shape", "the model expects {\"name\": \"head.lin.bias\", \"offset\": "),
        ("trailing_bytes", "the payload holds"),
    ])
    def test_checkpoint_off_the_model_layout_exits_3(self, tmp_path, capsys, edit, message):
        from spectral_forecaster.experiments import tiny_experiment_config
        from spectral_forecaster.model import FilterFormer, save_checkpoint
        from spectral_forecaster.model.checkpoint import MAGIC

        # horizon 1 gives the head a bias of shape [1], where true would read as 1
        cfg = dataclasses.replace(tiny_experiment_config().model, horizon=1)
        ckpt = tmp_path / "good.ckpt"
        save_checkpoint(FilterFormer(cfg, np.random.default_rng(0)), ckpt)
        blob = ckpt.read_bytes()
        start = len(MAGIC) + 4
        hlen = int.from_bytes(blob[len(MAGIC):start], "big")
        header, payload = json.loads(blob[start:start + hlen]), blob[start + hlen:]
        entries = header["entries"]
        if edit == "reorder":
            # swapped with their offsets, so every name still finds its own bytes
            entries[:2] = entries[1::-1]
        elif edit == "true_in_shape":
            bias = next(e for e in entries if e["name"] == "head.lin.bias")
            assert bias["shape"] == [1]
            bias["shape"] = [True]
        else:
            payload += bytes(8)
        err = self.run_on_header(tmp_path, capsys, json.dumps(header).encode(), payload)
        assert message in err

    def test_checkpoint_one_value_too_long_names_the_state_size(self, tmp_path, capsys):
        from spectral_forecaster.experiments import tiny_experiment_config
        from spectral_forecaster.model import FilterFormer, save_checkpoint
        from spectral_forecaster.model.checkpoint import MAGIC

        model = FilterFormer(tiny_experiment_config().model, np.random.default_rng(0))
        n_state = sum(a.size for _, a in model.named_state())
        assert n_state > sum(p.size for p in model.parameters())  # the buffers count too
        ckpt = tmp_path / "good.ckpt"
        save_checkpoint(model, ckpt)
        blob = ckpt.read_bytes()
        start = len(MAGIC) + 4
        hlen = int.from_bytes(blob[len(MAGIC):start], "big")
        payload = blob[start + hlen:] + bytes(8)
        err = self.run_on_header(tmp_path, capsys, blob[start:start + hlen], payload)
        assert err.rstrip("\n").endswith(
            f"the payload holds {8 * n_state + 8} bytes, the config's {n_state} "
            f"parameters and buffers need {8 * n_state}")


class TestUtilityCommands:
    def test_param_count_matches_library(self, tmp_path, capsys):
        from spectral_forecaster.experiments import tiny_experiment_config
        from spectral_forecaster.model import count_parameters

        assert cli.main(["param-count", "--tiny"]) == 0
        blob = json.loads(capsys.readouterr().out)
        expected_total, expected_parts = count_parameters(tiny_experiment_config().model)
        assert blob["total"] == expected_total
        assert blob["breakdown"] == expected_parts

    def test_param_count_counts_the_first_listed_horizon(self, tmp_path, capsys):
        from spectral_forecaster.model import ModelConfig, count_parameters

        base = dict(lookback=16, patch_len=4, d_model=8, n_heads=2, total_layers=2)
        p = tmp_path / "exp.yaml"
        p.write_text("model: {lookback: 16, horizon: 96, patch_len: 4, d_model: 8, n_heads: 2, "
                     "total_layers: 2}\nsynthetic: {length: 400}\nhorizons: [192, 336]\n")
        assert cli.main(["param-count", "--config", str(p)]) == 0
        total = json.loads(capsys.readouterr().out)["total"]
        assert total == count_parameters(ModelConfig(horizon=192, **base))[0]
        assert total != count_parameters(ModelConfig(horizon=96, **base))[0]

    def test_synth_round_trips_through_csv(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert cli.main(["synth", "--out", str(out)]) == 0
        from spectral_forecaster.data import SyntheticSpec, synth_three_sine

        rs = load_csv(out)
        expected = synth_three_sine(SyntheticSpec())
        assert rs.channel_names == expected.channel_names
        np.testing.assert_array_equal(rs.values, expected.values)

    def test_synth_with_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"length": 128}))
        out = tmp_path / "short.csv"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert load_csv(out).n_steps == 128

    @pytest.mark.parametrize("spec", [
        {"noise": 1e308},
        {"components": [[1e308, 0.01, 0.0], [1e308, 0.02, 0.0], [1e308, 0.03, 0.0]]},
    ], ids=["noise", "amplitudes"])
    def test_overflowing_synth_spec_exits_3_with_one_line(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "series.csv"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: series contains") and err.count("\n") == 1
        assert not out.exists()

    def test_synth_into_missing_directory_names_the_given_path(self, tmp_path, capsys):
        # used to name the temp file beside it, 'x.csv.<pid>.tmp'
        out = tmp_path / "missing_dir" / "x.csv"
        assert cli.main(["synth", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert err.rstrip().endswith(f"{str(out)!r}") and ".tmp" not in err
        assert not (tmp_path / "missing_dir").exists()

    def test_synth_without_out_exits_2(self, capsys):
        assert cli.main(["synth"]) == 2

    def test_synth_without_out_checks_before_synthesising(self, tmp_path, capsys):
        # a length far past any memory: the missing --out must be reported first
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"length": 10**15}))
        assert cli.main(["synth", "--spec", str(spec_path)]) == 2
        assert "synth needs --out" in capsys.readouterr().err

    def test_thread_cap_mentioned_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert "SPECTRAL_FORECASTER_THREADS" in capsys.readouterr().out


def blas_threads(**variables) -> int:
    """The BLAS thread count a fresh interpreter reads after importing numpy, then the package.

    Only ``variables`` of the thread settings reach it. Skips where no
    OpenBLAS thread setter is found beside numpy.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import numpy, spectral_forecaster as sf; get = sf._openblas('get'); "
            "print(-1 if get is None else get())")
    env = {k: v for k, v in os.environ.items() if k not in (
        "SPECTRAL_FORECASTER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, env={**env, **variables})
    count = int(proc.stdout)
    if count < 0:
        pytest.skip("no OpenBLAS thread setter beside numpy")
    return count


def test_thread_cap_holds_when_numpy_is_imported_first():
    assert blas_threads(SPECTRAL_FORECASTER_THREADS="1") == 1


def test_explicit_openblas_threads_win_over_the_cap():
    assert (blas_threads(SPECTRAL_FORECASTER_THREADS="1", OPENBLAS_NUM_THREADS="2")
            == blas_threads(OPENBLAS_NUM_THREADS="2"))


@pytest.mark.parametrize("reader, code, family", [
    ("checkpoint", 3, "data error:"),
    ("synth-spec", 2, "config error:"),
    ("yaml-config", 2, "config error:"),
])
def test_nesting_past_the_recursion_limit_exits_with_its_code(tmp_path, capsys, reader,
                                                              code, family):
    import struct

    from spectral_forecaster.model.checkpoint import MAGIC

    path = tmp_path / "deep"
    if reader == "checkpoint":
        header = b"[" * 100_000
        path.write_bytes(MAGIC + struct.pack(">I", len(header)) + header)
        argv = ["export-spectra", "--tiny", "--out", str(tmp_path / "s"),
                "--checkpoint", str(path)]
    elif reader == "synth-spec":
        path.write_text("[" * 100_000)
        argv = ["synth", "--spec", str(path), "--out", str(tmp_path / "s.csv")]
    else:
        path.write_text("model: " + "[" * 5000 + "]" * 5000 + "\n")
        argv = ["run", "--config", str(path)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(family) and err.count("\n") == 1
