"""The typed config reader: field types, paths in messages, and random bad inputs.

``errors.config_section`` reads every config dataclass from a mapping by its
annotations. The property tests feed the CLI mutated YAML configs and
``load_checkpoint`` mutated checkpoint files: each must succeed or fail with
a one-line message of its documented family, never a traceback.
"""

import contextlib
import copy
import dataclasses
import io
import os
import tempfile
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_forecaster import cli
from spectral_forecaster.data import SplitSpec, SyntheticSpec
from spectral_forecaster.errors import ConfigError, DataError, config_section, config_value
from spectral_forecaster.experiments import ExperimentConfig, tiny_experiment_config
from spectral_forecaster.model import FilterFormer, ModelConfig, load_checkpoint, save_checkpoint
from spectral_forecaster.spectral import SpectralBlockConfig
from spectral_forecaster.training import TrainConfig

CONFIG_CLASSES = [ExperimentConfig, ModelConfig, SpectralBlockConfig, TrainConfig, SplitSpec,
                  SyntheticSpec]


def annotations_under(tp):
    """``tp`` and every annotation nested in it: union members, tuple items, dataclass fields."""
    yield tp
    if dataclasses.is_dataclass(tp):
        children = typing.get_type_hints(tp).values()
    else:
        children = [a for a in typing.get_args(tp) if a is not Ellipsis and a is not type(None)]
    for child in children:
        yield from annotations_under(child)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_reader_handles_every_field_type(cls):
    # a new field whose type the reader has no rule for raises TypeError here
    for name, hint in typing.get_type_hints(cls).items():
        for tp in annotations_under(hint):
            with pytest.raises(ConfigError):
                config_value(tp, object(), f"{cls.__name__}.{name}")


@pytest.mark.parametrize("tp", [list[int], tuple, dict, type(None)])
def test_unknown_annotation_is_a_type_error(tp):
    with pytest.raises(TypeError, match="cannot read"):
        config_value(tp, object(), "x")


class TestConfigSection:
    def test_missing_required_field_names_its_path(self):
        with pytest.raises(ConfigError, match=r"missing required field model\.patch_len"):
            config_section(ModelConfig, {"lookback": 16, "horizon": 4}, "model")

    def test_non_mapping_section(self):
        with pytest.raises(ConfigError, match="train must be a mapping, got 3"):
            config_section(TrainConfig, 3, "train")

    def test_nested_value_names_its_path(self):
        raw = {"lookback": 16, "horizon": 4, "patch_len": 4, "spectral": {"mlp_hidden": "x"}}
        with pytest.raises(ConfigError, match=r"model\.spectral\.mlp_hidden must be an integer"):
            config_section(ModelConfig, raw, "model")

    def test_defaults_fill_absent_fields(self):
        assert config_section(TrainConfig, {}, "train") == TrainConfig()

    @pytest.mark.parametrize("value, expected", [
        (0.001, 0.001), (1, 1.0), ("1e-4", 1e-4), (" 2.5 ", 2.5),
    ])
    def test_float_takes_numbers_and_numeric_text(self, value, expected):
        assert config_section(TrainConfig, {"learning_rate": value}, "train").learning_rate == expected

    @pytest.mark.parametrize("value", [True, None, "fast", [1e-3], float("nan"), float("inf"),
                                       "-inf", "1e400", 10**400])
    def test_float_rejects_everything_else(self, value):
        with pytest.raises(ConfigError, match="train.learning_rate must be a finite number"):
            config_section(TrainConfig, {"learning_rate": value}, "train")

    def test_integral_float_reads_as_int(self):
        assert config_section(TrainConfig, {"batch_size": 32.0}, "train").batch_size == 32

    def test_tuple_items_and_lengths(self):
        split = config_section(SplitSpec, {"boundaries": [100, 150]}, "split")
        assert split.boundaries == (100, 150)
        with pytest.raises(ConfigError, match=r"split\.boundaries\.1 must be an integer"):
            config_section(SplitSpec, {"boundaries": [100, "x"]}, "split")
        with pytest.raises(ConfigError, match="split.boundaries must be a list of 2 items"):
            config_section(SplitSpec, {"boundaries": [100]}, "split")

    def test_field_read_under_its_own_name(self):
        raw = {"model": {"lookback": 16, "horizon": 4, "patch_len": 4, "d_model": 8,
                         "n_heads": 2},
               "synthetic": {}, "exclude_channels": [1, "a"]}
        assert config_section(ExperimentConfig, raw, "").exclude_channels == (1, "a")
        raw["exclude"] = raw.pop("exclude_channels")
        with pytest.raises(ConfigError, match=r"unknown keys \['exclude'\]"):
            config_section(ExperimentConfig, raw, "")


# ---- property tests ---------------------------------------------------------

VALID_YAML = {
    "tag": "prop",
    "synthetic": {"length": 300, "noise": 0.1},
    "horizons": [4],
    "model": {"lookback": 16, "patch_len": 4, "d_model": 8, "n_heads": 2, "total_layers": 2,
              "alpha": 1, "dropout": 0.0, "spectral": {"use_mlp": True}},
    "train": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 2, "patience": 2},
    "split": {"train_frac": 0.7, "val_frac": 0.1, "test_frac": 0.2},
}


def yaml_paths(cls, prefix=()):
    """The key path of every field under ``cls``, nested sections included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        path = prefix + (f.name,)
        yield path
        for tp in (hints[f.name], *typing.get_args(hints[f.name])):
            if dataclasses.is_dataclass(tp):
                yield from yaml_paths(tp, path)


YAML_PATHS = sorted(yaml_paths(ExperimentConfig))

scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
           | st.text(max_size=6) | st.sampled_from(["1e-3", ".5", "nan", "-inf", "12"]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=8,
)
mutations = st.lists(
    st.tuples(st.sampled_from(["set", "delete", "add-key"]), st.sampled_from(YAML_PATHS), values),
    min_size=1, max_size=3,
)


def mutate(config: dict, op: str, path: tuple, value) -> None:
    *parents, key = path
    section = config
    for name in parents:
        if not isinstance(section.get(name), dict):
            section[name] = {}
        section = section[name]
    if op == "set":
        section[key] = value
    elif op == "delete":
        section.pop(key, None)
    else:
        section[f"{key}_x"] = value


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutations)
def test_mutated_yaml_config_fails_cleanly(ops):
    config = copy.deepcopy(VALID_YAML)
    for op in ops:
        mutate(config, *op)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        code, err = run_cli(["param-count", "--config", path])
    assert code in (0, 2, 3)
    assert err == "" if code == 0 else err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


def test_unmutated_yaml_config_is_accepted(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(VALID_YAML))
    assert run_cli(["param-count", "--config", str(path)]) == (0, "")


@pytest.fixture(scope="module")
def checkpoint_bytes():
    model = FilterFormer(tiny_experiment_config().model, np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiny.ckpt")
        save_checkpoint(model, path)
        with open(path, "rb") as fh:
            return fh.read()


# magic and header length take 12 bytes, then the JSON header opens with the
# model config; most edits land there and write JSON-ish bytes
byte_edits = st.lists(
    st.tuples(st.sampled_from(["replace", "delete", "insert"]),
              st.integers(12, 400) | st.integers(0, 10**6),
              st.sampled_from(b'0123456789-.e,:"[]{} tfnul') | st.integers(0, 255)),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(edits=byte_edits)
def test_mutated_checkpoint_loads_or_raises_data_error(checkpoint_bytes, edits):
    blob = bytearray(checkpoint_bytes)
    for op, pos, byte in edits:
        pos %= len(blob) + (op == "insert")
        if op == "replace":
            blob[pos] = byte
        elif op == "delete":
            del blob[pos]
        else:
            blob.insert(pos, byte)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_checkpoint(path)  # a harmless edit loads (exit 0)
        except DataError as exc:  # exit 3 with one line
            assert "\n" not in str(exc)
