"""Artifact writers replace their file atomically: a failed write keeps the old one."""

import os

import numpy as np
import pytest

from spectral_forecaster import fileio
from spectral_forecaster.data import RawSeries, write_series_csv
from spectral_forecaster.experiments import _write_sweep_csv, export_spectra
from spectral_forecaster.fileio import atomic_write
from spectral_forecaster.model import FilterFormer, ModelConfig, save_checkpoint
from spectral_forecaster.spectral import write_amplitude_csv
from spectral_forecaster.training import Metrics, write_loss_curve, write_metrics_csv

OLD = "old contents\n"


class FailingFile:
    """A real file whose second write raises, after the first one has landed."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def tiny_model():
    cfg = ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, n_heads=2,
                      total_layers=2, alpha=1, dropout=0.0)
    return FilterFormer(cfg, np.random.default_rng(0))


METRICS = [(4, Metrics(mse=0.5, mae=0.4)), (8, Metrics(mse=0.6, mae=0.5))]

# name of the file each writer (re)writes, and a call that writes it into a directory
WRITERS = {
    "loss_curve": ("c.csv", lambda d: write_loss_curve(d / "c.csv", [(1, 0.5, 0.4), (2, 0.3, 0.2)])),
    "metrics": ("m.csv", lambda d: write_metrics_csv(d / "m.csv", METRICS)),
    "amplitude": ("a.csv", lambda d: write_amplitude_csv(d / "a.csv", np.ones(5))),
    "series": ("s.csv", lambda d: write_series_csv(
        d / "s.csv", RawSeries(("x", "y"), np.arange(6.0).reshape(3, 2)))),
    "sweep": ("w.csv", lambda d: _write_sweep_csv(d / "w.csv", "alpha", METRICS)),
    "spectra": ("t_filter0.csv", lambda d: export_spectra(
        tiny_model(), np.random.default_rng(1).standard_normal((3, 16)), d, "t")),
    "checkpoint": ("k.ckpt", lambda d: save_checkpoint(tiny_model(), d / "k.ckpt")),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    (tmp_path / name).write_text(OLD)
    real_open = open
    monkeypatch.setattr(fileio, "open",
                        lambda *a, **k: FailingFile(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="no space left"):
        write(tmp_path)
    assert (tmp_path / name).read_text() == OLD
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("writer", WRITERS)
def test_successful_write_replaces_file_and_leaves_no_temp(tmp_path, writer):
    name, write = WRITERS[writer]
    (tmp_path / name).write_text(OLD)
    write(tmp_path)
    assert (tmp_path / name).read_bytes() != OLD.encode()
    assert name in os.listdir(tmp_path)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_interrupt_inside_the_body_removes_the_temp_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(OLD)
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("{\"partial\": ")
            raise KeyboardInterrupt
    assert path.read_text() == OLD
    assert os.listdir(tmp_path) == ["f.json"]
