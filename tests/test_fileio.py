"""Artifact writers replace their file atomically: a failed write keeps the old one.

Every CSV artifact is in the one dialect of ``write_csv``: a header row, LF
line ends, and each float as its shortest round-trip ``repr``.
"""

import os
import stat

import numpy as np
import pytest

from spectral_forecaster import cli, fileio
from spectral_forecaster.data import RawSeries, write_series_csv
from spectral_forecaster.experiments import _write_metrics_table, export_spectra
from spectral_forecaster.fileio import atomic_write, write_csv
from spectral_forecaster.model import FilterFormer, ModelConfig, save_checkpoint
from spectral_forecaster.spectral import amplitude_spectrum
from spectral_forecaster.training import Metrics

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

# name of the file each writer (re)writes, and a call that writes it into a directory;
# the loss curve, metrics, sweep and amplitude cases write their artifact as the program does
WRITERS = {
    "csv": ("c.csv", lambda d: write_csv(d / "c.csv", ("epoch", "mse"), [(1, 0.5), (2, 0.3)])),
    "loss_curve": ("l.csv", lambda d: write_csv(
        d / "l.csv", ("epoch", "train_mse", "val_mse"), [(1, 0.5, 0.4), (2, 0.3, 0.2)])),
    "metrics": ("m.csv", lambda d: _write_metrics_table(d / "m.csv", "horizon", METRICS)),
    "amplitude": ("a.csv", lambda d: write_csv(
        d / "a.csv", ("bin_index", "amplitude"),
        enumerate(amplitude_spectrum(tiny_model().spectral_filters()[0])))),
    "sweep": ("w.csv", lambda d: _write_metrics_table(d / "w.csv", "alpha", METRICS)),
    "series": ("s.csv", lambda d: write_series_csv(
        d / "s.csv", RawSeries(("x", "y"), np.arange(6.0).reshape(3, 2)))),
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


class TestWriteCsv:
    def test_header_then_rows_with_lf_line_ends(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ("horizon", "mse", "mae"), [(96, 0.373, 0.394), (192, 0.41, 0.42)])
        assert path.read_bytes() == b"horizon,mse,mae\n96,0.373,0.394\n192,0.41,0.42\n"

    def test_floats_are_written_as_their_round_trip_repr(self, tmp_path):
        path = tmp_path / "f.csv"
        values = [1 / 3, 9.87e-5, np.float64(2 / 7), np.float32(0.1), -0.0, 1e300]
        write_csv(path, ("k", "v"), enumerate(values))
        cells = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert cells == [repr(float(v)) for v in values]
        assert [float(c) for c in cells] == [float(v) for v in values]

    def test_other_cells_are_written_as_csv_writes_them(self, tmp_path):
        path = tmp_path / "o.csv"
        write_csv(path, ("placement", "n"), [("post-embedding", np.int64(3)), ("a,b", 4)])
        assert path.read_text().splitlines()[1:] == ["post-embedding,3", '"a,b",4']

    def test_no_rows_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ("bin_index", "amplitude"), [])
        assert path.read_bytes() == b"bin_index,amplitude\n"


def _cli(*argv) -> None:
    assert cli.main(list(argv)) == 0


# every CSV artifact's header; the first column is a key, every later cell a float
ARTIFACT_HEADERS = {
    "_loss.csv": "epoch,train_mse,val_mse",
    "_metrics.csv": "horizon,mse,mae",
    "_ablate_alpha.csv": "alpha,mse,mae",
    "_ablate_attention_blocks.csv": "attention_blocks,mse,mae",
    "_ablate_placement.csv": "placement,mse,mae",
    "_filter0.csv": "bin_index,amplitude",
    "_embedding_spectrum.csv": "bin_index,pre_amplitude,post_amplitude",
    "synth.csv": "date,synthetic",
}


def test_every_csv_artifact_is_in_the_one_dialect(tmp_path):
    out = str(tmp_path)
    _cli("run", "--tiny", "--out", out)
    _cli("ablate-alpha", "--tiny", "--alphas", "0,1", "--out", out)
    _cli("ablate-layers", "--tiny", "--attention-blocks", "0,1", "--out", out)
    _cli("ablate-placement", "--tiny", "--out", out)
    _cli("export-spectra", "--tiny", "--out", str(tmp_path / "spectra"))
    _cli("synth", "--out", str(tmp_path / "synth.csv"))
    kinds = {path: next(s for s in ARTIFACT_HEADERS if path.name.endswith(s))
             for path in tmp_path.rglob("*.csv")}
    assert set(kinds.values()) == set(ARTIFACT_HEADERS)
    for path, kind in kinds.items():
        data = path.read_bytes()
        assert b"\r" not in data, path.name
        assert data.endswith(b"\n"), path.name
        header, *rows = data.decode().split("\n")[:-1]
        assert header == ARTIFACT_HEADERS[kind], path.name
        assert rows, path.name
        for row in rows:
            cells = row.split(",")
            assert len(cells) == header.count(",") + 1, (path.name, row)
            for cell in cells[1:]:
                assert repr(float(cell)) == cell, (path.name, row)


@pytest.mark.parametrize("case", ["missing directory", "directory in the way"])
def test_failed_open_or_rename_names_the_target_not_the_temp_file(tmp_path, case):
    path = tmp_path / "missing" / "f.csv"
    if case == "directory in the way":
        path = tmp_path / "f.csv"
        path.mkdir()
    with pytest.raises(OSError) as info:
        with atomic_write(path) as fh:
            fh.write("x\n")
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert ".tmp" not in str(info.value)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


needs_mkfifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


@needs_mkfifo
def test_a_target_that_is_not_a_regular_file_is_refused_untouched(tmp_path):
    fifo = tmp_path / "ff"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file") as info:
        with atomic_write(fifo) as fh:
            fh.write("x\n")
    assert info.value.filename == str(fifo)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["ff"]


@needs_mkfifo
def test_synth_onto_a_fifo_exits_3_with_one_line(tmp_path, capsys):
    # used to print "wrote 2000 steps", exit 0 and leave a regular file
    fifo = tmp_path / "ff"
    os.mkfifo(fifo)
    assert cli.main(["synth", "--out", str(fifo)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
    assert str(fifo) in captured.err and "wrote" not in captured.out
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["ff"]
