"""The three training workloads: model shape, inputs, and the operation each repeats.

Each workload is a single-process closed loop: one repetition builds a fresh
model, trains it for a fixed budget, evaluates it and saves a checkpoint. A
repetition is fully determined by the seed, so every repetition of one run
must reproduce the same test MSE bit for bit.

The workload seed draws the data; ``TrainConfig.seed`` (model init, batch
order, dropout) stays at TRAIN_SEED. In trials across init seeds, the test
MSE after these short budgets spread by 7-22% (interquartile range over
median); across data seeds it stays within a few percent, steady enough to
guard quality.

The package is imported first so that ``SPECTRAL_FORECASTER_THREADS`` caps
the BLAS pools before numpy loads its backend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import spectral_forecaster  # noqa: F401  (applies the thread cap before numpy loads)
import numpy as np

from spectral_forecaster import experiments
from spectral_forecaster.data import (
    RawSeries,
    SplitSpec,
    SyntheticSpec,
    WindowSet,
    load_csv,
    make_windows,
    stack_windows,
    write_series_csv,
)
# run.py reloads checkpoints through this module, where the tracer wraps load_checkpoint
from spectral_forecaster.model import FilterFormer, ModelConfig, load_checkpoint, save_checkpoint
from spectral_forecaster.training import TrainConfig, evaluate, fit

# ETTh1 size: 17,420 hourly steps of 7 channels
SERIES_STEPS = 17_420
SERIES_CHANNELS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
SAMPLES_PER_BATCH = 16  # x 7 channels = 112 rows per step
VAL_SAMPLES = 16
TEST_SAMPLES = 32
TRAIN_SEED = 0


def generate_series(seed: int) -> RawSeries:
    """Hourly-like 7-channel series: daily and weekly cycles plus AR(1) noise.

    The cycle amplitudes and phases are fixed, so every seed poses a task of
    the same difficulty; the seed draws only the noise.
    """
    shape_rng = np.random.default_rng(2107_00645)
    n_ch = len(SERIES_CHANNELS)
    amp = shape_rng.uniform(0.5, 2.0, size=(3, n_ch))
    phase = shape_rng.uniform(0.0, 2.0 * np.pi, size=(3, n_ch))
    level = shape_rng.uniform(-5.0, 15.0, size=n_ch)
    t = np.arange(SERIES_STEPS, dtype=np.float64)[:, None]
    values = level + (
        amp[0] * np.sin(2.0 * np.pi * t / 24.0 + phase[0])
        + amp[1] * np.sin(2.0 * np.pi * t / 168.0 + phase[1])
        + amp[2] * np.sin(2.0 * np.pi * t / 8760.0 + phase[2])
    )
    eps = np.random.default_rng([seed, 7]).standard_normal((SERIES_STEPS, n_ch))
    noise = np.empty_like(eps)
    noise[0] = eps[0]
    for i in range(1, SERIES_STEPS):
        noise[i] = 0.8 * noise[i - 1] + eps[i]
    values += 0.5 * noise
    return RawSeries(SERIES_CHANNELS, values, frequency="1h")


def evenly_spaced(samples: list, count: int) -> list:
    idx = np.linspace(0, len(samples) - 1, count).round().astype(int)
    return [samples[i] for i in idx]


def stacked_rows(samples) -> np.ndarray:
    x, _ = stack_windows(samples)
    return x.reshape(-1, x.shape[-1])


@dataclass
class RepResult:
    """What one repetition left behind for the correctness checks."""

    model: FilterFormer
    test_mse: float
    test_rows: np.ndarray
    checkpoint: str


class PinnedWorkload:
    """The acceptance configuration, run end to end through ``experiments.run``."""

    name = "pinned"
    model = ModelConfig(lookback=96, horizon=96, patch_len=8, d_model=16,
                        n_heads=4, total_layers=3, alpha=1, dropout=0.0)
    epochs = 2

    def __init__(self, seed: int, workdir: str):
        # the built-in three-sine mix, started at a seeded offset: every
        # component frequency is k/96, so this is a pure time shift
        shift = int(np.random.default_rng([seed, 7]).integers(0, 96))
        components = tuple((amp, freq, phase + 2.0 * np.pi * freq * shift)
                           for amp, freq, phase in SyntheticSpec().components)
        # patience == max_epochs fixes the epoch count
        self.config = experiments.ExperimentConfig(
            model=self.model,
            train=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=self.epochs,
                              patience=self.epochs, seed=TRAIN_SEED),
            split=SplitSpec(),
            synthetic=SyntheticSpec(components=components),
            out_dir=os.path.join(workdir, "pinned"),
            tag="pinned",
        )

    def generate(self, workdir: str) -> None:
        """Nothing to write: the built-in synthetic spec is generated in-process."""

    def setup(self) -> None:
        series = experiments.load_series(self.config)
        make_windows(series, self.config.split, self.model.lookback, self.model.horizon)
        FilterFormer(self.model, np.random.default_rng([TRAIN_SEED, 0]))

    def rep(self) -> RepResult:
        # run() keeps its model to itself; borrow it where run() evaluates
        seen = {}
        original = experiments.evaluate

        def capture(model, samples):
            seen["model"], seen["samples"] = model, list(samples)
            return original(model, samples)

        experiments.evaluate = capture
        try:
            report = experiments.run(self.config)
        finally:
            experiments.evaluate = original
        ckpt = next(p for p in report.artifacts if p.endswith(".ckpt"))
        return RepResult(seen["model"], report.metrics[0][1].mse,
                         stacked_rows(seen["samples"]), ckpt)


class WindowedWorkload:
    """Fixed-budget ``fit`` plus ``evaluate`` on the generated ETTh1-sized CSV."""

    def __init__(self, name: str, model: ModelConfig, train_batches: int,
                 seed: int, workdir: str):
        self.name = name
        self.model = model
        self.seed = seed
        # the default learning rate, 1e-4: at 1e-3 these few steps leave paper's
        # test MSE above the untrained model's and spread prefilter336's by 9%
        # across seeds
        self.train_cfg = TrainConfig(batch_size=SAMPLES_PER_BATCH, max_epochs=1,
                                     patience=1, seed=TRAIN_SEED)
        self.train_samples = train_batches * SAMPLES_PER_BATCH
        self.csv_path = os.path.join(workdir, "series.csv")
        self.checkpoint = os.path.join(workdir, f"{name}.ckpt")
        self.windows: WindowSet | None = None

    def generate(self, workdir: str) -> None:
        write_series_csv(self.csv_path, generate_series(self.seed))

    def setup(self) -> None:
        full = make_windows(load_csv(self.csv_path), SplitSpec.ett(),
                            self.model.lookback, self.model.horizon)
        self.windows = WindowSet(
            train=evenly_spaced(full.train, self.train_samples),
            val=evenly_spaced(full.val, VAL_SAMPLES),
            test=evenly_spaced(full.test, TEST_SAMPLES),
            mean=full.mean, std=full.std,
        )
        FilterFormer(self.model, np.random.default_rng([TRAIN_SEED, 0]))

    def rep(self) -> RepResult:
        model = FilterFormer(self.model, np.random.default_rng([TRAIN_SEED, 0]))
        fit(model, self.windows, self.train_cfg)
        metrics = evaluate(model, self.windows.test)
        save_checkpoint(model, self.checkpoint)
        return RepResult(model, metrics.mse, stacked_rows(self.windows.test), self.checkpoint)


def make_workload(name: str, seed: int, workdir: str):
    if name == "pinned":
        return PinnedWorkload(seed, workdir)
    if name == "paper":
        return WindowedWorkload(
            "paper",
            ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=128, n_heads=8,
                        total_layers=4, alpha=1, dropout=0.1),
            train_batches=8, seed=seed, workdir=workdir,
        )
    if name == "prefilter336":
        return WindowedWorkload(
            "prefilter336",
            ModelConfig(lookback=336, horizon=96, patch_len=16, d_model=64, n_heads=4,
                        total_layers=3, alpha=2, filter_placement="pre-embedding",
                        dropout=0.0),
            train_batches=16, seed=seed, workdir=workdir,
        )
    raise ValueError(f"unknown workload {name!r}")

